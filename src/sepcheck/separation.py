"""Component-count engine for codimension-1 maps.

Implements the cohomological formula for the number of connected
components of the complement of the image, the Jordan-Brouwer and
disconnection corollaries, and the independent combinatorial oracle that
counts components of the complementary complex directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

from .gf2 import rank
from .complexes import (
    SimplicialComplex,
    Subcomplex,
    _count_components,
    is_certified_manifold,
    memo,
)
from .homology import betti, induced_on_cohomology
from .maps import (
    SelfIntersectionData,
    SimplicialMap,
    image_complex,
    image_subcomplex,
    self_intersection,
    self_intersection_maps,
)


class HypothesisError(ValueError):
    """A theorem hypothesis fails; carries the name of the failing one."""

    def __init__(self, name: str, message: str = ""):
        self.hypothesis = name
        super().__init__(message or f"hypothesis failed: {name}")


@dataclass
class SeparationReport:
    h1_Y_zero: bool
    A_proper: bool
    Y_minus_fA_connected: bool
    coker_dim: int
    beta0_formula: int
    beta0_oracle: int
    agreement: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def complement_components_oracle(y: SimplicialComplex, f_img: Subcomplex) -> int:
    """Components of the complementary complex of f_img in y.

    The complementary complex has the simplices of y outside f_img as its
    vertices and their comparable pairs as its edges, so its components
    are those of the outside simplices under the facet relation.  They are
    counted on fewer nodes, in any simplicial complex.  An outside simplex
    with an outside vertex v lies in the open star of v, so it joins v, and
    two outside vertices of one simplex join through their edge (E1).  The
    rest are *spanning*: outside, with every vertex inside f_img.  A
    spanning s joins its outside facets (E2), spanning too, and each
    outside vertex v with s + v in y (E3).  Every facet pair t < s of
    outside simplices is one of these joins: if t has an outside vertex,
    both join it; if only s has one, s = t + v (E3); if neither, E2.  So
    the count is that of E1 + E2 + E3 on the outside vertices and spanning
    simplices.  A full subcomplex, such as the image of any subdivided map,
    has no spanning simplex: the count is then that of the 1-skeleton of y
    on the outside vertices.  It is kept on f_img, so every later call on
    it costs nothing.
    """
    if f_img.parent is not y and f_img.parent != y:
        raise ValueError("image is not a subcomplex of the codomain")
    return _complement_components(f_img)


@memo
def _complement_components(f_img: Subcomplex) -> int:
    """The count of complement_components_oracle, by union-find on E1 + E2 + E3."""
    y, img = f_img.parent, f_img.simplices
    inside = {s[0] for s in img if len(s) == 1}
    links = [e for e in y.simplices_of_dim(1)  # E1
             if e[0] not in inside and e[1] not in inside]
    spanning = {s for d in range(1, y.dim + 1) for s in y.simplices_of_dim(d)
                if s[0] in inside and inside.issuperset(s) and s not in img}
    if spanning:
        for s in spanning:  # E2
            links += [(s, t) for t in combinations(s, len(s) - 1) if t not in img]
        for u in y.simplices:  # E3: u = s + v with v its one outside vertex
            out = [v for v in u if v not in inside]
            if len(out) == 1:
                s = tuple(w for w in u if w != out[0])
                if s in spanning:
                    links.append((s, out[0]))
    return _count_components([v for v in y.vertices if v not in inside] + list(spanning), links)


def image_components(f: SimplicialMap) -> int:
    """The oracle count of components of codomain - f(domain)."""
    return complement_components_oracle(f.codomain, image_subcomplex(f))


def _require_codim1_certificates(f: SimplicialMap) -> int:
    """Certify domain as closed n-manifold, codomain as closed (n+1)-manifold."""
    n = f.domain.dim
    if not is_certified_manifold(f.domain, n):
        raise HypothesisError("domain_closed_manifold",
                              f"{f.domain.name} is not a certified closed {n}-manifold")
    if not is_certified_manifold(f.codomain, n + 1):
        raise HypothesisError("codomain_closed_manifold",
                              f"{f.codomain.name} is not a certified closed {n + 1}-manifold")
    return n


def _require_positive_codim1(f: SimplicialMap) -> int:
    """Codimension-1 certificates and a domain of dimension m >= 1.

    The obstruction theta lives in H_{m-1}(M), so a 0-dimensional domain
    has none and its pipeline is refused rather than run.
    """
    m = _require_codim1_certificates(f)
    if m < 1:
        raise HypothesisError("domain_dim_positive")
    return m


def check_hypotheses_thm32(f: SimplicialMap) -> dict:
    _require_codim1_certificates(f)
    checks = _hypotheses_thm32(f, self_intersection(f))
    return {name: check() for name, check in checks.items()}


def _hypotheses_thm32(f: SimplicialMap, si: SelfIntersectionData) -> dict:
    """The Theorem 3.2 hypotheses of a certified map with self-intersection si.

    Name -> zero-argument check, in refusal order, so a caller that stops
    at the first failure never runs the oracle on B for a refused map.
    """
    return {
        "h1_Y_zero": lambda: betti(f.codomain, 1) == 0,
        # 2 + coker counts for one sphere: r disjoint ones cut out r + 1 pieces
        "domain_connected": lambda: betti(f.domain, 0) == 1,
        "A_proper": lambda: si.A.simplices != f.domain.simplices,
        "Y_minus_fA_connected": lambda: _complement_connected(f.codomain, si.B),
    }


def _complement_connected(y: SimplicialComplex, b: Subcomplex) -> bool:
    """Whether y - b is connected; y itself when b is empty (every embedding)."""
    if b.is_empty():
        return betti(y, 0) == 1
    return complement_components_oracle(y, b) == 1


def beta0_formula_thm32(f: SimplicialMap) -> SeparationReport:
    """beta0(Y - f(X)) = 2 + dim coker(i^* + f|_A^*), checked against the oracle."""
    n = _require_codim1_certificates(f)
    si = self_intersection(f)
    for name, check in _hypotheses_thm32(f, si).items():
        if not check():
            raise HypothesisError(name)
    if si.A.is_empty():
        coker = 0
    else:
        # (i^*, f|_A^*): H^{n-1}(X) + H^{n-1}(f(A)) -> H^{n-1}(A), one stacked matrix
        incl, f_a = self_intersection_maps(f)
        block = induced_on_cohomology(incl, n - 1).hstack(induced_on_cohomology(f_a, n - 1))
        coker = block.rows - rank(block)
    formula = 2 + coker
    oracle = image_components(f)
    return SeparationReport(
        h1_Y_zero=True, A_proper=True, Y_minus_fA_connected=True,
        coker_dim=coker, beta0_formula=formula, beta0_oracle=oracle,
        agreement=(formula == oracle),
    )


def eq1_identity_check(f: SimplicialMap) -> bool:
    """beta0(Y - f(X)) = 1 + dim H^n(f(X)); needs only H_1(Y;Z2) = 0."""
    n = _require_codim1_certificates(f)
    if betti(f.codomain, 1) != 0:
        raise HypothesisError("h1_Y_zero")
    return image_components(f) == 1 + betti(image_complex(f), n)  # over Z2, H^n = H_n


def jordan_brouwer_check(f: SimplicialMap) -> bool:
    """Embedding into a codomain with H_1 = 0 separates into exactly 2 pieces."""
    _require_codim1_certificates(f)
    si = self_intersection(f)
    if not si.is_embedding:
        raise HypothesisError("is_embedding", "map has self-intersections")
    if betti(f.codomain, 1) != 0:
        raise HypothesisError("h1_Y_zero")
    report = beta0_formula_thm32(f)
    return report.beta0_formula == 2 and report.beta0_oracle == 2


def prop34_check(f: SimplicialMap) -> dict:
    """Disconnection when dim A < n: record of applicability and verdict.

    The disconnection assertion is only evaluated when the codimension-1
    certificates and H_1(Y;Z2) = 0 hold; otherwise the record reports
    applicability arithmetic alone.
    """
    n = f.domain.dim
    si = self_intersection(f)
    dim_a = si.dim_A
    applies = dim_a < n
    record = {"dimA": dim_a, "applies": applies, "disconnected": None}
    if not applies:
        return record
    if (is_certified_manifold(f.domain, n)
            and is_certified_manifold(f.codomain, n + 1)
            and betti(f.codomain, 1) == 0):
        record["disconnected"] = image_components(f) >= 2
        assert record["disconnected"], (
            "disconnection conclusion violated; this contradicts the theorem")
    return record
