"""Embedding-obstruction pipeline for codimension-1 maps.

Computes the dual class of the pushed-forward fundamental class, the
first Stiefel-Whitney class of the stable normal bundle, the primary
obstruction class, the linear system locating it on the self-intersection
set, the ladder-extracted exact sequence, and the three-components
theorem with its oracle cross-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .gf2 import BitMatrix, exact_at, kernel_basis, rank, solve
from .complexes import is_certified_manifold, memo
from .duality import cap_matrix, fundamental_class, poincare_dual, w1
from .homology import (
    HomologyBasis,
    betti,
    chain_complex,
    connecting_map,
    homology_basis,
    induced_on_cohomology,
    induced_on_homology,
)
from .maps import (
    SimplicialMap,
    image_complex,
    self_intersection,
    self_intersection_maps,
)
from .separation import (
    HypothesisError,
    _require_codim1_certificates,
    _require_positive_codim1,
    image_components,
)


@dataclass
class ObstructionReport:
    Uf_is_zero: bool
    w1f_is_zero: bool
    theta_is_zero: bool
    theta_pushforward_zero: bool
    exists_nonzero_mu: bool
    predicate_thm_final: bool
    beta0_oracle: int
    dim_Hm_image: int
    A_proper: bool  # read by final_theorem_check, not reported

    def to_json_dict(self) -> dict:
        d = asdict(self)
        del d["A_proper"]
        return d


@memo
def dual_class_Uf(f: SimplicialMap) -> int:
    """Poincare dual in the codomain of f_*[M], as H^1(codomain) coordinates."""
    m = _require_codim1_certificates(f)
    fm = homology_basis(chain_complex(f.domain), m).coordinates(fundamental_class(f.domain, m))
    return poincare_dual(f.codomain, m + 1, induced_on_homology(f, m).matvec(fm), m)


@memo
def _h1_pullback(f: SimplicialMap) -> BitMatrix:
    """f^*: H^1(codomain) -> H^1(domain), shared by w1_of_map and theta."""
    return induced_on_cohomology(f, 1)


@memo
def w1_of_map(f: SimplicialMap) -> int:
    """Degree-1 Stiefel-Whitney class of the stable normal bundle of f.

    Over Z2 this is f^* w1(codomain) + w1(domain), as H^1(domain)
    coordinates; the dimension gap may be any nonnegative integer here
    (identity maps are legitimate inputs).
    """
    m = f.domain.dim
    n = f.codomain.dim
    if not (is_certified_manifold(f.domain, m) and is_certified_manifold(f.codomain, n)):
        raise HypothesisError("closed_manifold_certificates")
    return _h1_pullback(f).matvec(w1(f.codomain, n)) ^ w1(f.domain, m)


@memo
def theta(f: SimplicialMap) -> int:
    """Primary obstruction (f^* U_f + w1(f)) cap [M], as H_{m-1}(M) coordinates."""
    m = _require_positive_codim1(f)
    total = _h1_pullback(f).matvec(dual_class_Uf(f)) ^ w1_of_map(f)
    return cap_matrix(f.domain, m, m - 1).matvec(total)


def theta_pushforward_check(f: SimplicialMap) -> bool:
    """f_* theta(f) vanishes; a failure here is a bug, not a finding."""
    m = _require_positive_codim1(f)
    return induced_on_homology(f, m - 1).matvec(theta(f)) == 0


def _restriction_system(f: SimplicialMap, d: int) -> tuple[BitMatrix, HomologyBasis]:
    """j_* stacked on (f|_A)_*: H_d(A) -> H_d(M) + H_d(B), and the basis of H_d(A)."""
    j, f_a = self_intersection_maps(f)
    system = induced_on_homology(j, d).vstack(induced_on_homology(f_a, d))
    return system, homology_basis(chain_complex(j.domain), d)


def mu_solve(f: SimplicialMap, theta_coords: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Solve j_* mu = theta(f), (f|_A)_* mu = 0 over H_{m-1}(A;Z2).

    Returns a particular solution and a basis of the kernel of the system,
    both in the canonical H_{m-1}(A) basis; an unsolvable system raises.
    ``theta_coords`` (in the canonical H_{m-1}(domain) basis) may be given
    explicitly; by default it is computed from the obstruction class.
    """
    m = f.domain.dim
    if theta_coords is None:
        theta_coords = theta(f)
    if self_intersection(f).A.is_empty():
        if theta_coords != 0:
            raise AssertionError("empty self-intersection with nonzero obstruction")
        return 0, ()
    system, _ = _restriction_system(f, m - 1)
    particular = solve(system, theta_coords)  # rhs: theta then zeros
    if particular is None:
        raise AssertionError("obstruction localization system unsolvable")
    return particular, kernel_basis(system)


def cor317_check(f: SimplicialMap) -> bool:
    """dim A < m-1 forces theta(f) = 0; vacuous truth is recorded as truth."""
    m = _require_positive_codim1(f)
    si = self_intersection(f)
    if si.dim_A >= m - 1:
        return True
    assert theta(f) == 0, "low-dimensional self-intersection with nonzero obstruction"
    return True


def mv_sequence_check(f: SimplicialMap) -> dict:
    """Ladder-extracted exact sequence in degrees m and m-1.

      H_m(A) -> H_m(M) + H_m(B) -> H_m(f(M)) -> H_{m-1}(A) -> H_{m-1}(M) + H_{m-1}(B)

    with alpha = (j_*, (f|_A)_*) and middle map fbar_* + j''_*; the
    connecting map factors through the chain-level excision bijection
    between relative simplices of (M, A) and (f(M), B).
    """
    m = f.domain.dim
    si = self_intersection(f)
    incl, f_a = self_intersection_maps(f)
    img_cx = image_complex(f)
    M = f.domain
    b = f_a.codomain
    jpp = SimplicialMap("j''", b, img_cx, {v: v for v in b.vertices})
    fbar = SimplicialMap("fbar", M, img_cx, f.vertex_map)

    alpha_m, _ = _restriction_system(f, m)
    alpha_m1, ha_m1 = _restriction_system(f, m - 1)
    fbar_m = induced_on_homology(fbar, m)
    beta_m = fbar_m.hstack(induced_on_homology(jpp, m))
    hi_m = homology_basis(chain_complex(img_cx), m)

    # chain-level excision bijection on relative m-simplices: a cycle on
    # f(M) is projected to relative chains and pulled back to M
    excised = {}
    images = f.images()
    for i, s in enumerate(M.simplices_of_dim(m)):
        if s not in si.A.simplices:
            img_s = images[s]
            assert len(img_s) == m + 1 and img_s not in si.B.simplices, \
                "excision bijection violated"
            assert img_s not in excised, "excision bijection not injective"
            excised[img_s] = i
    a_index = incl.domain.simplex_index(m - 1)
    delta = connecting_map(hi_m, [excised.get(s) for s in img_cx.simplices_of_dim(m)],
                           chain_complex(M).facets[m],
                           [a_index.get(s) for s in M.simplices_of_dim(m - 1)], ha_m1)

    return {
        "exact": exact_at(alpha_m, beta_m) and exact_at(beta_m, delta)
        and exact_at(delta, alpha_m1),
        "fbar_surjective": rank(fbar_m) == hi_m.dim,
        "ker_alpha_dim": ha_m1.dim - rank(alpha_m1),
    }


def final_theorem_check(f: SimplicialMap) -> ObstructionReport:
    """Three-or-more components verdict under A != M, mu != 0, w1(f) = 0."""
    _require_codim1_certificates(f)
    if betti(f.codomain, 1) != 0:
        raise HypothesisError("h1_N_zero")
    rep = obstruction_summary(f)
    for name, holds in (("A_proper", rep.A_proper),
                        ("exists_nonzero_mu", rep.exists_nonzero_mu),
                        ("w1f_zero", rep.w1f_is_zero)):
        if not holds:
            raise HypothesisError(name)
    # intermediate identity from the proof: beta0 = dim H_m(f(M)) + 1
    assert rep.beta0_oracle == rep.dim_Hm_image + 1, "component-count identity violated"
    return rep


def obstruction_summary(f: SimplicialMap) -> ObstructionReport:
    """Full pipeline without the final-theorem hypothesis gate."""
    m = _require_positive_codim1(f)
    uf_zero = dual_class_Uf(f) == 0
    w1f_zero = w1_of_map(f) == 0
    th = theta(f)
    push_ok = theta_pushforward_check(f)
    particular, kernel = mu_solve(f, th)
    exists_nonzero_mu = particular != 0 or bool(kernel)
    a_proper = self_intersection(f).A.simplices != f.domain.simplices
    dim_hm_image = betti(image_complex(f), m)
    oracle = image_components(f)
    predicate = a_proper and exists_nonzero_mu and w1f_zero
    if predicate:
        assert oracle >= 3, "three-components conclusion violated"
    return ObstructionReport(
        theta_is_zero=(th == 0), theta_pushforward_zero=push_ok,
        exists_nonzero_mu=exists_nonzero_mu, predicate_thm_final=predicate,
        beta0_oracle=oracle, dim_Hm_image=dim_hm_image, A_proper=a_proper,
        Uf_is_zero=uf_zero, w1f_is_zero=w1f_zero,
    )
