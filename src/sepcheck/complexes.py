"""Finite abstract simplicial complexes.

Vertex labels are strings under the global lexicographic order; every
simplex is stored as a sorted tuple of labels and the simplex set is
closed under taking faces.  A complex keeps its d-simplices as one list per
dimension in canonical order: lexicographic for a complex built from
maximal simplices or loaded from a file, build order for a barycentric
subdivision.  Complexes are immutable after construction.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, combinations

from .gf2 import Echelon

Simplex = tuple[str, ...]


def memo(fn):
    """Compute ``fn(x, *args)`` once per object and keep it in ``x._memo``.

    The key is ``(fn, *args)``, so every derived fact of an immutable
    object lives in one place.  A raise is not stored, so a refused check
    raises again, with the same hypothesis name, on every call.  Memoize
    nothing whose result a caller mutates.
    """
    @functools.wraps(fn)
    def memoized(x, *args):
        key = (fn, *args)
        if key not in x._memo:
            x._memo[key] = fn(x, *args)
        return x._memo[key]
    return memoized


class SimplicialComplex:
    """Finite abstract simplicial complex with totally ordered string vertices."""

    def __init__(self, name: str, by_dim: list[list[Simplex]]):
        """Complex whose d-simplices are ``by_dim[d]``, in canonical order.

        The lists are taken as they are: every simplex a sorted tuple, no
        repeats, and the union closed under faces.  Their order is the basis
        order of the chain complex of this complex.  ``from_maximal_simplices`` and
        ``load`` close, check and sort user input first.
        """
        self.name = name
        self._by_dim = by_dim
        self.simplices: frozenset[Simplex] = frozenset(chain.from_iterable(by_dim))
        self.vertices: tuple[str, ...] = tuple(sorted(s[0] for s in by_dim[0])) if by_dim else ()
        self.dim = len(by_dim) - 1
        self._memo = {}  # facts kept by ``memo``; a subdivision starts empty
        # Facts inherited through barycentric subdivision (both are
        # subdivision invariants): certified closed-manifold dimensions
        # and Z2 Betti numbers.
        self._manifold_dims: set[int] = set()
        self._betti: dict[int, int] = {}
        # The complex this one is the barycentric subdivision of, if any; its
        # (co)homology bases are carried from there (``homology``).  Nothing
        # the base holds points back here.
        self.base: SimplicialComplex | None = None

    @staticmethod
    def from_maximal_simplices(name: str, maximal) -> "SimplicialComplex":
        """Complex on the face closure of ``maximal``, each sorted and checked."""
        closure = set()
        for s in {tuple(sorted(s)) for s in maximal}:
            if len(set(s)) != len(s):
                raise ValueError(f"duplicate vertex inside simplex {s}")
            if not s:
                raise ValueError("empty simplex not allowed")
            for d in range(1, len(s) + 1):
                closure.update(combinations(s, d))
        return SimplicialComplex(name, sorted_by_dim(closure))

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        """The d-simplices in canonical (basis) order."""
        return self._by_dim[d] if 0 <= d <= self.dim else []

    @memo
    def simplex_index(self, d: int) -> dict[Simplex, int]:
        return {s: i for i, s in enumerate(self.simplices_of_dim(d))}

    @memo
    def _stars(self) -> dict[str, list[Simplex]]:
        """Vertex -> the simplices that contain it."""
        star: dict[str, list[Simplex]] = {v: [] for v in self.vertices}
        for t in chain.from_iterable(self._by_dim):
            for v in t:
                star[v].append(t)
        return star

    def _cofaces(self, s: Simplex):
        """Simplices strictly containing the simplex ``s`` of this complex.

        Scans the star of the vertex of ``s`` that lies in the fewest
        simplices, through the per-vertex star index.
        """
        stars = self._stars()
        sset = set(s)
        for t in min((stars[v] for v in s), key=len):
            if len(t) > len(s) and sset.issubset(t):
                yield t

    def maximal_simplices(self) -> list[Simplex]:
        return sorted(s for s in self.simplices if next(self._cofaces(s), None) is None)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.name == other.name
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.name, self.simplices))

    def __repr__(self):
        return f"SimplicialComplex({self.name!r}, dim={self.dim}, #simplices={len(self.simplices)})"

    # -- file format --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "maximal_simplices": [list(s) for s in self.maximal_simplices()],
        }

    @staticmethod
    def from_json_dict(d) -> "SimplicialComplex":
        """Complex from ``{"name": str, "maximal_simplices": [[str, ...], ...]}``.

        Any other shape raises ValueError, so a malformed file is an input
        error rather than a crash or a silently reinterpreted complex.
        """
        if not isinstance(d, dict) or not isinstance(d.get("name"), str):
            raise ValueError("complex file must be a JSON object with a string 'name'")
        maximal = d.get("maximal_simplices")
        if not isinstance(maximal, list) or not all(
                isinstance(s, list) and s and all(isinstance(v, str) for v in s)
                for s in maximal):
            raise ValueError(f"'maximal_simplices' of {d['name']!r} must be a list "
                             "of non-empty lists of string vertex labels")
        return SimplicialComplex.from_maximal_simplices(d["name"], maximal)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SimplicialComplex":
        return SimplicialComplex.from_json_dict(read_json(path))


def read_json(path):
    """The JSON value in the file at ``path``; nesting too deep to parse is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def sorted_by_dim(simplices) -> list[list[Simplex]]:
    """Face-closed sorted tuples as per-dimension lists, each sorted."""
    top = max(map(len, simplices), default=0)
    return [sorted(s for s in simplices if len(s) == size) for size in range(1, top + 1)]


class Subcomplex:
    """A face-closed subset of a parent complex's simplices; immutable."""

    def __init__(self, parent: SimplicialComplex, simplices):
        simps = frozenset(tuple(sorted(s)) for s in simplices)
        for s in simps:
            if s not in parent.simplices:
                raise ValueError(f"{s} is not a simplex of {parent.name}")
            for d in range(1, len(s)):
                for f in combinations(s, d):
                    if f not in simps:
                        raise ValueError(f"subcomplex not face-closed at {f}")
        self.parent = parent
        self.simplices = simps
        self.dim = max((len(s) - 1 for s in simps), default=-1)
        self._memo = {}

    @staticmethod
    def closure(parent: SimplicialComplex, simplices) -> "Subcomplex":
        full = set()
        for s in simplices:
            s = tuple(sorted(s))
            for d in range(1, len(s) + 1):
                full.update(combinations(s, d))
        return Subcomplex(parent, full)

    def to_complex(self, name: str | None = None) -> SimplicialComplex:
        return SimplicialComplex(name or f"{self.parent.name}|sub", sorted_by_dim(self.simplices))

    def is_empty(self) -> bool:
        return not self.simplices

    def __eq__(self, other):
        return (
            isinstance(other, Subcomplex)
            and self.parent == other.parent
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.parent.name, self.simplices))


def _count_components(nodes, links) -> int:
    """Components of the graph on ``nodes`` with edges ``links``, by union-find."""
    parent = {v: v for v in nodes}
    count = len(parent)
    for a, b in links:
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            count -= 1
    return count


def barycenter_label(s: Simplex) -> str:
    return "⟨" + ".".join(s) + "⟩"


def barycentric_subdivide(k: SimplicialComplex):
    """First barycentric subdivision.

    Returns (Sd(k), dictionary new-vertex-label -> original simplex).
    A simplex of Sd(k) is the set of barycenters of a chain s_0 < ... < s_j
    of simplices of k.  The simplices s are walked in the canonical order
    of k, dimension by dimension, and the chains ending at s are built in
    one pass over the chains ending at its proper faces, each as a
    label-sorted tuple, so every simplex of Sd(k) is made once and never
    sorted again.  The barycenter of s is put in front when its label sorts
    before the first label of the chain, as it usually does (a coface's
    label sorts before its face's), and the tuple is sorted otherwise.
    Each chain is listed under its dimension in the order it is built,
    which is the canonical order of Sd(k) and the same under any hash seed.
    So vertex j of Sd(k) is the barycenter of the j-th simplex of k, and the
    (d+1)! full flags of the i-th d-simplex of k sit at positions
    [i (d+1)!, (i+1) (d+1)!) of the d-simplices of Sd(k): ``homology`` reads
    both to carry the (co)homology bases of k, kept as ``Sd(k).base``.
    Each barycenter label is built once and shared by every simplex of Sd(k)
    that contains it, so the set build and lookups on Sd(k) reuse one
    cached string hash and compare equal labels by identity.  Raises
    ValueError when two simplices of k get the same label.
    """
    label = {s: barycenter_label(s) for row in k._by_dim for s in row}
    vertex_of = {b: s for s, b in label.items()}
    if len(vertex_of) != len(label):
        clash = next(b for s, b in label.items() if vertex_of[b] != s)
        raise ValueError(f"two simplices of {k.name} share the barycenter label {clash!r}")
    by_dim: list[list[Simplex]] = [[] for _ in k._by_dim]
    ending: dict[Simplex, list[Simplex]] = {}
    for d, row in enumerate(k._by_dim):
        for s in row:
            b = label[s]
            bt = (b,)
            chains = [bt + c if b < c[0] else tuple(sorted(c + bt))
                      for j in range(1, d + 1) for f in combinations(s, j) for c in ending[f]]
            chains.append(bt)
            ending[s] = chains
            for c in chains:
                by_dim[len(c) - 1].append(c)
    sd = SimplicialComplex(f"Sd({k.name})", by_dim)
    sd._manifold_dims = set(k._manifold_dims)
    sd._betti = dict(k._betti)
    sd.base = k
    return sd, vertex_of


def complementary_complex(k: SimplicialComplex, f: Subcomplex) -> Subcomplex:
    """Full subcomplex of Sd(k) on barycenters of simplices outside f.

    Its body deformation retracts onto |k| - |f|.
    """
    if f.parent is not k and f.parent != k:
        raise ValueError("subcomplex does not belong to the given complex")
    sd, vertex_of = barycentric_subdivide(k)
    banned = {barycenter_label(s) for s in f.simplices}
    chosen = [s for s in sd.simplices if not any(v in banned for v in s)]
    return Subcomplex(sd, chosen)


def link(k: SimplicialComplex, s) -> SimplicialComplex:
    """Link of ``s``: the simplices t with t ∩ s = ∅ and t ∪ s in k.

    Those are exactly the differences t' - s over the cofaces t' of s, so
    the cost is the size of one vertex star, not of the whole complex.
    """
    s = tuple(sorted(s))
    if s not in k.simplices:
        raise ValueError(f"{s} is not a simplex of {k.name}")
    sset = set(s)
    out = [tuple(v for v in t if v not in sset) for t in k._cofaces(s)]
    return SimplicialComplex(f"lk({k.name},{'.'.join(s)})", sorted_by_dim(out))


def _link_betti(cof, dim: int, i: int) -> tuple[int, int, int]:
    """Z2 Betti numbers (beta0, beta1, beta2) of the link of a simplex s.

    s is simplex i of dimension ``dim`` of a complex whose cofacet lists
    are ``cof`` (``ChainComplexZ2.cofacets``), and its link has dimension
    at most 2.  A face t - s of the link is a coface t of s: its vertices
    are the cofacets of s, its edges their cofacets, each containing
    exactly 2 link vertices, and its triangles the edges' cofacets, each
    containing exactly 3 link edges, which pack its boundary.  beta0
    counts components and r, the GF(2) rank of the boundary of the
    triangles over the edges, gives beta1 = E - V + beta0 - r and
    beta2 = F - r.
    """
    verts, edges_of = cof[dim][i], cof[dim + 1]
    ends: dict[int, list[int]] = {}  # link edge -> its two link vertices
    for t in verts:
        for e in edges_of[t]:
            ends.setdefault(e, []).append(t)
    if not ends:  # the link is a set of points
        return len(verts), 0, 0
    tris_of = cof[dim + 2]
    tris: dict[int, int] = {}  # link triangle -> its packed boundary
    for bit, e in enumerate(ends):
        for t in tris_of[e]:
            tris[t] = tris.get(t, 0) | 1 << bit
    b0 = _count_components(verts, ends.values())
    r = len(Echelon(tris.values()).rows)
    return b0, len(ends) - len(verts) + b0 - r, len(tris) - r


_SPHERE_BETTI = {0: (2, 0, 0), 1: (1, 1, 0), 2: (1, 0, 1)}


def manifold_certificate(k: SimplicialComplex, n: int):
    """Closed Z2-homology n-manifold check.

    Every simplex s below the top dimension must have a link with the
    Z2-reduced homology of a sphere of dimension n - |s|.  That also makes
    k pure (a simplex in no n-simplex has an empty or too-low link) and
    gives every (n-1)-simplex exactly two cofacets (its link is the set of
    their opposite vertices).  Returns a dict verdict with the violating
    simplices in the canonical order of k, dimension by dimension.

    Links of dimension at most 2 (those of simplices of codimension 1, 2
    and 3) are read by ``_link_betti`` off the cofacet lists of the chain
    complex of k, which the (co)homology of k then reuses: a component
    count and one GF(2) rank.  Only links of dimension 3 and more, which
    no closed 3-manifold has, get a link complex and a chain complex.  A
    pass is kept on k, and inherited by its subdivisions.
    """
    from .homology import chain_complex, betti_numbers

    if k.dim != n or not k.simplices:
        return {"is_closed_z2_homology_n_manifold": False,
                "failures": sorted(k.simplices, key=lambda s: (len(s), s))[:1]}

    cof = chain_complex(k).cofacets()
    failures = []
    for dim in range(n):  # an n-simplex has no cofaces, so its link is empty
        d = n - 1 - dim  # expected sphere dimension of the link
        for i, s in enumerate(k.simplices_of_dim(dim)):
            if d <= 2:
                ok = _link_betti(cof, dim, i) == _SPHERE_BETTI[d]
            else:
                lk_s = link(k, s)
                ok = bool(lk_s.simplices)
                if ok:
                    b = betti_numbers(chain_complex(lk_s))
                    want = [1] + [0] * max(lk_s.dim, d)
                    want[d] = 1
                    ok = [b.get(j, 0) for j in range(len(want))] == want
            if not ok:
                failures.append(s)

    if not failures:
        k._manifold_dims.add(n)
    return {"is_closed_z2_homology_n_manifold": not failures, "failures": failures}


@memo
def is_certified_manifold(k: SimplicialComplex, n: int) -> bool:
    """Certificate, computed once per (k, n); subdivisions inherit a pass only."""
    return (n in k._manifold_dims
            or manifold_certificate(k, n)["is_closed_z2_homology_n_manifold"])
