"""Z2 chain complexes, absolute and relative (co)homology, induced maps.

A chain complex keeps the facet index list of every simplex: its boundary
columns are packed from them, and d d = 0 is checked by XORing, for each
simplex, the columns its list names.  Their transpose, the cofacet lists,
is built once on first use; the coboundary columns are packed from it, and
the manifold certificate reads its links off it.  Each degree is reduced at
most once per direction, on first use, keeping only its representatives
and pivot indices: a clearing reduction of the boundaries for homology and
of the coboundaries for cohomology (Chen & Kerber's "twist"; de Silva,
Morozov & Vejdemo-Johansson for the dual).  A basis inverts the Kronecker
pairing of its representatives with those of the other direction into
duals, so a coordinate is one dot product per dual, and a pairing that is
not invertible fails an assertion.  A caller that only iterates cocycle
representatives reads ``cocycles``, which reduces nothing when the Betti
number of that degree is 0 (over Z2, dim H^d = dim H_d).  The chain complex
of a ``SimplicialComplex`` is itself cached on the complex.

All bases are canonical: simplices are indexed in the canonical order of
their complex (``SimplicialComplex.simplices_of_dim``) and the reduction is
deterministic, so representatives and induced maps are reproducible across
runs.  An induced map is a ``BitMatrix`` whose column i holds the
coordinates of the image of source representative i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

from .gf2 import BitMatrix, Echelon, dot, exact_at, inverse, vec_from_bits
from .complexes import Simplex, SimplicialComplex, Subcomplex, memo
from .maps import chain_map, inclusion


def _pack(indices) -> int:
    """The packed vector with the bits ``indices`` set."""
    v = 0
    for i in indices:
        v |= 1 << i
    return v


_BIT = bytes.maketrans(b"01", b"\0\1")


def odd_faces(lists, z: int) -> set[int]:
    """The indices named an odd number of times by the lists that z selects:
    none when z is a cycle (facet lists) or a cocycle (cofacet lists).  One
    ``bin`` string of z keeps it linear; a ``z & -z`` loop is quadratic."""
    odd = set()
    for f in compress(lists, bin(z)[:1:-1].encode().translate(_BIT)):
        odd.symmetric_difference_update(f)
    return odd


class ChainComplexZ2:
    """Simplicial chain complex over GF(2), possibly relative to a subcomplex.

    ``facets[d][j]`` lists the positions in ``simplices[d - 1]`` of the
    facets of simplex j of dimension d, in ``combinations`` order, and
    ``boundary[d]`` packs each list as a column; ``cofacets()`` is the
    transpose of the lists.
    """

    def __init__(self, simplices_by_dim: list[list[Simplex]],
                 index: list[dict[Simplex, int]]):
        self.simplices = simplices_by_dim  # index d -> d-simplices in canonical order
        self.dim = len(simplices_by_dim) - 1
        self.index = index  # index d -> position of each d-simplex in simplices[d]
        self.facets: list[list[tuple[int, ...]]] = [[()] * self.size(0)]
        self.boundary: list[BitMatrix] = [BitMatrix.zero(0, self.size(0))]
        for d in range(1, self.dim + 1):
            get = self.index[d - 1].get
            facets = []
            for s in self.simplices[d]:
                f = tuple(map(get, combinations(s, d)))
                if None in f:  # faces inside the subcomplex are quotiented away
                    f = tuple(i for i in f if i is not None)
                facets.append(f)
            self.facets.append(facets)
            self.boundary.append(BitMatrix(self.size(d - 1), len(facets), tuple(map(_pack, facets))))
        for d in range(1, self.dim):  # each (d+1)-simplex XORs the d-columns it names
            cols = self.boundary[d].data
            for f in self.facets[d + 1]:
                col = 0
                for i in f:
                    col ^= cols[i]
                assert not col, "dd != 0"
        self._memo = {}

    @memo
    def cofacets(self) -> list[list[tuple[int, ...]]]:
        """``cofacets()[d][i]``: the positions in ``simplices[d + 1]``, ascending,
        of the simplices whose facet list names simplex i of dimension d."""
        out = []
        for d in range(self.dim + 1):
            cof = [[] for _ in range(self.size(d))]
            for j, f in enumerate(self.facets[d + 1] if d < self.dim else ()):
                for i in f:
                    cof[i].append(j)
            out.append(list(map(tuple, cof)))
        return out

    def size(self, d: int) -> int:
        return len(self.simplices[d]) if 0 <= d <= self.dim else 0

    def boundary_map(self, d: int) -> BitMatrix:
        """d-th boundary C_d -> C_{d-1}; zero map outside range."""
        if 1 <= d <= self.dim:
            return self.boundary[d]
        if d == 0:
            return BitMatrix.zero(0, self.size(0))
        return BitMatrix.zero(self.size(d - 1), self.size(d))


@memo
def chain_complex(k: SimplicialComplex) -> ChainComplexZ2:
    """The chain complex of k, built on first use and cached on k.

    It indexes the simplices with k's own ``simplex_index`` tables.
    """
    dim = max(k.dim, 0) if k.simplices else -1
    return ChainComplexZ2([k.simplices_of_dim(d) for d in range(dim + 1)],
                          [k.simplex_index(d) for d in range(dim + 1)])


def relative_chain_complex(k: SimplicialComplex, l: Subcomplex) -> ChainComplexZ2:
    if l.parent is not k and l.parent != k:
        raise ValueError("second argument is not a subcomplex of the first")
    simp = [
        [s for s in k.simplices_of_dim(d) if s not in l.simplices]
        for d in range(k.dim + 1)
    ]
    return ChainComplexZ2(simp, [{s: i for i, s in enumerate(row)} for row in simp])


@dataclass
class HomologyBasis:
    """(Co)cycle representatives spanning a (co)homology group, and their duals.

    ``duals[i]`` pairs to 1 with ``representatives[i]``, and to 0 with the
    other representatives and with every (co)boundary.  ``lists`` are the
    facet lists of the degree (the cofacet lists for cohomology).
    """

    representatives: tuple[int, ...]
    duals: tuple[int, ...]
    lists: list[tuple[int, ...]]

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, z: int) -> int:
        """Class of the (co)cycle z in this basis (packed vector of length dim).

        Raises if z is wider than the degree or is not a (co)cycle.
        """
        if z >> len(self.lists) or odd_faces(self.lists, z):
            raise ValueError("vector is not a cycle representative in this group")
        return vec_from_bits(dot(x, z) for x in self.duals)


@memo
def _clearing_reduction(c: ChainComplexZ2, cohomology: bool, d: int) -> tuple:
    """(Co)cycle representatives of degree d, and the pivots of its reduced columns.

    Homology reduces the columns of d_d and cohomology those of the
    coboundary delta^d (row i of d_{d+1} is column i of delta^d).  The
    columns are visited in decreasing index order, each reduced only while
    its lowest bit is a pivot (``Echelon.add``), and column j is skipped
    when j is a pivot of the degree before, d+1 for homology and d-1 for
    cohomology: that reduced column is a (co)cycle whose bit j is its
    lowest, so column j is a sum of columns with larger index, already
    reduced, and would reduce to zero (Chen & Kerber's clearing).  The
    tracked combinations of the other zero columns are the representatives;
    each has its own column as pivot, distinct from the pivots of the degree
    before, which are those of a basis of the (co)boundaries.
    """
    before = d - 1 if cohomology else d + 1
    cleared = _clearing_reduction(c, cohomology, before)[1] if 0 <= before <= c.dim else ()
    # column i of delta^d packs the cofacets of simplex i
    cols = list(map(_pack, c.cofacets()[d])) if cohomology else c.boundary_map(d).data
    ech = Echelon(track=True)
    reps = []
    for j in range(c.size(d) - 1, -1, -1):
        if j not in cleared:
            row, combo = ech.add(cols[j], 1 << j)
            if not row:
                reps.append(combo)
    reps.reverse()
    return tuple(reps), frozenset(ech.rows)


@memo
def _basis(c: ChainComplexZ2, cohomology: bool, d: int) -> HomologyBasis:
    """The basis of degree d, its duals combined from the other direction.

    A (co)cycle of the other direction pairs to 0 with every (co)boundary,
    and P[k][j] = <other_k, rep_j> is invertible exactly when both sets are
    independent modulo the (co)boundaries and equally many.  Row i of P^-1
    combines the other representatives into dual i.
    """
    if not 0 <= d <= c.dim:
        return HomologyBasis((), (), ())
    lists = c.cofacets()[d] if cohomology else c.facets[d]
    reps = _clearing_reduction(c, cohomology, d)[0]
    if not reps:
        return HomologyBasis((), (), lists)
    other = _clearing_reduction(c, not cohomology, d)[0]
    pinv = inverse(BitMatrix(len(other), len(reps), tuple(
        vec_from_bits(dot(x, z) for x in other) for z in reps)))
    assert pinv is not None, "the (co)homology pairing is not invertible"
    duals = map(BitMatrix(c.size(d), len(other), other).matvec, pinv.transpose().data)
    return HomologyBasis(reps, tuple(duals), lists)


def homology_basis(c: ChainComplexZ2, degree: int) -> HomologyBasis:
    return _basis(c, False, degree)


def cohomology_basis(c: ChainComplexZ2, degree: int) -> HomologyBasis:
    """Cocycle representatives, from the reduction of the coboundaries."""
    return _basis(c, True, degree)


def betti_numbers(c: ChainComplexZ2) -> dict[int, int]:
    """Z2 Betti numbers, asserted to have the alternating sum of the simplex counts."""
    b = {d: len(_clearing_reduction(c, False, d)[0]) for d in range(c.dim + 1)}
    assert sum((-1) ** d * (v - c.size(d)) for d, v in b.items()) == 0, \
        "Betti numbers miss the Euler characteristic"
    return b


def betti(k: SimplicialComplex, degree: int) -> int:
    """Z2 Betti number with per-complex caching (subdivision inherits it)."""
    if degree in k._betti:
        return k._betti[degree]
    if k._betti or not k.simplices:
        return 0  # cache is filled for every degree in range at once
    b = betti_numbers(chain_complex(k))
    k._betti.update(b)
    return b.get(degree, 0)


def cocycles(k: SimplicialComplex, degree: int) -> tuple[int, ...]:
    """The cocycle representatives of the canonical basis of H^degree(k).

    Over Z2, dim H^d = dim H_d, so a zero Betti number means an empty basis
    and the coboundaries of k are not reduced; any other is asserted to
    count the representatives.  Only for a caller that iterates them:
    expressing a cocycle in the basis needs ``cohomology_basis``.
    """
    b = betti(k, degree)
    if b == 0:
        return ()
    reps = _clearing_reduction(chain_complex(k), True, degree)[0]
    assert len(reps) == b, "cocycle count differs from the Betti number"
    return reps


def induced_map_from_chain_matrix(
    f_chain: BitMatrix, source: tuple[int, ...], target: HomologyBasis,
) -> BitMatrix:
    """Induced map on (co)homology given the chain-level matrix.

    Column i holds the coordinates in ``target`` of the image of the
    representative ``source[i]``.
    """
    cols = tuple(target.coordinates(f_chain.matvec(z)) for z in source)
    return BitMatrix(target.dim, len(source), cols)


def induced_on_homology(f, degree: int) -> BitMatrix:
    """f_*: H_degree(domain) -> H_degree(codomain) for a simplicial map."""
    src = homology_basis(chain_complex(f.domain), degree)
    tgt = homology_basis(chain_complex(f.codomain), degree)
    return induced_map_from_chain_matrix(chain_map(f, degree), src.representatives, tgt)


def induced_on_cohomology(f, degree: int) -> BitMatrix:
    """f^*: H^degree(codomain) -> H^degree(domain); transpose construction.

    The source is only iterated, so it is read through ``cocycles``; the
    target pairs each pulled-back cocycle with the duals of the domain's
    basis, so it is the full ``cohomology_basis``.
    """
    pull = chain_map(f, degree).transpose()
    tgt = cohomology_basis(chain_complex(f.domain), degree)
    return induced_map_from_chain_matrix(pull, cocycles(f.codomain, degree), tgt)


# ---------------------------------------------------------------------------
# Exact sequences: the connecting map and the long exact sequence of a pair
# ---------------------------------------------------------------------------

def connecting_map(source: HomologyBasis, lift, boundary: BitMatrix, read,
                   target: HomologyBasis) -> BitMatrix:
    """Connecting map from relative classes to classes on the subcomplex.

    Each representative of ``source`` is lifted to an absolute chain
    (``lift[i]`` is the absolute index of relative simplex i, None to drop
    it), its absolute ``boundary`` is taken, and the result is read on the
    subcomplex (``read[j]`` is the subcomplex index of face j, None outside
    it) and expressed in ``target``.
    """
    cols = []
    for z in source.representatives:
        zk = 0
        for i, a in enumerate(lift):
            if (z >> i) & 1 and a is not None:
                zk |= 1 << a
        bz = boundary.matvec(zk)
        zl = 0
        for j, b in enumerate(read):
            if (bz >> j) & 1:
                assert b is not None, "connecting chain escapes the subcomplex"
                zl |= 1 << b
        cols.append(target.coordinates(zl))
    return BitMatrix(target.dim, source.dim, tuple(cols))


def _projection_chain_matrix(k: SimplicialComplex, rel: ChainComplexZ2, degree: int) -> BitMatrix:
    ksimp = k.simplices_of_dim(degree)
    rindex = rel.index[degree] if degree <= rel.dim else {}
    cols = []
    for s in ksimp:
        i = rindex.get(s)
        cols.append(1 << i if i is not None else 0)
    return BitMatrix(rel.size(degree), len(cols), tuple(cols))


def les_pair_check(k: SimplicialComplex, l: Subcomplex) -> bool:
    """Assemble the Z2 long exact sequence of (k, l) and verify exactness.

    The absolute boundary of a relative cycle lies in l, so the connecting
    map is always defined.
    """
    if not k.simplices:
        return True
    i = inclusion(l)
    ck, cl = chain_complex(k), chain_complex(i.domain)
    crel = relative_chain_complex(k, l)
    # 0 -> H_D(L) -> H_D(K) -> H_D(K,L) -> H_{D-1}(L) -> ... -> H_0(K,L) -> 0
    maps = [BitMatrix.zero(homology_basis(cl, k.dim).dim, 0)]
    for d in range(k.dim, -1, -1):
        proj = _projection_chain_matrix(k, crel, d)
        h_rel = homology_basis(crel, d)
        maps += [induced_on_homology(i, d),
                 induced_map_from_chain_matrix(proj, homology_basis(ck, d).representatives, h_rel)]
        if d > 0:
            kindex, lindex = k.simplex_index(d), i.domain.simplex_index(d - 1)
            maps.append(connecting_map(
                h_rel, [kindex[s] for s in crel.simplices[d]], ck.boundary_map(d),
                [lindex.get(s) for s in k.simplices_of_dim(d - 1)], homology_basis(cl, d - 1)))
    maps.append(BitMatrix.zero(0, maps[-1].rows))
    return all(exact_at(a, b) for a, b in zip(maps, maps[1:]))
