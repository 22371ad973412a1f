"""Z2 chain complexes, absolute and relative (co)homology, induced maps.

A chain complex keeps the facet index list of every simplex: its boundary
columns are packed from them, and d d = 0 is checked by XORing, for each
simplex, the columns its list names.  Their transpose, the cofacet lists,
is built once on first use; the coboundary columns are packed from it, and
the manifold certificate reads its links off it.  Each chain complex is
reduced at most once per direction, on first use, and the result is cached
on it: one clearing reduction of the boundaries for homology and one of the
coboundaries for cohomology (Chen & Kerber's "twist"; de Silva, Morozov &
Vejdemo-Johansson for the dual).  A basis is a tuple of representatives
with the echelon of them and the boundaries, its rows keyed by pivot index,
so a coordinate is one reduction.  A caller that only iterates cocycle
representatives reads ``cocycles``, which returns none without reducing the
coboundaries when the Betti number of that degree is 0 (over Z2,
dim H^d = dim H_d); expressing a cocycle in a basis still needs
``cohomology_basis``.  The chain complex of a ``SimplicialComplex`` is
itself cached on the complex.

All bases are canonical: simplices are indexed in the canonical order of
their complex (``SimplicialComplex.simplices_of_dim``) and the reduction is
deterministic, so representatives and induced maps are reproducible across
runs.  An induced map is a ``BitMatrix`` whose column i holds the
coordinates of the image of source representative i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .gf2 import BitMatrix, Echelon, exact_at
from .complexes import Simplex, SimplicialComplex, Subcomplex, memo
from .maps import chain_map, inclusion


def _pack(indices) -> int:
    """The packed vector with the bits ``indices`` set."""
    v = 0
    for i in indices:
        v |= 1 << i
    return v


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
    """Cycle representatives spanning a homology group, with coordinate solving.

    ``echelon`` holds the representatives and the boundaries, each row
    keyed by its pivot index; a representative's row records its own
    coordinate and a boundary's records 0.
    """

    representatives: tuple[int, ...]
    echelon: Echelon = field(default_factory=lambda: Echelon(track=True))

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, z: int) -> int:
        """Class of the cycle z in this basis (packed vector of length dim).

        Raises if z is not in the cycle-plus-boundary span.
        """
        residue, x = self.echelon.reduce(z)
        if residue:
            raise ValueError("vector is not a cycle representative in this group")
        return x


@memo
def _clearing_reduction(c: ChainComplexZ2, cohomology: bool) -> list[HomologyBasis]:
    """(Co)homology bases of every degree from one reduction with clearing.

    Homology reduces the columns of d_D, ..., d_1 from the top down and
    cohomology the columns of the coboundaries delta^0, ..., delta^D (row i
    of d_{d+1} is column i of delta^d) from the bottom up.  Within a degree
    the columns are visited in decreasing index order, each reduced only
    while its lowest bit is a pivot (``Echelon.add``), and column j is
    skipped when j is the pivot of a reduced column of the step before:
    that reduced column is a (co)cycle whose bit j is its lowest, so column
    j is a sum of columns with larger index, already reduced, and would
    reduce to zero (Chen & Kerber's clearing).  The tracked combinations of
    the other zero columns are the representatives; each has its own column
    as pivot, distinct from the pivots of the reduced columns of the step
    before, which span the (co)boundaries.
    """
    bases: list[HomologyBasis] = [None] * (c.dim + 1)
    boundaries = Echelon()  # reduced columns of the step before
    for d in (range(c.dim + 1) if cohomology else range(c.dim, -1, -1)):
        n = c.size(d)
        # column i of delta^d packs the cofacets of simplex i
        cols = list(map(_pack, c.cofacets()[d])) if cohomology else c.boundary_map(d).data
        cleared = boundaries.rows
        ech = Echelon(track=True)
        reps = []
        for j in range(n - 1, -1, -1):
            if j not in cleared:
                row, combo = ech.add(cols[j], 1 << j)
                if not row:
                    reps.append(combo)
        reps.reverse()
        basis = Echelon(track=True)
        basis.rows.update(cleared)
        basis.combos.update(dict.fromkeys(cleared, 0))
        for i, z in enumerate(reps):
            j = (z & -z).bit_length() - 1
            basis.rows[j] = z
            basis.combos[j] = 1 << i
        bases[d] = HomologyBasis(tuple(reps), basis)
        boundaries = ech
    return bases


def homology_basis(c: ChainComplexZ2, degree: int) -> HomologyBasis:
    if degree < 0 or degree > c.dim:
        return HomologyBasis(())
    return _clearing_reduction(c, False)[degree]


def cohomology_basis(c: ChainComplexZ2, degree: int) -> HomologyBasis:
    """Cocycle representatives, from the reduction of the coboundaries."""
    if degree < 0 or degree > c.dim:
        return HomologyBasis(())
    return _clearing_reduction(c, True)[degree]


def betti_numbers(c: ChainComplexZ2) -> dict[int, int]:
    """Z2 Betti numbers: the dims of the cached homology bases."""
    return {d: homology_basis(c, d).dim for d in range(c.dim + 1)}


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
    and the coboundaries of k are not reduced.  Only for a caller that
    iterates the representatives: expressing a cocycle in the basis needs
    the coboundary echelon of ``cohomology_basis``.
    """
    if betti(k, degree) == 0:
        return ()
    return cohomology_basis(chain_complex(k), degree).representatives


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
    target reduces each pulled-back cocycle against the coboundaries of the
    domain, so it is the full ``cohomology_basis``.
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
