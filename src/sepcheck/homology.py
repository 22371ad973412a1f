"""Z2 chain complexes, absolute and relative (co)homology, induced maps.

All bases are canonical: simplices are indexed in lexicographic order and
Gaussian elimination is deterministic, so representatives and induced-map
matrices are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2 import (
    BitMatrix,
    Echelon,
    SubspaceBasis,
    column_space_basis,
    kernel_basis,
    rank,
)
from .complexes import Simplex, SimplicialComplex, Subcomplex


class ChainComplexZ2:
    """Simplicial chain complex over GF(2), possibly relative to a subcomplex."""

    def __init__(self, simplices_by_dim: list[list[Simplex]], label: str = ""):
        self.label = label
        self.simplices = simplices_by_dim  # index d -> lex-sorted d-simplices
        self.dim = len(simplices_by_dim) - 1
        self.index = [{s: i for i, s in enumerate(row)} for row in simplices_by_dim]
        self.boundary: list[BitMatrix] = [BitMatrix.zero(0, self.size(0))]
        for d in range(1, self.dim + 1):
            cols = []
            for s in self.simplices[d]:
                col = 0
                for f in combinations(s, d):
                    i = self.index[d - 1].get(f)
                    if i is not None:  # faces inside the subcomplex are quotiented away
                        col ^= 1 << i
                cols.append(col)
            self.boundary.append(BitMatrix.from_columns(self.size(d - 1), cols))
        for d in range(1, self.dim):
            assert self.boundary[d].matmul(self.boundary[d + 1]).is_zero(), "dd != 0"

    def size(self, d: int) -> int:
        return len(self.simplices[d]) if 0 <= d <= self.dim else 0

    def boundary_map(self, d: int) -> BitMatrix:
        """d-th boundary C_d -> C_{d-1}; zero map outside range."""
        if 1 <= d <= self.dim:
            return self.boundary[d]
        if d == 0:
            return BitMatrix.zero(0, self.size(0))
        return BitMatrix.zero(self.size(d - 1), self.size(d))


def chain_complex(k: SimplicialComplex) -> ChainComplexZ2:
    dim = max(k.dim, 0) if k.simplices else -1
    simp = [k.simplices_of_dim(d) for d in range(dim + 1)]
    return ChainComplexZ2(simp, label=k.name)


def relative_chain_complex(k: SimplicialComplex, l: Subcomplex) -> ChainComplexZ2:
    if l.parent is not k and l.parent != k:
        raise ValueError("second argument is not a subcomplex of the first")
    simp = [
        [s for s in k.simplices_of_dim(d) if s not in l.simplices]
        for d in range(k.dim + 1)
    ]
    return ChainComplexZ2(simp, label=f"{k.name}/{l.parent.name}sub")


@dataclass
class HomologyBasis:
    """Cycle representatives spanning H_degree, with coordinate solving."""

    degree: int
    representatives: SubspaceBasis
    boundaries: SubspaceBasis
    n_chains: int

    @property
    def dim(self) -> int:
        return self.representatives.dim

    def coordinates(self, z: int) -> int:
        """Class of the cycle z in this basis (packed vector of length dim).

        Raises if z is not in the cycle-plus-boundary span.
        """
        vecs = self.representatives.vectors + self.boundaries.vectors
        residue, x = Echelon(vecs, track=True).reduce(z)
        if residue:
            raise ValueError("vector is not a cycle representative in this group")
        return x & ((1 << self.dim) - 1)

    def is_zero_class(self, z: int) -> bool:
        return self.coordinates(z) == 0

    def vector(self, coords: int) -> int:
        out = 0
        for i, r in enumerate(self.representatives.vectors):
            if (coords >> i) & 1:
                out ^= r
        return out


CohomologyBasis = HomologyBasis  # same structure, cochain representatives


def _quotient_basis(degree: int, n: int, cycles: SubspaceBasis,
                    boundaries: SubspaceBasis) -> HomologyBasis:
    """Cycles kept greedily, in order, when independent modulo the boundaries."""
    ech = Echelon(boundaries.vectors)
    reps = tuple(z for z in cycles.vectors if ech.add(z)[0])
    return HomologyBasis(degree, SubspaceBasis(n, reps), boundaries, n)


def _empty_basis(c: ChainComplexZ2, degree: int) -> HomologyBasis:
    n = c.size(max(degree, 0))
    return HomologyBasis(degree, SubspaceBasis(n, ()), SubspaceBasis(n, ()), n)


def homology_basis(c: ChainComplexZ2, degree: int) -> HomologyBasis:
    if degree < 0 or degree > c.dim:
        return _empty_basis(c, degree)
    return _quotient_basis(degree, c.size(degree),
                           kernel_basis(c.boundary_map(degree)),
                           column_space_basis(c.boundary_map(degree + 1)))


def cohomology_basis(c: ChainComplexZ2, degree: int) -> CohomologyBasis:
    """Cocycle representatives via transposed boundaries."""
    if degree < 0 or degree > c.dim:
        return _empty_basis(c, degree)
    delta_up = c.boundary_map(degree + 1).transpose()    # C^d -> C^{d+1}
    delta_down = c.boundary_map(degree).transpose()      # C^{d-1} -> C^d
    return _quotient_basis(degree, c.size(degree),
                           kernel_basis(delta_up), column_space_basis(delta_down))


def betti_numbers(c: ChainComplexZ2) -> dict[int, int]:
    out = {}
    for d in range(c.dim + 1):
        out[d] = c.size(d) - rank(c.boundary_map(d)) - rank(c.boundary_map(d + 1))
    return out


def betti(k: SimplicialComplex, degree: int) -> int:
    """Z2 Betti number with per-complex caching (subdivision inherits it)."""
    if degree in k._betti:
        return k._betti[degree]
    if k._betti or not k.simplices:
        return 0  # cache is filled for every degree in range at once
    b = betti_numbers(chain_complex(k))
    k._betti.update(b)
    return b.get(degree, 0)


@dataclass
class InducedMap:
    source: HomologyBasis
    target: HomologyBasis
    matrix: BitMatrix  # target.dim x source.dim

    def apply(self, coords: int) -> int:
        return self.matrix.matvec(coords)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def induced_map_from_chain_matrix(
    f_chain: BitMatrix, source: HomologyBasis, target: HomologyBasis,
) -> InducedMap:
    """Induced map on (co)homology given the chain-level matrix."""
    cols = []
    for z in source.representatives.vectors:
        img = f_chain.matvec(z)
        cols.append(target.coordinates(img))
    return InducedMap(source, target, BitMatrix.from_columns(target.dim, cols))


def induced_on_homology(f, degree: int) -> InducedMap:
    """f_*: H_degree(domain) -> H_degree(codomain) for a simplicial map."""
    from .maps import chain_map
    src = homology_basis(chain_complex(f.domain), degree)
    tgt = homology_basis(chain_complex(f.codomain), degree)
    return induced_map_from_chain_matrix(chain_map(f, degree), src, tgt)


def induced_on_cohomology(f, degree: int) -> InducedMap:
    """f^*: H^degree(codomain) -> H^degree(domain); transpose construction."""
    from .maps import chain_map
    src = cohomology_basis(chain_complex(f.codomain), degree)
    tgt = cohomology_basis(chain_complex(f.domain), degree)
    return induced_map_from_chain_matrix(chain_map(f, degree).transpose(), src, tgt)


# ---------------------------------------------------------------------------
# Long exact sequence of a pair
# ---------------------------------------------------------------------------

def _inclusion_chain_matrix(l: Subcomplex, k: SimplicialComplex, degree: int) -> BitMatrix:
    lsimp = sorted(s for s in l.simplices if len(s) == degree + 1)
    kindex = k.simplex_index(degree)
    cols = [1 << kindex[s] for s in lsimp]
    return BitMatrix.from_columns(len(kindex), cols)


def _projection_chain_matrix(k: SimplicialComplex, rel: ChainComplexZ2, degree: int) -> BitMatrix:
    ksimp = k.simplices_of_dim(degree)
    rindex = rel.index[degree] if degree <= rel.dim else {}
    cols = []
    for s in ksimp:
        i = rindex.get(s)
        cols.append(1 << i if i is not None else 0)
    return BitMatrix.from_columns(rel.size(degree), cols)


def les_pair_check(k: SimplicialComplex, l: Subcomplex) -> bool:
    """Assemble the Z2 long exact sequence of (k, l) and verify exactness.

    The connecting map takes a relative cycle representative, applies the
    absolute boundary of k, and reads the result as a cycle in l.
    """
    if not k.simplices:
        return True
    lk = l.to_complex()
    ck = chain_complex(k)
    cl = chain_complex(lk) if l.simplices else None
    crel = relative_chain_complex(k, l)

    hL = {d: homology_basis(cl, d) if cl else HomologyBasis(d, SubspaceBasis(0, ()), SubspaceBasis(0, ()), 0)
          for d in range(k.dim + 1)}
    hK = {d: homology_basis(ck, d) for d in range(k.dim + 1)}
    hR = {d: homology_basis(crel, d) for d in range(k.dim + 1)}

    # Sequence: 0 -> H_D(L) -> H_D(K) -> H_D(K,L) -> H_{D-1}(L) -> ... -> H_0(K,L) -> 0
    maps = []
    dims = []
    for d in range(k.dim, -1, -1):
        # i_*
        if cl:
            incl = _inclusion_chain_matrix(l, k, d)
            i_star = induced_map_from_chain_matrix(incl, hL[d], hK[d]).matrix
        else:
            i_star = BitMatrix.zero(hK[d].dim, 0)
        dims.append(hL[d].dim)
        maps.append(i_star)
        # p_*
        proj = _projection_chain_matrix(k, crel, d)
        p_star = induced_map_from_chain_matrix(proj, hK[d], hR[d]).matrix
        dims.append(hK[d].dim)
        maps.append(p_star)
        # connecting map
        if d > 0:
            cols = []
            for z in hR[d].representatives.vectors:
                # embed the relative chain into C_d(k)
                zk = 0
                for i, s in enumerate(crel.simplices[d]):
                    if (z >> i) & 1:
                        zk |= 1 << ck.index[d][s]
                bz = ck.boundary_map(d).matvec(zk)
                # the boundary must be supported on l
                zl = 0
                for i, s in enumerate(ck.simplices[d - 1]):
                    if (bz >> i) & 1:
                        if s not in l.simplices:
                            return False
                        zl |= 1 << (cl.index[d - 1][s] if cl else 0)
                cols.append(hL[d - 1].coordinates(zl))
            dims.append(hR[d].dim)
            maps.append(BitMatrix.from_columns(hL[d - 1].dim, cols))
        else:
            dims.append(hR[d].dim)
    # verify exactness at every interior position
    for pos in range(len(dims)):
        incoming = maps[pos - 1] if pos > 0 else None
        outgoing = maps[pos] if pos < len(maps) else None
        middle = dims[pos]
        rk_in = rank(incoming) if incoming is not None else 0
        rk_out = rank(outgoing) if outgoing is not None else 0
        if incoming is not None and outgoing is not None:
            if not outgoing.matmul(incoming).is_zero():
                return False
        if rk_in != middle - rk_out:
            return False
    return True
