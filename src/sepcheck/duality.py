"""Fundamental classes, cup/cap products, duality checks, Bockstein, w1.

Cochains are packed GF(2) vectors over the canonically ordered simplex
basis of their degree.  They stay inside this module: ``cap_matrix`` is cap
with [k] between the canonical (co)homology bases, and ``poincare_dual`` and
``w1`` return coordinates in them.  Cup and cap use the front-face/back-face
formulas in the global vertex order; the conventions are paired so that
<x cup y, c> = <x, y cap c> holds on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .gf2 import BitMatrix, bits_of, dot, kernel_basis, rank, solve, vec_from_bits
from .complexes import (
    SimplicialComplex,
    Subcomplex,
    complementary_complex,
    is_certified_manifold,
    memo,
)
from .homology import (
    chain_complex,
    cocycles,
    cohomology_basis,
    homology_basis,
    odd_faces,
    relative_chain_complex,
    betti_numbers,
)


@dataclass
class CohomologyClass:
    complex: SimplicialComplex
    degree: int
    cocycle: int  # packed cochain representative


def is_cocycle(x: CohomologyClass) -> bool:
    """delta x = 0: the cofacet lists of the simplices that x selects name
    every (degree+1)-simplex an even number of times."""
    c = chain_complex(x.complex)
    return x.degree >= c.dim or not odd_faces(c.cofacets()[x.degree], x.cocycle)


@memo
def fundamental_class(k: SimplicialComplex, n: int) -> int:
    """Z2 fundamental class: the sum of all n-simplices, verified a cycle.

    Returns the chain, packed over the canonical basis of the n-simplices, and
    keeps it on k, so the check runs once per complex and dimension.
    """
    if not is_certified_manifold(k, n):
        raise ValueError(f"{k.name} is not a certified closed {n}-manifold")
    chain = (1 << len(k.simplices_of_dim(n))) - 1
    assert not odd_faces(chain_complex(k).facets[n], chain), "fundamental chain is not a cycle"
    return chain


def cup(x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
    """Alexander-Whitney cup product on representatives."""
    if x.complex != y.complex:
        raise ValueError("cup product needs classes on the same complex")
    k = x.complex
    p, q = x.degree, y.degree
    xi, yi = k.simplex_index(p), k.simplex_index(q)
    xb, yb = bits_of(x.cocycle, len(xi)), bits_of(y.cocycle, len(yi))
    out = [xb[xi[s[: p + 1]]] & yb[yi[s[p:]]] for s in k.simplices_of_dim(p + q)]
    return CohomologyClass(k, p + q, vec_from_bits(out))


def cap(x: CohomologyClass, chain: int, n: int) -> int:
    """x cap c for a degree-n chain; evaluates x on back faces.

    Returns a packed chain of degree n - p.
    """
    k = x.complex
    p = x.degree
    if p > n:
        raise ValueError("cap degree exceeds chain degree")
    xi = k.simplex_index(p)
    xb = bits_of(x.cocycle, len(xi))
    out_index = k.simplex_index(n - p)
    out = bytearray(len(out_index))
    simplices = k.simplices_of_dim(n)
    for s in compress(simplices, bits_of(chain, len(simplices))):
        if xb[xi[s[n - p:]]]:
            out[out_index[s[: n - p + 1]]] ^= 1
    return vec_from_bits(out)


def evaluate(x: CohomologyClass, chain: int) -> int:
    """Kronecker pairing <x, c> over Z2 (chain in degree of x)."""
    return dot(x.cocycle, chain)


def cap_matrix(k: SimplicialComplex, n: int, d: int) -> BitMatrix:
    """Matrix of cap-with-[k]: H^{n-d} -> H_d in the canonical bases."""
    fc = fundamental_class(k, n)
    hho = homology_basis(chain_complex(k), d)
    cols = [hho.coordinates(cap(CohomologyClass(k, n - d, rep), fc, n))
            for rep in cocycles(k, n - d)]
    return BitMatrix(hho.dim, len(cols), tuple(cols))


def poincare_dual(k: SimplicialComplex, n: int, h_coords: int, degree: int) -> int:
    """Coordinates in H^{n-degree}(k) of the class alpha with alpha cap [k] = h."""
    a = solve(cap_matrix(k, n, degree), h_coords)
    if a is None:
        raise RuntimeError("duality system inconsistent; input is not a closed manifold")
    return a


def poincare_duality_check(k: SimplicialComplex, n: int) -> bool:
    """Cap with [k] is an isomorphism H^d -> H_{n-d} in every degree."""
    for d in range(n + 1):
        mat = cap_matrix(k, n, n - d)
        if mat.rows != mat.cols or rank(mat) != mat.cols:
            return False
    return True


def alexander_duality_check(k: SimplicialComplex, n: int, b: Subcomplex) -> bool:
    """dim H^{n-i}(b) = dim H_i(Sd(k), complement of b) for every i."""
    if not is_certified_manifold(k, n):
        raise ValueError(f"{k.name} is not a certified closed {n}-manifold")
    comp = complementary_complex(k, b)
    sd = comp.parent
    rel = relative_chain_complex(sd, comp)
    rel_betti = betti_numbers(rel)
    if b.is_empty():
        bco = {}
    else:
        bc = b.to_complex()
        bco = betti_numbers(chain_complex(bc))  # field coefficients: H^d = H_d
    for i in range(n + 1):
        if bco.get(n - i, 0) != rel_betti.get(i, 0):
            return False
    return True


def sq1(x: CohomologyClass) -> CohomologyClass:
    """Bockstein of Z2 -> Z4 -> Z2 by lift, signed coboundary, halving."""
    k = x.complex
    p = x.degree
    xi = k.simplex_index(p)
    xb = bits_of(x.cocycle, len(xi))
    out = []
    for s in k.simplices_of_dim(p + 1):
        total = sum(xb[xi[s[:i] + s[i + 1:]]] * (-1) ** i for i in range(len(s)))
        assert total % 2 == 0, "input cochain is not a mod-2 cocycle"
        out.append((total // 2) & 1)
    res = CohomologyClass(k, p + 1, vec_from_bits(out))
    assert is_cocycle(res), "Bockstein output failed the cocycle check"
    return res


def w1(k: SimplicialComplex, n: int) -> int:
    """First Stiefel-Whitney class via the degree-1 Wu class, as H^1(k) coordinates.

    v1 is the unique degree-1 class with <v1 cup x, [k]> = <Sq1 x, [k]>
    for every x in H^{n-1}; w1 = v1.
    """
    fc = fundamental_class(k, n)
    h1 = cocycles(k, 1)
    xs = [CohomologyClass(k, n - 1, xr) for xr in cocycles(k, n - 1)]
    cols = tuple(vec_from_bits(evaluate(cup(CohomologyClass(k, 1, er), x), fc) for x in xs)
                 for er in h1)
    m = BitMatrix(len(xs), len(h1), cols)
    rhs = vec_from_bits(evaluate(sq1(x), fc) for x in xs)
    v = solve(m, rhs)
    if v is None:
        raise RuntimeError("Wu-class system inconsistent")
    if kernel_basis(m) and h1:
        raise RuntimeError("Wu-class system underdetermined beyond duality kernel")
    return v


def cohomology_class_is_zero(x: CohomologyClass) -> bool:
    """Zero as a cohomology class (representative is a coboundary)."""
    basis = cohomology_basis(chain_complex(x.complex), x.degree)
    return basis.coordinates(x.cocycle) == 0
