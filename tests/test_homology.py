from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepcheck import homology
from sepcheck.catalog import (
    build_catalog,
    cross_polytope_s3,
    csaszar_torus,
    hexagon,
    octahedron,
    rp2_six_vertex,
    square_circle,
)
from sepcheck.complexes import (
    SimplicialComplex,
    Subcomplex,
    barycentric_subdivide,
)
from sepcheck.duality import poincare_duality_check
from sepcheck.gf2 import Echelon, column_space_basis, dot, kernel_basis, rank, vec_from_bits
from sepcheck.homology import (
    ChainComplexZ2,
    _pack,
    betti_numbers,
    chain_complex,
    cocycles,
    cohomology_basis,
    connecting_map,
    homology_basis,
    induced_on_cohomology,
    induced_on_homology,
    les_pair_check,
    relative_chain_complex,
)
from sepcheck.maps import (
    SimplicialMap,
    chain_map,
    image_subcomplex,
    inclusion,
    self_intersection,
    subdivide_map,
)
from test_complexes import connected_components, euler_characteristic, small_complexes
from test_gf2 import identity


def all_complexes():
    return [hexagon(), square_circle(), octahedron(), csaszar_torus(),
            rp2_six_vertex(), cross_polytope_s3()]


def test_chain_complex_point():
    c = chain_complex(SimplicialComplex.from_maximal_simplices("pt", [["p"]]))
    assert c.dim == 0 and c.size(0) == 1
    assert c.boundary_map(1).is_zero()


def test_chain_complex_hexagon_boundary_columns():
    c = chain_complex(hexagon())
    b1 = c.boundary_map(1)
    assert (b1.rows, b1.cols) == (6, 6)
    assert all(col.bit_count() == 2 for col in b1.data)  # an edge has two ends


def test_chain_complex_octahedron_boundary_columns():
    c = chain_complex(octahedron())
    b2 = c.boundary_map(2)
    assert (b2.rows, b2.cols) == (12, 8)
    assert all(col.bit_count() == 3 for col in b2.data)  # a triangle has three edges


def test_relative_chain_complex_trivial_cases():
    k = octahedron()
    empty = relative_chain_complex(k, Subcomplex(k, []))
    absolute = chain_complex(k)
    assert [empty.size(d) for d in range(3)] == [absolute.size(d) for d in range(3)]
    full = relative_chain_complex(k, Subcomplex(k, k.simplices))
    assert all(full.size(d) == 0 for d in range(3))


def test_relative_h2_of_sphere_mod_equator_is_two():
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    rel = relative_chain_complex(k, equator)
    assert betti_numbers(rel)[2] == 2


def test_homology_dimensions():
    assert homology_basis(chain_complex(hexagon()), 1).dim == 1
    assert homology_basis(chain_complex(octahedron()), 1).dim == 0
    assert homology_basis(chain_complex(csaszar_torus()), 1).dim == 2


def test_homology_representatives_are_cycles():
    for k in all_complexes():
        c = chain_complex(k)
        for d in range(k.dim + 1):
            h = homology_basis(c, d)
            for z in h.representatives:
                assert c.boundary_map(d).matvec(z) == 0


def test_cohomology_dimensions():
    pt = chain_complex(SimplicialComplex.from_maximal_simplices("pt", [["p"]]))
    assert cohomology_basis(pt, 0).dim == 1
    assert cohomology_basis(chain_complex(hexagon()), 1).dim == 1
    assert cohomology_basis(chain_complex(octahedron()), 2).dim == 1


def test_cohomology_matches_homology_in_every_degree():
    for k in all_complexes():
        c = chain_complex(k)
        for d in range(k.dim + 1):
            assert cohomology_basis(c, d).dim == homology_basis(c, d).dim


def test_euler_characteristic_equals_alternating_betti_sum():
    for k in all_complexes():
        b = betti_numbers(chain_complex(k))
        alt = sum((-1) ** d * v for d, v in b.items())
        assert alt == euler_characteristic(k)


def test_h0_counts_components():
    two = SimplicialComplex.from_maximal_simplices(
        "two", [["a", "b", "c"], ["x", "y"]])
    for k in all_complexes() + [two]:
        assert betti_numbers(chain_complex(k))[0] == connected_components(k)


def test_betti_subdivision_invariance():
    for k in all_complexes():
        sd, _ = barycentric_subdivide(k)
        # rebuild from scratch so nothing is inherited from the source complex
        fresh = SimplicialComplex.from_maximal_simplices("fresh", sd.maximal_simplices())
        b = betti_numbers(chain_complex(k))
        bsd = betti_numbers(chain_complex(fresh))
        assert b == bsd, k.name


def test_induced_identity_is_identity():
    k = octahedron()
    f = SimplicialMap("id", k, k, {v: v for v in k.vertices})
    for d in range(3):
        im = induced_on_homology(f, d)
        assert im == identity(im.cols)
        imc = induced_on_cohomology(f, d)
        assert imc == identity(imc.cols)


def test_induced_double_wrap_kills_h1():
    f = build_catalog()["double_wrap_s1"].map
    im = induced_on_homology(f, 1)
    assert (im.cols, im.rows) == (1, 1)
    assert im.is_zero()  # wrapping twice is zero mod 2


def test_induced_equator_inclusion_kills_h1():
    f = build_catalog()["equator_s1_s2"].map
    im = induced_on_homology(f, 1)
    assert im.cols == 1 and im.is_zero()  # the equator bounds a cap


def test_pullback_into_a_zero_group_reduces_against_the_coboundaries():
    """H^1 of a triangle is 0, yet a torus cocycle can pull back to a nonzero
    coboundary on it: the target basis must express it as the zero class."""
    torus = csaszar_torus()
    f = inclusion(Subcomplex.closure(torus, [("t1", "t2", "t4")]))
    pull = chain_map(f, 1).transpose()
    reps = cohomology_basis(chain_complex(torus), 1).representatives
    assert any(pull.matvec(z) for z in reps)
    im = induced_on_cohomology(f, 1)
    assert (im.rows, im.cols) == (0, 2)


def test_les_pair_empty_subcomplex():
    k = octahedron()
    assert les_pair_check(k, Subcomplex(k, []))


def test_les_pair_sphere_equator():
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert les_pair_check(k, equator)


def test_les_pair_hexagon_two_points():
    k = hexagon()
    pts = Subcomplex(k, [("h0",), ("h3",)])
    assert les_pair_check(k, pts)


def test_les_pair_torus_essential_circle():
    k = csaszar_torus()
    circle = Subcomplex.closure(k, [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])
    assert les_pair_check(k, circle)


def test_les_pair_full_subcomplex():
    k = hexagon()
    assert les_pair_check(k, Subcomplex(k, k.simplices))


def _octahedron_equator_connecting_data():
    """H_2(K, L) -> H_1(L) data for the octahedron K and its equator L."""
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    crel = relative_chain_complex(k, equator)
    kindex, lindex = k.simplex_index(2), equator.to_complex().simplex_index(1)
    lift = [kindex[s] for s in crel.simplices[2]]
    read = [lindex.get(s) for s in k.simplices_of_dim(1)]
    h_l = homology_basis(chain_complex(equator.to_complex()), 1)
    return homology_basis(crel, 2), lift, chain_complex(k).boundary_map(2), read, h_l


def test_connecting_map_octahedron_equator():
    source, lift, boundary, read, target = _octahedron_equator_connecting_data()
    delta = connecting_map(source, lift, boundary, read, target)
    # both hemispheres bound the equator, so H_2(K, L) = F2^2 maps onto H_1(L) = F2
    assert (delta.rows, delta.cols) == (1, 2)
    assert rank(delta) == 1


def test_connecting_map_asserts_boundary_lies_in_subcomplex():
    source, lift, boundary, read, target = _octahedron_equator_connecting_data()
    read[read.index(0)] = None  # one equator edge read as outside L
    with pytest.raises(AssertionError, match="escapes the subcomplex"):
        connecting_map(source, lift, boundary, read, target)


def _paper_pairs(level: int):
    """(id, K, L) for (N, f(M)), (M, A) and (N, B) of every catalog map at Sd^level."""
    out = []
    for cid, entry in sorted(build_catalog().items()):
        f = entry.map
        for _ in range(level):
            f = subdivide_map(f)[0]
        si = self_intersection(f)
        out += [(f"{cid}-Sd{level}-N_fM", f.codomain, image_subcomplex(f)),
                (f"{cid}-Sd{level}-M_A", f.domain, si.A),
                (f"{cid}-Sd{level}-N_B", f.codomain, si.B)]
    return out


PAPER_PAIRS = _paper_pairs(0) + _paper_pairs(1)


@pytest.mark.parametrize("k, l", [p[1:] for p in PAPER_PAIRS], ids=[p[0] for p in PAPER_PAIRS])
def test_les_pair_on_the_pairs_of_the_paper(k, l):
    assert les_pair_check(k, l)


def basis_vector(basis, coords):
    """The sum of the representatives picked by coords."""
    out = 0
    for i, r in enumerate(basis.representatives):
        if (coords >> i) & 1:
            out ^= r
    return out


def test_coordinates_roundtrip():
    c = chain_complex(csaszar_torus())
    h1 = homology_basis(c, 1)
    assert h1.dim == 2
    for coords in range(1, 4):
        z = basis_vector(h1, coords)
        assert h1.coordinates(z) == coords
    # a boundary is the zero class
    b = c.boundary_map(2).matvec(1)
    assert h1.coordinates(b) == 0


def test_coordinates_rejects_non_cycles():
    c = chain_complex(octahedron())
    h1 = homology_basis(c, 1)
    with pytest.raises(ValueError):
        h1.coordinates(1)  # a single edge is not a cycle
    with pytest.raises(ValueError):
        h1.coordinates(1 << c.size(1))  # wider than the edges


def test_coordinates_rejects_non_cocycles():
    c = chain_complex(csaszar_torus())
    h1 = cohomology_basis(c, 1)
    assert h1.dim == 2
    with pytest.raises(ValueError):
        h1.coordinates(1)  # a single edge is not a cocycle: its two triangles see it once
    with pytest.raises(ValueError):
        h1.coordinates(1 << c.size(1))  # wider than the edges


def _replacing(monkeypatch, change):
    """Patch ``homology._clearing_reduction`` to pass its result through ``change``."""
    real = homology._clearing_reduction
    monkeypatch.setattr(homology, "_clearing_reduction",
                        lambda c, cohomology, d: change(c, cohomology, d, *real(c, cohomology, d)))


def test_basis_pairing_certificate_fires_on_a_boundary(monkeypatch):
    """A torus H_1 representative replaced by a boundary pairs to 0 with every cocycle."""
    def to_boundary(c, cohomology, d, reps, pivots):
        if (cohomology, d) == (False, 1):
            reps = (c.boundary_map(2).data[0],) + reps[1:]
        return reps, pivots

    _replacing(monkeypatch, to_boundary)
    with pytest.raises(AssertionError, match="pairing is not invertible"):
        homology_basis(chain_complex(csaszar_torus()), 1)


def test_betti_numbers_assert_the_euler_characteristic(monkeypatch):
    _replacing(monkeypatch, lambda c, cohomology, d, reps, pivots:
               (reps[:-1] if d == 1 else reps, pivots))
    with pytest.raises(AssertionError, match="Euler characteristic"):
        betti_numbers(chain_complex(hexagon()))


def test_cocycles_assert_the_inherited_betti_number():
    sd, _ = barycentric_subdivide(csaszar_torus())
    assert len(cocycles(sd, 1)) == 2
    sd._betti[1] = 3
    with pytest.raises(AssertionError, match="differs from the Betti number"):
        cocycles(sd, 1)


# ---------------------------------------------------------------------------
# The clearing reduction against the plain quotient Z / B
# ---------------------------------------------------------------------------

def _reference_dims(c, degree, cohomology):
    """dim of (co)cycles modulo (co)boundaries: a full kernel basis and a full
    column-space basis, cycles kept greedily when independent of the
    boundaries."""
    up, down = c.boundary_map(degree + 1), c.boundary_map(degree)
    cycles, bounds = ((kernel_basis(up.transpose()), column_space_basis(down.transpose()))
                      if cohomology else (kernel_basis(down), column_space_basis(up)))
    ech = Echelon(bounds)
    return sum(1 for z in cycles if ech.add(z)[0])


def _assert_basis_is_sound(c, degree, cohomology):
    basis = (cohomology_basis if cohomology else homology_basis)(c, degree)
    # a (co)cycle is killed by the outgoing (co)boundary
    out = c.boundary_map(degree + 1).transpose() if cohomology else c.boundary_map(degree)
    reps = basis.representatives
    for z in reps:
        assert out.matvec(z) == 0
    # independent modulo the (co)boundaries, the incoming columns
    incoming = c.boundary_map(degree).transpose() if cohomology else c.boundary_map(degree + 1)
    ech = Echelon(incoming.data)
    assert all(ech.add(z)[0] for z in reps)
    # each dual pairs to 1 with its own representative only, and kills the (co)boundaries
    assert [vec_from_bits(dot(x, z) for z in reps) for x in basis.duals] == \
        [1 << i for i in range(len(reps))]
    for i, z in enumerate(reps):
        assert basis.coordinates(z) == 1 << i
    for col in incoming.data:
        assert not any(dot(x, col) for x in basis.duals)
        assert basis.coordinates(col) == 0
    for j in range(c.size(degree)):
        if out.matvec(1 << j):
            with pytest.raises(ValueError):
                basis.coordinates(1 << j)
    return basis.dim


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_clearing_bases_match_quotient_reference(k):
    c = chain_complex(k)
    betti = betti_numbers(c)
    for d in range(c.dim + 1):
        for cohomology in (False, True):
            dim = _assert_basis_is_sound(c, d, cohomology)
            assert dim == _reference_dims(c, d, cohomology) == betti[d]


def _betti_by_ranks(c):
    """dim C_d - rank d_d - rank d_{d+1}: the Betti numbers without a basis."""
    return {d: c.size(d) - rank(c.boundary_map(d)) - rank(c.boundary_map(d + 1))
            for d in range(c.dim + 1)}


@st.composite
def small_pairs(draw):
    """A small complex K and the closure L of up to 4 of its simplices."""
    k = draw(small_complexes())
    return k, Subcomplex.closure(k, draw(st.lists(st.sampled_from(sorted(k.simplices)),
                                                  max_size=4)))


@given(small_pairs())
@settings(max_examples=150, deadline=None)
def test_betti_numbers_equal_the_rank_formula(pair):
    k, l = pair
    for c in (chain_complex(k), relative_chain_complex(k, l)):
        assert betti_numbers(c) == _betti_by_ranks(c)


def _assert_tables(c):
    """Facet lists against the index tables, cofacets as their transpose,
    and the packed coboundary columns as the transpose of the boundary."""
    for d in range(1, c.dim + 1):
        assert c.facets[d] == [tuple(c.index[d - 1][f] for f in combinations(s, d)
                                     if f in c.index[d - 1]) for s in c.simplices[d]]
    cof = c.cofacets()
    assert cof is c.cofacets()
    assert len(cof) == c.dim + 1
    for d in range(c.dim + 1):
        up = c.facets[d + 1] if d < c.dim else []
        assert cof[d] == [tuple(j for j, f in enumerate(up) if i in f) for i in range(c.size(d))]
        assert tuple(map(_pack, cof[d])) == c.boundary_map(d + 1).transpose().data


def _octahedron_mod_equator():
    k = octahedron()
    return k, Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])


@given(small_pairs())
@example(_octahedron_mod_equator())
@settings(max_examples=150, deadline=None)
def test_cofacets_transpose_the_facet_lists(pair):
    k, l = pair
    for c in (chain_complex(k), relative_chain_complex(k, l)):
        _assert_tables(c)


def test_chain_complex_asserts_dd_is_zero():
    """Two edges that trade places in the index make the triangles name the wrong edges."""
    k = octahedron()
    index = [dict(k.simplex_index(d)) for d in range(k.dim + 1)]
    e, f = k.simplices_of_dim(1)[:2]
    index[1][e], index[1][f] = index[1][f], index[1][e]
    with pytest.raises(AssertionError, match=r"^dd != 0$"):
        ChainComplexZ2([k.simplices_of_dim(d) for d in range(k.dim + 1)], index)


def test_clearing_bases_on_relative_complexes():
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    c = relative_chain_complex(k, equator)
    for d in range(c.dim + 1):
        for cohomology in (False, True):
            assert _assert_basis_is_sound(c, d, cohomology) == _reference_dims(c, d, cohomology)


def test_chain_complex_is_cached_on_its_complex():
    k = csaszar_torus()
    c = chain_complex(k)
    assert chain_complex(k) is c
    assert homology_basis(c, 1) is homology_basis(c, 1)
    assert cohomology_basis(c, 1) is cohomology_basis(c, 1)


# ---------------------------------------------------------------------------
# Catalog complexes under subdivision
# ---------------------------------------------------------------------------

def _catalog_complexes():
    return {k.name: k for e in build_catalog().values() for k in e.complexes.values()
            if not k.name.startswith("Sd(")}


def test_inherited_betti_matches_fresh_reduction_at_sd1_and_sd2():
    for k in _catalog_complexes().values():
        sd = k
        for _ in range(2):
            sd, _ = barycentric_subdivide(sd)
            assert sd._betti, sd.name
            fresh = {d: homology_basis(chain_complex(sd), d).dim for d in range(sd.dim + 1)}
            assert sd._betti == fresh, sd.name


def test_poincare_duality_on_certified_catalog_complexes_at_sd1():
    for k in _catalog_complexes().values():
        assert k._manifold_dims, k.name
        sd, _ = barycentric_subdivide(k)
        for n in sd._manifold_dims:
            assert poincare_duality_check(sd, n), sd.name
