import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcheck import duality
from sepcheck.catalog import (
    build_catalog,
    cross_polytope_s3,
    csaszar_torus,
    hexagon,
    octahedron,
    rp2_six_vertex,
)
from sepcheck.complexes import (
    SimplicialComplex,
    Subcomplex,
    barycentric_subdivide,
    is_certified_manifold,
)
from sepcheck.duality import (
    CohomologyClass,
    alexander_duality_check,
    cap,
    cap_matrix,
    cohomology_class_is_zero,
    cup,
    evaluate,
    fundamental_class,
    is_cocycle,
    poincare_dual,
    poincare_duality_check,
    sq1,
    w1,
)
from sepcheck.gf2 import BitMatrix, solve, vec_from_bits
from sepcheck.homology import (
    chain_complex,
    cocycles,
    cohomology_basis,
    homology_basis,
    induced_on_cohomology,
    odd_faces,
)
from sepcheck.maps import chain_map, subdivide_map

MANIFOLDS = [(hexagon(), 1), (octahedron(), 2), (csaszar_torus(), 2),
             (rp2_six_vertex(), 2), (cross_polytope_s3(), 3)]


def unit_class(k):
    return CohomologyClass(k, 0, (1 << len(k.simplices_of_dim(0))) - 1)


def h_generators(k, degree):
    basis = cohomology_basis(chain_complex(k), degree)
    return [CohomologyClass(k, degree, r) for r in basis.representatives]


def test_fundamental_class_examples():
    fc = fundamental_class(hexagon(), 1)
    assert fc == (1 << 6) - 1
    fc2 = fundamental_class(octahedron(), 2)
    assert bin(fc2).count("1") == 8
    h2 = homology_basis(chain_complex(octahedron()), 2)
    assert h2.dim == 1 and h2.coordinates(fc2) != 0
    fct = fundamental_class(csaszar_torus(), 2)
    assert bin(fct).count("1") == 14
    ht = homology_basis(chain_complex(csaszar_torus()), 2)
    assert ht.coordinates(fct) != 0


def test_is_cocycle_agrees_with_the_transposed_boundary_on_the_catalog():
    complexes = {id(k): k for e in build_catalog().values()
                 for k in (e.map.domain, e.map.codomain)}
    for k in complexes.values():
        c = chain_complex(k)
        for d in range(k.dim + 1):
            coboundary = c.boundary_map(d + 1).transpose()
            reps = cohomology_basis(c, d).representatives
            assert all(is_cocycle(CohomologyClass(k, d, x)) for x in reps), (k.name, d)
            for x in reps + tuple(1 << j for j in range(c.size(d))):
                assert is_cocycle(CohomologyClass(k, d, x)) == (coboundary.matvec(x) == 0)


def test_fundamental_class_is_kept_on_its_complex(monkeypatch):
    k = octahedron()
    fc = fundamental_class(k, 2)
    monkeypatch.setattr(duality, "chain_complex", lambda k: pytest.fail("checked again"))
    assert fundamental_class(k, 2) == fc


def test_fundamental_class_refuses_non_manifold():
    disk = SimplicialComplex.from_maximal_simplices(
        "disk", [["a", "b", "c"], ["b", "c", "d"]])
    with pytest.raises(ValueError):
        fundamental_class(disk, 2)


def test_cup_unit_law():
    for k, n in MANIFOLDS:
        one = unit_class(k)
        for d in range(n + 1):
            for x in h_generators(k, d):
                lhs = cup(one, x)
                assert lhs.cocycle == x.cocycle  # on the nose for the unit


def test_cup_degree_overflow_is_zero():
    k = hexagon()
    x = h_generators(k, 1)[0]
    assert cup(x, x).cocycle == 0  # no 2-simplices on a graph


def test_cup_torus_intersection_form_nondegenerate():
    k = csaszar_torus()
    fc = fundamental_class(k, 2)
    gens = h_generators(k, 1)
    assert len(gens) == 2
    vals = [[evaluate(cup(a, b), fc) for b in gens] for a in gens]
    # the pairing matrix must be invertible over GF(2)
    det = vals[0][0] * vals[1][1] ^ vals[0][1] * vals[1][0]
    assert det == 1


def test_cup_rejects_mismatched_complexes():
    with pytest.raises(ValueError):
        cup(unit_class(hexagon()), unit_class(octahedron()))


def test_cap_unit_law():
    for k, n in MANIFOLDS:
        fc = fundamental_class(k, n)
        assert cap(unit_class(k), fc, n) == fc


def test_cap_circle_duality():
    k = hexagon()
    fc = fundamental_class(k, 1)
    x = h_generators(k, 1)[0]
    z = cap(x, fc, 1)
    h0 = homology_basis(chain_complex(k), 0)
    assert h0.coordinates(z) != 0


def test_cup_cap_adjunction_random_triples():
    rng = random.Random(20260823)
    checked = 0
    while checked < 60:
        k, n = MANIFOLDS[rng.randrange(len(MANIFOLDS))]
        p = rng.randrange(n + 1)
        q = rng.randrange(n - p + 1)
        x = CohomologyClass(k, p, rng.getrandbits(len(k.simplices_of_dim(p))))
        y = CohomologyClass(k, q, rng.getrandbits(len(k.simplices_of_dim(q))))
        c = rng.getrandbits(len(k.simplices_of_dim(p + q)))
        lhs = evaluate(cup(x, y), c)
        rhs = evaluate(x, cap(y, c, p + q))
        assert lhs == rhs
        checked += 1


def test_poincare_dual_of_fundamental_class_is_unit():
    for k, n in MANIFOLDS:
        fc = fundamental_class(k, n)
        hn = homology_basis(chain_complex(k), n)
        res = poincare_dual(k, n, hn.coordinates(fc), n)
        assert res == cohomology_basis(chain_complex(k), 0).coordinates(unit_class(k).cocycle)


def test_poincare_dual_of_zero_is_zero():
    k = octahedron()
    assert poincare_dual(k, 2, 0, 1) == 0


def test_poincare_dual_of_vertex_on_circle_is_h1_generator():
    k = hexagon()
    h0 = homology_basis(chain_complex(k), 0)
    res = poincare_dual(k, 1, h0.coordinates(1), 0)
    assert res == 1  # the generator of H^1


def test_poincare_duality_all_catalog_manifolds():
    for k, n in MANIFOLDS:
        assert poincare_duality_check(k, n), k.name


def test_alexander_duality_pairs():
    k = octahedron()
    pairs = [
        (k, 2, Subcomplex(k, [("n",)])),
        (k, 2, Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])),
        (k, 2, Subcomplex(k, [])),
        (hexagon(), 1, Subcomplex(hexagon(), [("h0",)])),
        (csaszar_torus(), 2,
         Subcomplex.closure(csaszar_torus(), [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])),
        (rp2_six_vertex(), 2,
         Subcomplex.closure(rp2_six_vertex(), [("p1", "p2"), ("p2", "p5"), ("p1", "p5")])),
    ]
    for kk, n, b in pairs:
        assert alexander_duality_check(kk, n, b), (kk.name, sorted(b.simplices))


def test_sq1_of_unit_is_zero():
    for k, _ in MANIFOLDS:
        assert sq1(unit_class(k)).cocycle == 0


def test_sq1_squares_to_zero():
    for k, n in MANIFOLDS:
        for d in range(n):
            for x in h_generators(k, d):
                y = sq1(x)
                assert is_cocycle(y)
                z = sq1(y)
                assert z.cocycle == 0 or cohomology_class_is_zero(z)


def test_sq1_detects_projective_plane():
    k = rp2_six_vertex()
    gen = h_generators(k, 1)[0]
    res = sq1(gen)
    assert not cohomology_class_is_zero(res)  # the Bockstein hits the top class


def test_sq1_additive_on_classes():
    k = csaszar_torus()
    a, b = h_generators(k, 1)
    lhs = sq1(CohomologyClass(k, 1, a.cocycle ^ b.cocycle))
    rhs = sq1(a).cocycle ^ sq1(b).cocycle
    assert cohomology_class_is_zero(CohomologyClass(k, 2, lhs.cocycle ^ rhs))


def test_sq1_representative_independence():
    k = rp2_six_vertex()
    gen = h_generators(k, 1)[0]
    c = chain_complex(k)
    delta0 = c.boundary_map(1).transpose()
    shifted = CohomologyClass(k, 1, gen.cocycle ^ delta0.matvec(0b1011))
    diff = CohomologyClass(k, 2, sq1(gen).cocycle ^ sq1(shifted).cocycle)
    assert cohomology_class_is_zero(diff)


def test_sq1_independent_of_vertex_labels():
    # reversing the label order changes every orientation sign convention;
    # the Bockstein verdict on the projective plane must not change
    k = rp2_six_vertex()
    relabel = {f"p{i}": f"q{7 - i}" for i in range(1, 7)}
    k2 = SimplicialComplex.from_maximal_simplices(
        "rp2_relabeled",
        [[relabel[v] for v in s] for s in k.maximal_simplices()])
    gen2 = h_generators(k2, 1)[0]
    assert not cohomology_class_is_zero(sq1(gen2))


def test_w1_orientable_manifolds_vanish():
    for k, n in MANIFOLDS:
        if k.name == "rp2":
            continue
        assert w1(k, n) == 0, k.name


def test_w1_projective_plane_nonzero():
    k = rp2_six_vertex()
    assert w1(k, 2) != 0


# References that read every cohomology basis through ``cohomology_basis``,
# so they reduce the coboundaries even of a zero group.

def _cocycle_reps(k, degree):
    return cohomology_basis(chain_complex(k), degree).representatives


def _reference_cap_matrix(k, n, d):
    fc = fundamental_class(k, n)
    hho = homology_basis(chain_complex(k), d)
    cols = [hho.coordinates(cap(CohomologyClass(k, n - d, rep), fc, n))
            for rep in _cocycle_reps(k, n - d)]
    return BitMatrix(hho.dim, len(cols), tuple(cols))


def _reference_w1(k, n):
    fc = fundamental_class(k, n)
    h1 = _cocycle_reps(k, 1)
    xs = [CohomologyClass(k, n - 1, x) for x in _cocycle_reps(k, n - 1)]
    cols = tuple(vec_from_bits(evaluate(cup(CohomologyClass(k, 1, e), x), fc) for x in xs)
                 for e in h1)
    return solve(BitMatrix(len(xs), len(h1), cols),
                 vec_from_bits(evaluate(sq1(x), fc) for x in xs))


def _reference_pullback(f, d):
    tgt = cohomology_basis(chain_complex(f.domain), d)
    pull = chain_map(f, d).transpose()
    cols = tuple(tgt.coordinates(pull.matvec(z)) for z in _cocycle_reps(f.codomain, d))
    return BitMatrix(tgt.dim, len(cols), cols)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("cid", sorted(build_catalog()))
def test_cohomology_consumers_equal_references_that_reduce_every_group(cid, level):
    """cap_matrix, w1 and f^* equal the references on every catalog map.

    The product runs first, on fresh complexes, so it reduces only what it
    needs; the references then reduce every coboundary they read.
    """
    f = build_catalog()[cid].map
    for _ in range(level):
        f, _, _ = subdivide_map(f)
    spaces = [(f.domain, f.domain.dim), (f.codomain, f.codomain.dim)]
    assert all(is_certified_manifold(k, n) for k, n in spaces)
    caps = {(k.name, d): cap_matrix(k, n, d) for k, n in spaces for d in range(n + 1)}
    w1s = {k.name: w1(k, n) for k, n in spaces}
    pullbacks = [induced_on_cohomology(f, d) for d in range(f.domain.dim + 1)]
    for k, n in spaces:
        assert w1s[k.name] == _reference_w1(k, n), k.name
        for d in range(n + 1):
            assert caps[k.name, d] == _reference_cap_matrix(k, n, d), (k.name, d)
    assert pullbacks == [_reference_pullback(f, d) for d in range(f.domain.dim + 1)]


# Bit-by-bit references for the cochain operations: one shift per entry read
# and one OR (an XOR for cap) per entry written.

def _bitwise_cup(x, y):
    k = x.complex
    p, q = x.degree, y.degree
    xi = k.simplex_index(p)
    yi = k.simplex_index(q)
    out = 0
    for idx, s in enumerate(k.simplices_of_dim(p + q)):
        front = s[: p + 1]
        back = s[p:]
        xv = (x.cocycle >> xi[front]) & 1
        yv = (y.cocycle >> yi[back]) & 1
        out |= (xv & yv) << idx
    return out


def _bitwise_cap(x, chain, n):
    k = x.complex
    p = x.degree
    xi = k.simplex_index(p)
    out_index = k.simplex_index(n - p)
    out = 0
    for idx, s in enumerate(k.simplices_of_dim(n)):
        if not (chain >> idx) & 1:
            continue
        if (x.cocycle >> xi[s[n - p:]]) & 1:
            out ^= 1 << out_index[s[: n - p + 1]]
    return out


def _bitwise_sq1(x):
    k = x.complex
    p = x.degree
    xi = k.simplex_index(p)
    out = 0
    for idx, s in enumerate(k.simplices_of_dim(p + 1)):
        total = 0
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            lift = (x.cocycle >> xi[face]) & 1
            total += lift if i % 2 == 0 else -lift
        assert total % 2 == 0
        out |= ((total // 2) & 1) << idx
    return out


@functools.cache
def _catalog_complexes_sd0_sd1():
    base = {k.name: k for e in build_catalog().values() for k in e.complexes.values()
            if not k.name.startswith("Sd(")}
    return [k for name in sorted(base) for k in (base[name], barycentric_subdivide(base[name])[0])]


def _random_cocycle(k, d, rng):
    """A random sum of the cocycle representatives, plus the coboundary of a
    random (d-1)-cochain (the degree-d cofacets its simplices name an odd
    number of times)."""
    z = 0
    for r in cocycles(k, d):
        z ^= r * rng.getrandbits(1)
    if d:
        w = rng.getrandbits(len(k.simplices_of_dim(d - 1)))
        for i in odd_faces(chain_complex(k).cofacets()[d - 1], w):
            z ^= 1 << i
    return z


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cochain_operations_equal_bitwise_references(data):
    """cup, cap and sq1 on random cocycles and chains of the catalog complexes
    at Sd⁰ and Sd¹ equal the references that read and write one bit at a time."""
    k = data.draw(st.sampled_from(_catalog_complexes_sd0_sd1()), label="complex")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    p = data.draw(st.integers(0, k.dim), label="p")
    q = data.draw(st.integers(0, k.dim - p), label="q")
    n = data.draw(st.integers(p, k.dim), label="n")
    x, y = (CohomologyClass(k, d, _random_cocycle(k, d, rng)) for d in (p, q))
    chain = rng.getrandbits(len(k.simplices_of_dim(n)))
    assert cup(x, y).cocycle == _bitwise_cup(x, y)
    assert cap(x, chain, n) == _bitwise_cap(x, chain, n)
    assert sq1(x).cocycle == _bitwise_sq1(x)
