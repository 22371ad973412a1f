"""Acceptance gate: every headline claim of the verification engine, each
with its runtime budget, printing one PASS/FAIL line per criterion."""

import io
import random
import time

import pytest

from sepcheck.catalog import build_catalog
from sepcheck.cli import EXIT_OK, run_selftest
from sepcheck.complexes import Subcomplex, is_certified_manifold
from sepcheck.duality import (
    CohomologyClass,
    alexander_duality_check,
    cap,
    cohomology_class_is_zero,
    cup,
    evaluate,
    poincare_duality_check,
    sq1,
    w1,
)
from sepcheck.gf2 import ladder_check, random_exact_ladder
from sepcheck.homology import betti, chain_complex, cohomology_basis
from sepcheck.maps import image_subcomplex, self_intersection, subdivide_map
from sepcheck.obstruction import (
    final_theorem_check,
    mu_solve,
    theta,
    theta_pushforward_check,
    w1_of_map,
)
from sepcheck.separation import (
    HypothesisError,
    beta0_formula_thm32,
    complement_components_oracle,
    eq1_identity_check,
)

CATALOG = build_catalog()

CODIM1_IDS = ("equator_s1_s2", "equator_s2_s3", "figure_eight_s1_s2",
              "triple_bouquet_s1_s2", "essential_circle_t2",
              "rp2_essential_circle")


def report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, name


def test_criterion_1_two_sided_separation_for_embeddings():
    start = time.perf_counter()
    for cid in ("equator_s1_s2", "equator_s2_s3"):
        f = CATALOG[cid].map
        for level in range(3):
            rep = beta0_formula_thm32(f)
            assert rep.beta0_formula == 2 and rep.beta0_oracle == 2, (cid, level)
            if level < 2:
                f, _, _ = subdivide_map(f)
    elapsed = time.perf_counter() - start
    report("criterion 1: embedded spheres separate into exactly 2 components "
           "(base, Sd, Sd^2)", elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_criterion_2_formula_matches_oracle():
    start = time.perf_counter()
    checked = 0
    for cid, entry in sorted(CATALOG.items()):
        try:
            rep = beta0_formula_thm32(entry.map)
        except HypothesisError:
            continue
        assert rep.agreement, cid
        if "beta0_formula" in entry.expected:
            assert rep.beta0_formula == entry.expected["beta0_formula"], cid
        g, _, _ = subdivide_map(entry.map)
        rep_sd = beta0_formula_thm32(g)
        assert rep_sd.agreement and rep_sd.beta0_formula == rep.beta0_formula, cid
        checked += 1
    rep3 = beta0_formula_thm32(CATALOG["figure_eight_s1_s2"].map)
    rep4 = beta0_formula_thm32(CATALOG["triple_bouquet_s1_s2"].map)
    assert rep3.beta0_formula == 3 and rep4.beta0_formula == 4
    elapsed = time.perf_counter() - start
    report("criterion 2: component-count formula equals the oracle on every "
           "eligible instance, base and subdivided",
           checked >= 4 and elapsed < 30.0, f"{checked} instances, {elapsed:.2f}s < 30s")


def test_criterion_3_count_equals_one_plus_top_cohomology_of_image():
    checked = 0
    for cid, entry in sorted(CATALOG.items()):
        try:
            ok = eq1_identity_check(entry.map)
        except HypothesisError:
            continue
        assert ok, cid
        checked += 1
    report("criterion 3: component count = 1 + dim of top cohomology of the "
           "image, on every instance with simply-separable codomain",
           checked >= 4, f"{checked} instances")


def test_criterion_4_small_self_intersection_forces_disconnection():
    checked = 0
    for cid, entry in sorted(CATALOG.items()):
        f = entry.map
        n = f.domain.dim
        if not (is_certified_manifold(f.domain, n)
                and is_certified_manifold(f.codomain, n + 1)):
            continue
        if betti(f.codomain, 1) != 0:
            continue
        if self_intersection(f).dim_A >= n:
            continue
        oracle = complement_components_oracle(f.codomain, image_subcomplex(f))
        assert oracle >= 2, cid
        checked += 1
    report("criterion 4: maps with small self-intersection disconnect the "
           "codomain", checked >= 4, f"{checked} instances")


def test_criterion_5_kernel_cokernel_ladder_suite():
    start = time.perf_counter()
    rng = random.Random(20260823)
    for i in range(100):
        r = ladder_check(random_exact_ladder(rng))
        assert r.commutes and r.rows_exact, i
        assert r.ker_h_dim == r.coker_fplus_lambda_dim, i
    elapsed = time.perf_counter() - start
    report("criterion 5: kernel/cokernel dimensions agree on 100 random exact "
           "ladders", elapsed < 5.0, f"100/100, {elapsed:.2f}s < 5s")


def test_criterion_6_duality_suites():
    from sepcheck.catalog import (
        cross_polytope_s3, csaszar_torus, hexagon, octahedron, rp2_six_vertex)
    manifolds = [(hexagon(), 1), (octahedron(), 2), (csaszar_torus(), 2),
                 (cross_polytope_s3(), 3), (rp2_six_vertex(), 2)]
    for k, n in manifolds:
        assert poincare_duality_check(k, n), k.name

    octa = octahedron()
    torus = csaszar_torus()
    rp2 = rp2_six_vertex()
    pairs = [
        (octa, 2, Subcomplex(octa, [("n",)])),
        (octa, 2, Subcomplex.closure(
            octa, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])),
        (octa, 2, Subcomplex(octa, [])),
        (hexagon(), 1, Subcomplex(hexagon(), [("h0",)])),
        (torus, 2, Subcomplex.closure(
            torus, [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])),
        (rp2, 2, Subcomplex.closure(
            rp2, [("p1", "p2"), ("p2", "p5"), ("p1", "p5")])),
    ]
    for k, n, b in pairs:
        assert alexander_duality_check(k, n, b), k.name

    rng = random.Random(20260823)
    for _ in range(50):
        k, n = manifolds[rng.randrange(len(manifolds))]
        p = rng.randrange(n + 1)
        q = rng.randrange(n - p + 1)
        x = CohomologyClass(k, p, rng.getrandbits(len(k.simplices_of_dim(p))))
        y = CohomologyClass(k, q, rng.getrandbits(len(k.simplices_of_dim(q))))
        c = rng.getrandbits(len(k.simplices_of_dim(p + q)))
        assert evaluate(cup(x, y), c) == evaluate(x, cap(y, c, p + q))

    report("criterion 6: Poincare duality on 5 manifolds, Alexander duality "
           "on 6 pairs, cup/cap adjunction on 50 random triples", True)


def test_criterion_7_obstruction_pipeline():
    for cid in CODIM1_IDS:
        f = CATALOG[cid].map
        th = theta(f)
        if self_intersection(f).is_embedding:
            assert th == 0, cid
        assert theta_pushforward_check(f), cid
        mu_solve(f, th)  # raises if the localization system is unsolvable

    orientable = [("hexagon", 1), ("octahedron", 2), ("csaszar_torus", 2),
                  ("cross_polytope_s3", 3)]
    from sepcheck import catalog as cat_mod
    builders = {"hexagon": cat_mod.hexagon, "octahedron": cat_mod.octahedron,
                "csaszar_torus": cat_mod.csaszar_torus,
                "cross_polytope_s3": cat_mod.cross_polytope_s3}
    for name, n in orientable:
        assert w1(builders[name](), n) == 0, name
    rp2 = cat_mod.rp2_six_vertex()
    assert w1(rp2, 2) != 0
    gen = cohomology_basis(chain_complex(rp2), 1).representatives[0]
    assert not cohomology_class_is_zero(sq1(CohomologyClass(rp2, 1, gen)))
    assert w1_of_map(CATALOG["rp2_essential_circle"].map) != 0

    report("criterion 7: obstruction vanishing, pushforward vanishing, "
           "localization solvability, and orientation classes all exact", True)


def test_criterion_8_three_or_more_components():
    rep3 = final_theorem_check(CATALOG["figure_eight_s1_s2"].map)
    assert rep3.predicate_thm_final and rep3.beta0_oracle == 3
    rep4 = final_theorem_check(CATALOG["triple_bouquet_s1_s2"].map)
    assert rep4.predicate_thm_final and rep4.beta0_oracle == 4
    with pytest.raises(HypothesisError) as exc:
        final_theorem_check(CATALOG["equator_s1_s2"].map)
    assert exc.value.hypothesis == "exists_nonzero_mu"
    f = CATALOG["equator_s1_s2"].map
    assert complement_components_oracle(f.codomain, image_subcomplex(f)) == 2
    report("criterion 8: double-point instances give >= 3 complement "
           "components (3 and 4); the embedding control is refused and gives 2",
           True)


def test_criterion_9_selftest_determinism():
    start = time.perf_counter()
    buf1, buf2 = io.StringIO(), io.StringIO()
    code1 = run_selftest(out=buf1)
    code2 = run_selftest(out=buf2)
    elapsed = time.perf_counter() - start
    identical = buf1.getvalue() == buf2.getvalue()
    report("criterion 9: selftest passes, runs twice byte-identically, "
           "within budget",
           code1 == EXIT_OK and code2 == EXIT_OK and identical and elapsed < 120.0,
           f"{elapsed:.2f}s < 120s")
