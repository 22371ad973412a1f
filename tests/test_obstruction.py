import pytest

from sepcheck.catalog import build_catalog
from sepcheck.complexes import SimplicialComplex, is_certified_manifold
from sepcheck.duality import CohomologyClass, cap, cap_matrix, fundamental_class, w1
from sepcheck.homology import chain_complex, cohomology_basis, homology_basis
from sepcheck.maps import (
    SimplicialMap,
    chain_map,
    image_subcomplex,
    self_intersection_maps,
    subdivide_map,
)
from sepcheck.obstruction import (
    cor317_check,
    dual_class_Uf,
    final_theorem_check,
    mu_solve,
    mv_sequence_check,
    obstruction_summary,
    theta,
    theta_pushforward_check,
    w1_of_map,
)
from sepcheck.separation import HypothesisError, complement_components_oracle
from test_homology import basis_vector
from test_vertex_choice_maps import COMPOSED, compose, vertex_choice_map

CATALOG = build_catalog()

# entries whose domain/codomain certificates support the codimension-1 pipeline
CODIM1_IDS = ("equator_s1_s2", "equator_s2_s3", "figure_eight_s1_s2",
              "triple_bouquet_s1_s2", "essential_circle_t2",
              "rp2_essential_circle")


def test_dual_class_vanishes_when_target_h1_is_zero():
    for cid in ("equator_s1_s2", "figure_eight_s1_s2"):
        assert dual_class_Uf(CATALOG[cid].map) == 0, cid


def test_dual_class_of_essential_circle_nonzero():
    assert dual_class_Uf(CATALOG["essential_circle_t2"].map) != 0


def test_w1_vanishes_between_orientable_manifolds():
    for cid in ("equator_s1_s2", "equator_s2_s3",
                "figure_eight_s1_s2", "essential_circle_t2"):
        assert w1_of_map(CATALOG[cid].map) == 0, cid


def test_w1_self_cancels_on_identity_of_projective_plane():
    assert w1_of_map(CATALOG["rp2_identity"].map) == 0


def test_w1_nonzero_for_orientation_reversing_circle():
    assert w1_of_map(CATALOG["rp2_essential_circle"].map) != 0


def test_obstruction_class_vanishes_on_embeddings():
    for cid in ("equator_s1_s2", "equator_s2_s3",
                "essential_circle_t2", "rp2_essential_circle"):
        th = theta(CATALOG[cid].map)
        assert th == 0, cid


def test_obstruction_class_vanishes_on_figure_eight():
    th = theta(CATALOG["figure_eight_s1_s2"].map)
    assert th == 0


def test_pushforward_of_obstruction_vanishes_everywhere():
    for cid in CODIM1_IDS:
        assert theta_pushforward_check(CATALOG[cid].map), cid


def _dim_h_a(f, degree):
    """dim H_degree(A) of the self-intersection set A of f, from its homology basis."""
    a = self_intersection_maps(f)[0].domain
    return homology_basis(chain_complex(a), degree).dim


def test_mu_embedding_gives_zero_space():
    f = CATALOG["equator_s1_s2"].map
    assert _dim_h_a(f, 0) == 0
    assert mu_solve(f) == (0, ())


def test_mu_figure_eight_solutions():
    f = CATALOG["figure_eight_s1_s2"].map
    assert _dim_h_a(f, 0) == 2
    particular, kernel = mu_solve(f)
    # full solution set is {(0,0), (1,1)}
    all_solutions = set()
    for mask in range(1 << len(kernel)):
        v = particular
        for i, kv in enumerate(kernel):
            if (mask >> i) & 1:
                v ^= kv
        all_solutions.add(v)
    assert all_solutions == {0b00, 0b11}


def test_mu_double_wrap_forced_zero():
    # equal dimensions, so the obstruction class is supplied externally as 0
    f = CATALOG["double_wrap_s1"].map
    assert _dim_h_a(f, 0) == 1
    assert mu_solve(f, theta_coords=0) == (0, ())


def test_low_dimensional_self_intersection_check():
    for cid in CODIM1_IDS + ("figure_eight_s1_s2",):
        assert cor317_check(CATALOG[cid].map), cid


def test_exact_sequence_embedding_collapses():
    rec = mv_sequence_check(CATALOG["equator_s1_s2"].map)
    assert rec["exact"] and rec["fbar_surjective"] and rec["ker_alpha_dim"] == 0


def test_exact_sequence_figure_eight():
    rec = mv_sequence_check(CATALOG["figure_eight_s1_s2"].map)
    assert rec["exact"] and not rec["fbar_surjective"]


def test_exact_sequence_triple_bouquet():
    rec = mv_sequence_check(CATALOG["triple_bouquet_s1_s2"].map)
    assert rec["exact"] and not rec["fbar_surjective"]


def test_exact_sequence_double_wrap():
    rec = mv_sequence_check(CATALOG["double_wrap_s1"].map)
    assert rec["exact"] and not rec["fbar_surjective"]


def test_nonzero_mu_with_zero_obstruction_blocks_surjectivity():
    for cid in CODIM1_IDS:
        f = CATALOG[cid].map
        th = theta(f)
        particular, kernel = mu_solve(f, th)
        if th == 0 and (particular or kernel):
            assert not mv_sequence_check(f)["fbar_surjective"], cid


def test_final_theorem_figure_eight():
    rep = final_theorem_check(CATALOG["figure_eight_s1_s2"].map)
    assert rep.predicate_thm_final
    assert rep.beta0_oracle == 3 and rep.dim_Hm_image == 2
    assert rep.theta_is_zero and rep.theta_pushforward_zero
    assert rep.exists_nonzero_mu and rep.w1f_is_zero


def test_final_theorem_triple_bouquet():
    rep = final_theorem_check(CATALOG["triple_bouquet_s1_s2"].map)
    assert rep.predicate_thm_final
    assert rep.beta0_oracle == 4 and rep.dim_Hm_image == 3


def test_final_theorem_refuses_embedding_at_mu():
    with pytest.raises(HypothesisError) as exc:
        final_theorem_check(CATALOG["equator_s1_s2"].map)
    assert exc.value.hypothesis == "exists_nonzero_mu"
    f = CATALOG["equator_s1_s2"].map
    assert complement_components_oracle(f.codomain, image_subcomplex(f)) == 2


def test_final_theorem_refuses_torus_codomain():
    with pytest.raises(HypothesisError) as exc:
        final_theorem_check(CATALOG["essential_circle_t2"].map)
    assert exc.value.hypothesis == "h1_N_zero"


def test_summary_reports_without_gating():
    rep = obstruction_summary(CATALOG["equator_s1_s2"].map)
    assert not rep.predicate_thm_final and rep.beta0_oracle == 2
    assert rep.Uf_is_zero and rep.w1f_is_zero


def test_summary_json_keys_are_stable():
    rep = obstruction_summary(CATALOG["figure_eight_s1_s2"].map)
    assert list(rep.to_json_dict()) == [
        "Uf_is_zero", "w1f_is_zero", "theta_is_zero", "theta_pushforward_zero",
        "exists_nonzero_mu", "predicate_thm_final", "beta0_oracle", "dim_Hm_image"]


def _two_points_into_hexagon():
    pts = SimplicialComplex.from_maximal_simplices("pts", [["p"], ["q"]])
    hexagon = SimplicialComplex.from_maximal_simplices(
        "hexagon", [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["a", "f"]])
    return SimplicialMap("f", pts, hexagon, {"p": "a", "q": "d"})


@pytest.mark.parametrize("check", [theta, theta_pushforward_check, mu_solve,
                                   cor317_check, obstruction_summary],
                         ids=lambda fn: fn.__name__)
def test_zero_dimensional_domain_is_refused(check):
    with pytest.raises(HypothesisError) as exc:
        check(_two_points_into_hexagon())
    assert exc.value.hypothesis == "domain_dim_positive"


def test_refusal_is_raised_again_not_stored():
    f = _two_points_into_hexagon()
    for _ in range(2):
        with pytest.raises(HypothesisError) as exc:
            theta(f)
        assert exc.value.hypothesis == "domain_dim_positive"


# ---------------------------------------------------------------------------
# U_f, w1(f) and theta against their cochain-level construction
# ---------------------------------------------------------------------------

def _cocycle(k, degree, coords):
    return basis_vector(cohomology_basis(chain_complex(k), degree), coords)


def _assert_classes_match_cochain_reference(f):
    """Pull cocycles back through the transposed chain map and cap with [M].

    U_f is checked by capping its cocycle with [N], which must give the
    class of the pushed fundamental chain of M.
    """
    m, n = f.domain.dim, f.codomain.dim
    if not (is_certified_manifold(f.domain, m) and is_certified_manifold(f.codomain, n)):
        return
    pull = chain_map(f, 1).transpose()
    w1f = (pull.matvec(_cocycle(f.codomain, 1, w1(f.codomain, n)))
           ^ _cocycle(f.domain, 1, w1(f.domain, m)))
    assert cohomology_basis(chain_complex(f.domain), 1).coordinates(w1f) == w1_of_map(f)
    if n != m + 1 or m < 1:
        return
    pushed = chain_map(f, m).matvec(fundamental_class(f.domain, m))
    assert chain_complex(f.codomain).boundary_map(m).matvec(pushed) == 0
    uf = _cocycle(f.codomain, 1, dual_class_Uf(f))
    hm = homology_basis(chain_complex(f.codomain), m)
    dual = cap(CohomologyClass(f.codomain, 1, uf), fundamental_class(f.codomain, n), n)
    assert hm.coordinates(dual) == hm.coordinates(pushed)
    z = cap(CohomologyClass(f.domain, 1, pull.matvec(uf) ^ w1f),
            fundamental_class(f.domain, m), m)
    assert homology_basis(chain_complex(f.domain), m - 1).coordinates(z) == theta(f)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_classes_match_cochain_reference_on_the_catalog(cid, k):
    f = CATALOG[cid].map
    for _ in range(k):
        f = subdivide_map(f)[0]
    _assert_classes_match_cochain_reference(f)


@pytest.mark.parametrize("cid", COMPOSED)
def test_classes_match_cochain_reference_on_vertex_choice_composites(cid):
    f = CATALOG[cid].map
    for seed in range(2):
        _assert_classes_match_cochain_reference(compose(f, vertex_choice_map(f.domain, seed)))


def test_cap_matrix_columns_are_caps_of_h1_representatives():
    """theta is 0 on every catalog map, so check the cap matrix column by column.

    Codomains are included: no catalog domain has H^1 of dimension above 1.
    """
    complexes = {k.name: k for e in CATALOG.values() for k in e.complexes.values()}
    checked = 0
    for k in complexes.values():
        m = k.dim
        if m < 1 or not is_certified_manifold(k, m):
            continue
        mat = cap_matrix(k, m, m - 1)
        fc = fundamental_class(k, m)
        h = homology_basis(chain_complex(k), m - 1)
        reps = cohomology_basis(chain_complex(k), 1).representatives
        assert (mat.rows, mat.cols) == (h.dim, len(reps))
        for i, rep in enumerate(reps):
            assert mat.matvec(1 << i) == h.coordinates(cap(CohomologyClass(k, 1, rep), fc, m))
            checked += 1
    assert checked
