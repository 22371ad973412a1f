from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcheck.catalog import build_catalog, octahedron, square_circle
from sepcheck.cli import EXIT_REFUSED, analyze_instance
from sepcheck.complexes import (
    SimplicialComplex,
    Subcomplex,
    barycentric_subdivide,
    complementary_complex,
    link,
)
from sepcheck.maps import (
    SimplicialMap,
    image_subcomplex,
    inclusion,
    self_intersection,
    subdivide_map,
)
from sepcheck.separation import (
    HypothesisError,
    beta0_formula_thm32,
    check_hypotheses_thm32,
    complement_components_oracle,
    eq1_identity_check,
    image_components,
    jordan_brouwer_check,
    prop34_check,
)
from test_complexes import connected_components, facet_table, small_complexes

CATALOG = build_catalog()


def test_oracle_empty_image_connected_codomain():
    k = octahedron()
    assert complement_components_oracle(k, Subcomplex(k, [])) == 1


def test_oracle_equator_two_components():
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert complement_components_oracle(k, equator) == 2


def test_oracle_figure_eight_three_components():
    f = CATALOG["figure_eight_s1_s2"].map
    assert complement_components_oracle(f.codomain, image_subcomplex(f)) == 3


def test_oracle_triple_bouquet_four_components():
    f = CATALOG["triple_bouquet_s1_s2"].map
    assert complement_components_oracle(f.codomain, image_subcomplex(f)) == 4


def test_oracle_count_is_kept_on_the_subcomplex(monkeypatch):
    from sepcheck import separation
    f, _, _ = subdivide_map(CATALOG["figure_eight_s1_s2"].map)
    y, img = f.codomain, image_subcomplex(f)
    reads = []  # union-find runs: one per count
    real_count = separation._count_components
    monkeypatch.setattr(separation, "_count_components",
                        lambda *args: reads.append(1) or real_count(*args))
    assert complement_components_oracle(y, img) == 3
    assert complement_components_oracle(y, img) == 3
    assert len(reads) == 1
    twin = Subcomplex(y, img.simplices)  # equal, but a distinct object
    assert twin == img and twin is not img
    assert complement_components_oracle(y, twin) == 3
    assert len(reads) == 2


def test_hypotheses_equator_all_true():
    hyp = check_hypotheses_thm32(CATALOG["equator_s1_s2"].map)
    assert hyp == {"h1_Y_zero": True, "domain_connected": True, "A_proper": True,
                   "Y_minus_fA_connected": True}


def test_hypotheses_figure_eight_all_true():
    hyp = check_hypotheses_thm32(CATALOG["figure_eight_s1_s2"].map)
    assert hyp == {"h1_Y_zero": True, "domain_connected": True, "A_proper": True,
                   "Y_minus_fA_connected": True}


def test_hypotheses_torus_fails_h1():
    hyp = check_hypotheses_thm32(CATALOG["essential_circle_t2"].map)
    assert not hyp["h1_Y_zero"]


def test_formula_equator_s1_s2():
    rep = beta0_formula_thm32(CATALOG["equator_s1_s2"].map)
    assert (rep.coker_dim, rep.beta0_formula, rep.beta0_oracle) == (0, 2, 2)
    assert rep.agreement


def test_formula_equator_s2_s3():
    rep = beta0_formula_thm32(CATALOG["equator_s2_s3"].map)
    assert (rep.coker_dim, rep.beta0_formula, rep.beta0_oracle) == (0, 2, 2)
    assert rep.agreement


def test_formula_figure_eight():
    rep = beta0_formula_thm32(CATALOG["figure_eight_s1_s2"].map)
    assert (rep.coker_dim, rep.beta0_formula, rep.beta0_oracle) == (1, 3, 3)
    assert rep.agreement


def test_formula_triple_bouquet():
    rep = beta0_formula_thm32(CATALOG["triple_bouquet_s1_s2"].map)
    assert (rep.coker_dim, rep.beta0_formula, rep.beta0_oracle) == (2, 4, 4)
    assert rep.agreement


def test_formula_report_json_keys_are_stable():
    rep = beta0_formula_thm32(CATALOG["figure_eight_s1_s2"].map)
    assert list(rep.to_json_dict()) == [
        "h1_Y_zero", "A_proper", "Y_minus_fA_connected",
        "coker_dim", "beta0_formula", "beta0_oracle", "agreement"]


def test_refusal_torus_names_h1():
    with pytest.raises(HypothesisError) as exc:
        beta0_formula_thm32(CATALOG["essential_circle_t2"].map)
    assert exc.value.hypothesis == "h1_Y_zero"


def test_refusal_equal_dimensions_names_certificate():
    with pytest.raises(HypothesisError) as exc:
        beta0_formula_thm32(CATALOG["double_wrap_s1"].map)
    assert exc.value.hypothesis == "codomain_closed_manifold"


def _count_oracle_calls_on_b(monkeypatch, cid):
    """beta0_formula_thm32 on a catalog map, counting oracle calls on its B."""
    from sepcheck import separation
    f = CATALOG[cid].map
    b = self_intersection(f).B
    calls = []
    real = separation.complement_components_oracle

    def counting(y, sub):
        calls.append(sub == b)
        return real(y, sub)

    monkeypatch.setattr(separation, "complement_components_oracle", counting)
    try:
        beta0_formula_thm32(f)
    except HypothesisError:
        pass
    return sum(calls)


def test_refused_h1_skips_oracle_on_b(monkeypatch):
    assert _count_oracle_calls_on_b(monkeypatch, "essential_circle_t2") == 0


def test_accepted_map_runs_oracle_on_b_once(monkeypatch):
    assert _count_oracle_calls_on_b(monkeypatch, "figure_eight_s1_s2") == 1


def test_embedding_needs_no_oracle_on_empty_b(monkeypatch):
    # B is empty, so Y - f(B) is Y and its b0 decides connectedness
    assert _count_oracle_calls_on_b(monkeypatch, "equator_s1_s2") == 0


def test_empty_b_in_disconnected_codomain_is_refused():
    """An equator of one octahedron mapped into two disjoint octahedra."""
    faces = [list(s) for s in octahedron().maximal_simplices()]
    two = SimplicialComplex.from_maximal_simplices(
        "two_octahedra", faces + [[v.upper() for v in s] for s in faces])
    square = square_circle()
    f = SimplicialMap("equator_in_two", square, two, {v: v for v in square.vertices})
    assert self_intersection(f).B.is_empty()
    assert check_hypotheses_thm32(f) == {
        "h1_Y_zero": True, "domain_connected": True, "A_proper": True,
        "Y_minus_fA_connected": False}
    with pytest.raises(HypothesisError) as exc:
        beta0_formula_thm32(f)
    assert exc.value.hypothesis == "Y_minus_fA_connected"


def test_hypotheses_report_every_key_when_h1_fails():
    hyp = check_hypotheses_thm32(CATALOG["essential_circle_t2"].map)
    assert list(hyp) == ["h1_Y_zero", "domain_connected", "A_proper", "Y_minus_fA_connected"]
    assert all(isinstance(v, bool) for v in hyp.values())


def test_torus_oracle_is_one():
    f = CATALOG["essential_circle_t2"].map
    assert complement_components_oracle(f.codomain, image_subcomplex(f)) == 1


def test_jordan_brouwer_embeddings():
    assert jordan_brouwer_check(CATALOG["equator_s1_s2"].map)
    assert jordan_brouwer_check(CATALOG["equator_s2_s3"].map)


def test_jordan_brouwer_rejects_non_embedding():
    with pytest.raises(HypothesisError) as exc:
        jordan_brouwer_check(CATALOG["figure_eight_s1_s2"].map)
    assert exc.value.hypothesis == "is_embedding"


def _two_circles_in_sd_octahedron():
    """The links of the two poles of Sd(octahedron): disjoint embedded circles."""
    sd, _ = barycentric_subdivide(octahedron())
    circles = Subcomplex(sd, link(sd, ("⟨n⟩",)).simplices | link(sd, ("⟨s⟩",)).simplices)
    return inclusion(circles, "two_circles")


def test_disconnected_domain_is_refused():
    f = _two_circles_in_sd_octahedron()
    assert self_intersection(f).is_embedding
    assert image_components(f) == 3  # 2 + coker would say 2
    assert check_hypotheses_thm32(f) == {
        "h1_Y_zero": True, "domain_connected": False, "A_proper": True,
        "Y_minus_fA_connected": True}
    for check in (beta0_formula_thm32, jordan_brouwer_check):
        with pytest.raises(HypothesisError) as exc:
            check(f)
        assert exc.value.hypothesis == "domain_connected"
    report, code = analyze_instance(f)
    assert code == EXIT_REFUSED
    assert report["separation"] == {"refused": "domain_connected"}


def test_jordan_brouwer_survives_subdivision():
    f, _, _ = subdivide_map(CATALOG["equator_s1_s2"].map)
    assert jordan_brouwer_check(f)


def test_prop_disconnection_records():
    rec = prop34_check(CATALOG["figure_eight_s1_s2"].map)
    assert rec == {"dimA": 0, "applies": True, "disconnected": True}
    rec = prop34_check(CATALOG["equator_s1_s2"].map)
    assert rec == {"dimA": -1, "applies": True, "disconnected": True}
    rec = prop34_check(CATALOG["double_wrap_s1"].map)
    assert rec["dimA"] == 1 and not rec["applies"] and rec["disconnected"] is None


def test_eq1_identity_on_simply_connected_codomains():
    for cid in ("equator_s1_s2", "equator_s2_s3",
                "figure_eight_s1_s2", "triple_bouquet_s1_s2"):
        assert eq1_identity_check(CATALOG[cid].map), cid


def test_eq1_refuses_torus_codomain():
    with pytest.raises(HypothesisError):
        eq1_identity_check(CATALOG["essential_circle_t2"].map)


def test_oracle_subdivision_stability():
    for cid in ("equator_s1_s2", "equator_s2_s3",
                "figure_eight_s1_s2", "triple_bouquet_s1_s2",
                "essential_circle_t2"):
        f = CATALOG[cid].map
        base = complement_components_oracle(f.codomain, image_subcomplex(f))
        g, _, _ = subdivide_map(f)
        after = complement_components_oracle(g.codomain, image_subcomplex(g))
        assert after == base, cid


def test_formula_agreement_survives_subdivision():
    for cid in ("equator_s1_s2", "figure_eight_s1_s2"):
        g, _, _ = subdivide_map(CATALOG[cid].map)
        rep = beta0_formula_thm32(g)
        assert rep.agreement
        assert rep.beta0_formula == CATALOG[cid].expected["beta0_formula"]


def _oracle_reference(y, sub):
    """Union-find over the face poset, joining each outside simplex to its outside facets.

    The outside simplices are closed upwards, so for outside s < t every
    simplex between them is outside and a chain of facets leads from t to s.
    """
    index, facets = facet_table(y)
    excluded = bytearray(len(facets))
    for s in sub.simplices:
        excluded[index[s]] = 1
    parent = list(range(len(facets)))
    # Facets come first in the table, so simplex i is still a singleton when
    # its turn comes and stays the root of everything joined to it; each
    # outside simplex adds a component and each union removes one.
    count = 0
    for i, faces in enumerate(facets):
        if excluded[i]:
            continue
        count += 1
        for j in faces:
            if not excluded[j]:
                while parent[j] != j:  # path halving
                    parent[j] = j = parent[parent[j]]
                if j != i:
                    parent[j] = i
                    count -= 1
    return count


def _oracle_all_faces_reference(y, sub):
    """Union-find joining each outside simplex to every outside proper face."""
    nodes = [s for s in y.simplices if s not in sub.simplices]
    idx = {s: i for i, s in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s in nodes:
        for d in range(1, len(s)):
            for face in combinations(s, d):
                j = idx.get(face)
                if j is not None:
                    parent[find(idx[s])] = find(j)
    return len({find(i) for i in range(len(nodes))})


def _assert_oracle_matches_references(y, sub):
    got = complement_components_oracle(y, sub)
    assert got == _oracle_reference(y, sub)
    assert got == _oracle_all_faces_reference(y, sub)
    assert got == connected_components(complementary_complex(y, sub))


@st.composite
def complexes_with_subcomplex(draw):
    k = draw(small_complexes(max_dim=4))
    chosen = draw(st.sets(st.sampled_from(sorted(k.simplices))))
    return k, Subcomplex.closure(k, chosen)


@given(complexes_with_subcomplex())
@settings(max_examples=200, deadline=None)
def test_oracle_matches_references_on_random_subcomplexes(case):
    _assert_oracle_matches_references(*case)


def test_oracle_matches_references_on_catalog_at_sd1():
    for cid, entry in sorted(CATALOG.items()):
        g, _, _ = subdivide_map(entry.map)
        for sub in (image_subcomplex(g), self_intersection(g).B):
            _assert_oracle_matches_references(g.codomain, sub)


def test_oracle_matches_reference_on_catalog_at_sd0_to_sd2():
    for cid, entry in sorted(CATALOG.items()):
        g = entry.map
        for level in range(3):
            if level:
                g, _, _ = subdivide_map(g)
            for sub in (image_subcomplex(g), self_intersection(g).B):
                assert complement_components_oracle(g.codomain, sub) \
                    == _oracle_reference(g.codomain, sub), (cid, level)


def test_oracle_counts_through_spanning_simplices():
    """Subcomplexes that are not full, so outside simplices span inside vertices."""
    tet = SimplicialComplex.from_maximal_simplices("tet", [["a", "b", "c", "d"]])
    hollow = Subcomplex.closure(tet, [("a", "b"), ("b", "c"), ("a", "c")])
    assert complement_components_oracle(tet, hollow) == 1  # abc joins d through abcd
    tri = SimplicialComplex.from_maximal_simplices("tri", [["a", "b", "c"]])
    corners = Subcomplex.closure(tri, [("a",), ("b",), ("c",)])
    assert complement_components_oracle(tri, corners) == 1  # ab, bc, ac join through abc


def test_oracle_counts_each_subcomplex_of_one_complex():
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    disk = Subcomplex.closure(k, [("a", "b", "n")])
    split = Subcomplex.closure(k, [*equator.simplices, ("a", "n"), ("c", "n")])
    counts = [complement_components_oracle(k, sub)
              for sub in (equator, Subcomplex(k, []), disk, split, equator,
                          Subcomplex(k, k.simplices))]
    assert counts == [2, 1, 1, 3, 2, 0]
