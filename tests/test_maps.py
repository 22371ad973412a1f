import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepcheck.catalog import build_catalog, hexagon, octahedron, triangle_circle
from sepcheck.complexes import SimplicialComplex, barycenter_label
from sepcheck.homology import chain_complex
from sepcheck.maps import (
    SimplicialMap,
    chain_map,
    image_subcomplex,
    inclusion,
    self_intersection,
    subdivide_map,
)
from test_gf2 import identity


def identity_map(k):
    return SimplicialMap(f"id_{k.name}", k, k, {v: v for v in k.vertices})


def test_validate_rejects_nonadjacent_images():
    # a and c are opposite vertices of the octahedron equator: not an edge
    vm = {f"h{i}": ("a" if i % 2 == 0 else "c") for i in range(6)}
    with pytest.raises(ValueError, match=r"^vertex map of 'bad' is not simplicial$"):
        SimplicialMap("bad", hexagon(), octahedron(), vm)


ALL_TO_N = {f"h{i}": "n" for i in range(6)}


@pytest.mark.parametrize("vm, message", [
    ({"h0": "n", "h2": "n"}, "vertex map not total; missing ['h1', 'h3', 'h4', 'h5']"),
    ({**ALL_TO_N, "z": "n"}, "vertex map of 'f' has keys that are not domain vertices: ['z']"),
    ({f"h{i}": "ac"[i % 2] for i in range(6)}, "vertex map of 'f' is not simplicial"),
    # the rules are checked in this order, so a map breaking all three is not total
    ({"h0": "a", "h1": "c", "z": "n"}, "vertex map not total; missing ['h2', 'h3', 'h4', 'h5']"),
    ({"h0": "a", "h1": "c", "h2": "a", "h3": "c", "h4": "a", "h5": "c", "z": "n"},
     "vertex map of 'f' has keys that are not domain vertices: ['z']"),
], ids=["not_total", "key_outside_domain", "not_simplicial", "total_first", "keys_second"])
def test_constructor_checks_the_vertex_map(vm, message):
    with pytest.raises(ValueError) as exc:
        SimplicialMap("f", hexagon(), octahedron(), vm)
    assert str(exc.value) == message


@st.composite
def vertex_maps(draw):
    """Maximal simplices of a domain and a codomain, and a total vertex map between them."""
    maximal = st.lists(st.sets(st.sampled_from("abcde"), min_size=1, max_size=3),
                       min_size=1, max_size=6)
    dom_max, cod_max = draw(maximal), draw(maximal)
    cod_vertices = sorted(set().union(*cod_max))
    vm = {v: draw(st.sampled_from(cod_vertices)) for v in sorted(set().union(*dom_max))}
    return dom_max, cod_max, vm


@given(vertex_maps())
@example(([{"a", "b"}], [{"a"}, {"b"}], {"a": "a", "b": "b"}))  # an edge onto two points
@example(([{"a", "b", "c"}], [{"a", "b"}], {"a": "a", "b": "b", "c": "a"}))  # a collapse
@settings(max_examples=200, deadline=None)
def test_constructor_accepts_exactly_the_simplicial_vertex_maps(case):
    dom_max, cod_max, vm = case
    dom = SimplicialComplex.from_maximal_simplices("M", [sorted(s) for s in dom_max])
    cod = SimplicialComplex.from_maximal_simplices("N", [sorted(s) for s in cod_max])
    # a vertex map is simplicial iff each maximal simplex goes into a maximal simplex
    if all(any({vm[v] for v in s} <= c for c in cod_max) for s in dom_max):
        f = SimplicialMap("f", dom, cod, vm)
        assert set(f.images().values()) <= cod.simplices
    else:
        with pytest.raises(ValueError, match=r"^vertex map of 'f' is not simplicial$"):
            SimplicialMap("f", dom, cod, vm)


def test_image_subcomplex_identity_and_constant():
    k = hexagon()
    assert image_subcomplex(identity_map(k)).simplices == k.simplices
    const = SimplicialMap("const", k, octahedron(), {v: "n" for v in k.vertices})
    assert image_subcomplex(const).simplices == frozenset({("n",)})


def test_image_subcomplex_figure_eight_is_wedge():
    f = build_catalog()["figure_eight_s1_s2"].map
    img = image_subcomplex(f)
    verts = {s[0] for s in img.simplices if len(s) == 1}
    edges = {s for s in img.simplices if len(s) == 2}
    assert verts == {"n", "a", "b", "c", "d"}
    assert len(edges) == 6
    chi = len(verts) - len(edges)
    assert chi == -1  # wedge of two circles


def test_chain_map_identity_is_identity_matrix():
    k = octahedron()
    for d in range(3):
        m = chain_map(identity_map(k), d)
        assert m == identity(len(k.simplices_of_dim(d)))


def test_chain_map_constant_kills_positive_degrees():
    f = SimplicialMap("const", hexagon(), octahedron(),
                      {v: "n" for v in hexagon().vertices})
    assert chain_map(f, 1).is_zero()


def test_chain_map_double_wrap_columns():
    f = build_catalog()["double_wrap_s1"].map
    m = chain_map(f, 1)
    # every hexagon edge maps to a genuine triangle edge: one bit per column
    assert all(col.bit_count() == 1 for col in m.data)
    # each triangle edge has exactly two preimages, so column sums cancel mod 2
    for i in range(m.rows):
        assert sum((col >> i) & 1 for col in m.data) == 2
    acc = 0
    for col in m.data:
        acc ^= col
    assert acc == 0


def test_chain_map_commutes_with_boundary_on_catalog():
    for entry in build_catalog().values():
        f = entry.map
        cd = chain_complex(f.domain)
        cc = chain_complex(f.codomain)
        for d in range(1, f.domain.dim + 1):
            lhs = cc.boundary_map(d).matmul(chain_map(f, d))
            rhs = chain_map(f, d - 1).matmul(cd.boundary_map(d))
            assert lhs == rhs, (entry.id, d)


def test_chain_map_functoriality():
    f = build_catalog()["figure_eight_s1_s2"].map
    si = self_intersection(f)
    i = inclusion(si.A)  # A -> hexagon
    comp = SimplicialMap("f_after_i", i.domain, f.codomain,
                         {v: f.vertex_map[i.vertex_map[v]] for v in i.domain.vertices})
    for d in range(2):
        assert chain_map(comp, d) == chain_map(f, d).matmul(chain_map(i, d))


def test_self_intersection_embedding_is_empty():
    f = build_catalog()["equator_s1_s2"].map
    si = self_intersection(f)
    assert si.is_embedding and si.A.is_empty() and si.dim_A == -1


def test_self_intersection_figure_eight_two_points():
    f = build_catalog()["figure_eight_s1_s2"].map
    si = self_intersection(f)
    assert si.A.simplices == frozenset({("h0",), ("h3",)})
    assert si.B.simplices == frozenset({("n",)})
    assert not si.is_embedding and si.dim_A == 0


def test_self_intersection_double_wrap_is_whole_domain():
    f = build_catalog()["double_wrap_s1"].map
    si = self_intersection(f)
    assert si.A.simplices == f.domain.simplices
    assert si.dim_A == f.domain.dim


def test_embedding_flag_matches_brute_force_on_subdivision():
    # pointwise injectivity of a simplicial map == injective vertex map plus
    # pairwise-distinct nondegenerate simplex images; checked on Sd(domain)
    for entry in build_catalog().values():
        f = entry.map
        g, sd_dom, _ = subdivide_map(f)
        injective_vertices = len(set(g.vertex_map.values())) == len(sd_dom.vertices)
        images = [g.image_simplex(s) for s in sd_dom.simplices]
        nondegenerate = all(
            len(g.image_simplex(s)) == len(s) for s in sd_dom.simplices)
        distinct = len(set(images)) == len(images)
        brute_embedding = injective_vertices and nondegenerate and distinct
        assert self_intersection(f).is_embedding == brute_embedding, entry.id


def test_self_intersection_is_face_closed():
    from itertools import combinations
    for entry in build_catalog().values():
        a = self_intersection(entry.map).A
        for s in a.simplices:
            for d in range(1, len(s)):
                for face in combinations(s, d):
                    assert face in a.simplices


def test_map_file_roundtrip(tmp_path):
    import json
    f = build_catalog()["figure_eight_s1_s2"].map
    path = tmp_path / "map.json"
    f.save(path)
    complexes = {f.domain.name: f.domain, f.codomain.name: f.codomain}
    with open(path) as fh:
        back = SimplicialMap.from_json_dict(json.load(fh), complexes)
    assert back.to_json_dict() == f.to_json_dict()


def test_map_load_rejects_invalid(tmp_path):
    import json
    vm = {f"h{i}": ("a" if i % 2 == 0 else "c") for i in range(6)}
    doc = {"name": "bad", "domain": "hexagon", "codomain": "octahedron",
           "vertex_map": vm}
    complexes = {"hexagon": hexagon(), "octahedron": octahedron()}
    with pytest.raises(ValueError):
        SimplicialMap.from_json_dict(doc, complexes)
    with pytest.raises(ValueError):
        SimplicialMap.from_json_dict({"name": "x"}, complexes)


def test_subdivide_map_is_simplicial_on_catalog():
    for entry in build_catalog().values():
        g, sd_dom, sd_cod = subdivide_map(entry.map)
        assert g.domain is sd_dom and g.codomain is sd_cod


def test_subdivide_map_of_a_self_map_subdivides_once():
    f = build_catalog()["rp2_identity"].map
    assert f.codomain is f.domain
    g, sd_dom, sd_cod = subdivide_map(f)
    assert sd_cod is sd_dom and g.codomain is g.domain
    h, _, _ = subdivide_map(g)
    assert h.codomain is h.domain


def test_subdivide_map_sends_each_barycenter_to_the_image_barycenter():
    for entry in build_catalog().values():
        f = entry.map
        g, _, _ = subdivide_map(f)
        assert g.vertex_map == {barycenter_label(s): barycenter_label(f.image_simplex(s))
                                for s in f.domain.simplices}, entry.id


def test_subdivision_shares_one_label_object_per_barycenter():
    g, _, sd_s3 = subdivide_map(build_catalog()["equator_s2_s3"].map)
    assert len({id(v) for s in sd_s3.simplices for v in s}) == len(sd_s3.vertices)
    own = {id(v) for v in sd_s3.vertices}
    assert all(id(w) in own for w in g.vertex_map.values())
