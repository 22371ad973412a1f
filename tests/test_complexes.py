import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepcheck.catalog import (
    build_catalog,
    circle,
    cross_polytope_s3,
    csaszar_torus,
    hexagon,
    octahedron,
    rp2_six_vertex,
    square_circle,
    triangle_circle,
)
from sepcheck.complexes import (
    SimplicialComplex,
    Subcomplex,
    _count_components,
    _link_betti,
    barycenter_label,
    barycentric_subdivide,
    complementary_complex,
    link,
    manifold_certificate,
    sorted_by_dim,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** d * len(k.simplices_of_dim(d)) for d in range(k.dim + 1))


def connected_components(k) -> int:
    """Components of the vertex-edge graph of a complex or a subcomplex
    (isolated vertices count)."""
    if isinstance(k, Subcomplex):
        verts = [s[0] for s in k.simplices if len(s) == 1]
        edges = [s for s in k.simplices if len(s) == 2]
    else:
        verts, edges = list(k.vertices), k.simplices_of_dim(1)
    return _count_components(verts, edges)


def test_from_maximal_triangle_circle():
    k = SimplicialComplex.from_maximal_simplices(
        "tri", [["a", "b"], ["b", "c"], ["c", "a"]])
    assert len(k.vertices) == 3
    assert len(k.simplices_of_dim(1)) == 3
    assert euler_characteristic(k) == 0


def test_from_maximal_octahedron_counts():
    k = octahedron()
    counts = [len(k.simplices_of_dim(d)) for d in range(3)]
    assert counts == [6, 12, 8]
    assert euler_characteristic(k) == 2


def test_from_maximal_point():
    k = SimplicialComplex.from_maximal_simplices("pt", [["p"]])
    assert euler_characteristic(k) == 1 and k.dim == 0


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_simplices("bad", [["a", "a"]])


def test_face_closure_holds():
    from itertools import combinations
    for k in (octahedron(), cross_polytope_s3(), rp2_six_vertex()):
        for s in k.simplices:
            for d in range(1, len(s)):
                for f in combinations(s, d):
                    assert f in k.simplices


def test_euler_characteristic_examples():
    assert euler_characteristic(hexagon()) == 0
    # 3-sphere as the boundary of the 4-dimensional cross-polytope
    s3 = cross_polytope_s3()
    counts = [len(s3.simplices_of_dim(d)) for d in range(4)]
    assert counts == [8, 24, 32, 16]
    assert euler_characteristic(s3) == 8 - 24 + 32 - 16 == 0


def test_subdivide_edge():
    k = SimplicialComplex.from_maximal_simplices("edge", [["a", "b"]])
    sd, vertex_of = barycentric_subdivide(k)
    assert len(sd.vertices) == 3 and len(sd.simplices_of_dim(1)) == 2
    assert vertex_of["⟨a.b⟩"] == ("a", "b")
    assert vertex_of["⟨a⟩"] == ("a",)


def test_subdivide_triangle_circle_is_hexagon():
    sd, _ = barycentric_subdivide(triangle_circle())
    assert len(sd.vertices) == 6 and len(sd.simplices_of_dim(1)) == 6
    assert euler_characteristic(sd) == 0


def test_subdivide_octahedron():
    sd, _ = barycentric_subdivide(octahedron())
    assert len(sd.vertices) == 6 + 12 + 8 == 26
    assert euler_characteristic(sd) == 2


def test_subdivision_preserves_euler_characteristic():
    for k in (hexagon(), square_circle(), octahedron(),
              csaszar_torus(), rp2_six_vertex()):
        sd, _ = barycentric_subdivide(k)
        assert euler_characteristic(sd) == euler_characteristic(k)


def test_complementary_complex_of_empty_is_everything():
    k = octahedron()
    comp = complementary_complex(k, Subcomplex(k, []))
    sd, _ = barycentric_subdivide(k)
    assert comp.simplices == sd.simplices


def test_complementary_complex_of_everything_is_empty():
    k = octahedron()
    comp = complementary_complex(k, Subcomplex(k, k.simplices))
    assert comp.is_empty()


def test_complementary_complex_of_equator_is_two_caps():
    k = octahedron()
    equator = Subcomplex.closure(k, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    comp = complementary_complex(k, equator)
    assert connected_components(comp) == 2
    # each cap is contractible: split by pole and check Euler characteristic
    north = {s for s in comp.simplices if all("n" in v for v in s)}
    south = {s for s in comp.simplices if all("s" in v for v in s)}
    assert north | south == comp.simplices
    for piece in (north, south):
        chi = sum(1 if len(s) % 2 else -1 for s in piece)
        assert chi == 1


def test_connected_components_examples():
    assert connected_components(SimplicialComplex("empty", [])) == 0
    assert connected_components(hexagon()) == 1
    two = SimplicialComplex.from_maximal_simplices(
        "two_triangles", [["a", "b", "c"], ["x", "y", "z"]])
    assert connected_components(two) == 2


def test_link_examples():
    assert len(link(hexagon(), ("h0",)).vertices) == 2      # two points
    lk_v = link(octahedron(), ("n",))
    assert len(lk_v.vertices) == 4 and len(lk_v.simplices_of_dim(1)) == 4
    lk_e = link(octahedron(), ("a", "n"))
    assert sorted(lk_e.vertices) == ["b", "d"] and lk_e.dim == 0


def test_link_rejects_missing_simplex():
    with pytest.raises(ValueError):
        link(hexagon(), ("nope",))


def test_manifold_certificate_positive():
    assert manifold_certificate(hexagon(), 1)["is_closed_z2_homology_n_manifold"]
    assert manifold_certificate(octahedron(), 2)["is_closed_z2_homology_n_manifold"]


def test_manifold_certificate_disk_fails_on_boundary():
    disk = SimplicialComplex.from_maximal_simplices(
        "two_glued_triangles", [["a", "b", "c"], ["b", "c", "d"]])
    cert = manifold_certificate(disk, 2)
    assert not cert["is_closed_z2_homology_n_manifold"]
    boundary_edges = {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    assert boundary_edges <= set(cert["failures"])


def test_certificate_wrong_dimension_fails():
    assert not manifold_certificate(hexagon(), 2)["is_closed_z2_homology_n_manifold"]


def test_file_roundtrip_bit_exact(tmp_path):
    for k in (hexagon(), octahedron(), rp2_six_vertex()):
        path = tmp_path / f"{k.name}.json"
        k.save(path)
        back = SimplicialComplex.load(path)
        assert back == k
        # a second normalize pass is bit-exact
        assert json.dumps(back.to_json_dict()) == json.dumps(k.to_json_dict())


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(ValueError):
        SimplicialComplex.load(path)


def test_subcomplex_must_be_face_closed():
    k = octahedron()
    with pytest.raises(ValueError):
        Subcomplex(k, [("a", "b")])  # vertices missing
    with pytest.raises(ValueError):
        Subcomplex(k, [("a", "c")])  # not a simplex of the parent


# -- local links against the brute-force definitions -------------------------

def _link_reference(k, s):
    """The link by definition: every t with t ∩ s = ∅ and t ∪ s in k."""
    s = tuple(sorted(s))
    out = [t for t in k.simplices
           if set(s).isdisjoint(t) and tuple(sorted(set(t) | set(s))) in k.simplices]
    return SimplicialComplex.from_maximal_simplices(f"lk({k.name},{'.'.join(s)})", out)


def _certificate_reference(k, n):
    """Closed-manifold certificate scanning every top simplex per ridge."""
    from sepcheck.homology import betti_numbers, chain_complex

    if k.dim != n or not k.simplices:
        return {"is_closed_z2_homology_n_manifold": False,
                "failures": sorted(k.simplices, key=lambda s: (len(s), s))[:1]}
    failures = []
    top = k.simplices_of_dim(n)
    covered = {f for t in top for d in range(1, len(t) + 1) for f in combinations(t, d)}
    failures += [s for s in k.simplices if s not in covered]
    for s in k.simplices_of_dim(n - 1):
        if sum(1 for t in top if set(s) <= set(t)) != 2:
            failures.append(s)
    for s in sorted(k.simplices, key=lambda x: (len(x), x)):
        d = n - len(s)
        lk = _link_reference(k, s)
        if d < 0:
            if lk.simplices:
                failures.append(s)
            continue
        if not lk.simplices:
            failures.append(s)
            continue
        b = betti_numbers(chain_complex(lk))
        want = [2 if d == 0 else 1] + [0] * max(lk.dim, d)
        if d > 0:
            want[d] = 1
        if [b.get(i, 0) for i in range(len(want))] != want:
            failures.append(s)
    return {"is_closed_z2_homology_n_manifold": not failures,
            "failures": sorted(set(failures), key=lambda s: (len(s), s))}


def _certificate_by_links(k, n):
    """Closed-manifold certificate building every link and its chain complex."""
    from sepcheck.homology import betti_numbers, chain_complex

    failures = []
    if k.dim != n or not k.simplices:
        return {"is_closed_z2_homology_n_manifold": False,
                "failures": sorted(k.simplices, key=lambda s: (len(s), s))[:1]}
    for s in sorted(k.simplices, key=lambda x: (len(x), x)):
        d = n - len(s)
        if d < 0:
            continue
        lk = link(k, s)
        if not lk.simplices:
            failures.append(s)
            continue
        b = betti_numbers(chain_complex(lk))
        want = [2 if d == 0 else 1] + [0] * max(lk.dim, d)
        if d > 0:
            want[d] = 1
        if [b.get(i, 0) for i in range(len(want))] != want:
            failures.append(s)
    return {"is_closed_z2_homology_n_manifold": not failures, "failures": failures}


def _maximal_reference(k):
    return sorted(s for s in k.simplices
                  if not any(s != t and set(s) <= set(t) for t in k.simplices))


def _catalog_complexes():
    return {k.name: k for e in build_catalog().values() for k in e.complexes.values()}


def _catalog_complexes_and_sd():
    out = _catalog_complexes()
    for k in list(out.values()):
        sd, _ = barycentric_subdivide(k)
        out.setdefault(sd.name, sd)
    return out


def _broken_complexes():
    """A dangling edge, a removed triangle, two octahedra wedged at n."""
    oct_faces = [list(s) for s in octahedron().maximal_simplices()]
    dangling = SimplicialComplex.from_maximal_simplices(
        "dangling", oct_faces + [["n", "x"]])
    holed = SimplicialComplex.from_maximal_simplices("holed", oct_faces[1:])
    copy = [[v if v == "n" else v.upper() for v in f] for f in oct_faces]
    wedge = SimplicialComplex.from_maximal_simplices("wedge", oct_faces + copy)
    return [dangling, holed, wedge]


@st.composite
def small_complexes(draw, max_dim=3):
    """Closure of up to 8 random simplices on at most 7 vertices, dim <= max_dim."""
    verts = "abcdefg"
    maximal = draw(st.lists(st.sets(st.sampled_from(verts), min_size=1, max_size=max_dim + 1),
                            min_size=1, max_size=8))
    return SimplicialComplex.from_maximal_simplices("random", [sorted(s) for s in maximal])


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_local_link_matches_definition_on_random_complexes(k):
    for s in k.simplices:
        assert link(k, s) == _link_reference(k, s)
    assert k.maximal_simplices() == _maximal_reference(k)
    assert manifold_certificate(k, k.dim) == _certificate_reference(k, k.dim)
    assert manifold_certificate(k, k.dim) == _certificate_by_links(k, k.dim)


def test_local_link_matches_definition_on_catalog_and_sd():
    for k in _catalog_complexes_and_sd().values():
        simplices = sorted(k.simplices)
        if len(simplices) > 1000:
            # The reference scans every pair of simplices; on Sd of the
            # 3-sphere (1,696 simplices) a fixed stride keeps every dimension.
            simplices = simplices[::17]
        for s in simplices:
            assert link(k, s) == _link_reference(k, s)  # == compares names too


def test_maximal_simplices_matches_brute_force():
    for k in [*_catalog_complexes_and_sd().values(), *_broken_complexes()]:
        if len(k.simplices) <= 1000:
            assert k.maximal_simplices() == _maximal_reference(k)
    sd, _ = barycentric_subdivide(cross_polytope_s3())
    assert sd.maximal_simplices() == sd.simplices_of_dim(3)


def test_certificate_matches_reference_on_catalog():
    for k in _catalog_complexes().values():
        fresh = _fresh(k)
        want = _certificate_reference(fresh, k.dim)
        assert want["is_closed_z2_homology_n_manifold"]
        assert manifold_certificate(fresh, k.dim) == want


def test_certificate_matches_reference_on_broken_complexes():
    dangling, holed, wedge = _broken_complexes()
    for k in (dangling, holed, wedge):
        want = _certificate_reference(k, 2)
        assert not want["is_closed_z2_homology_n_manifold"]
        assert manifold_certificate(k, 2) == want == _certificate_by_links(k, 2)
    assert ("n", "x") in manifold_certificate(dangling, 2)["failures"]
    hole = octahedron().maximal_simplices()[0]
    assert set(combinations(hole, 2)) <= set(manifold_certificate(holed, 2)["failures"])
    assert ("n",) in manifold_certificate(wedge, 2)["failures"]


def test_certificate_failures_come_in_canonical_order():
    """Sd of a disk lists its simplices in build order, not sorted, and so
    do its failures: the boundary vertices and edges, dimension by dimension."""
    disk = SimplicialComplex.from_maximal_simplices("disk", [["a", "b", "c"], ["a", "c", "d"]])
    sd, _ = barycentric_subdivide(disk)
    failures = manifold_certificate(sd, 2)["failures"]
    assert set(failures) == set(_certificate_reference(sd, 2)["failures"])
    assert len(failures) == len(set(failures)) == 16
    assert failures == [s for d in range(sd.dim + 1) for s in sd.simplices_of_dim(d)
                        if s in set(failures)]
    assert failures != sorted(failures, key=lambda s: (len(s), s))


def _fresh(k):
    """k without the certificate and Betti numbers it may have inherited."""
    return SimplicialComplex(k.name, [k.simplices_of_dim(d) for d in range(k.dim + 1)])


def test_certificate_matches_per_link_reference_on_catalog_and_sd():
    for k in _catalog_complexes_and_sd().values():
        want = _certificate_by_links(_fresh(k), k.dim)
        assert want["is_closed_z2_homology_n_manifold"]
        assert manifold_certificate(_fresh(k), k.dim) == want


CATALOG_COMPLEXES = sorted(_catalog_complexes().values(), key=lambda k: k.name)


@st.composite
def perturbed_catalog_complexes(draw):
    """(catalog complex with one top simplex removed, one random simplex
    added, or two copies wedged at a vertex; the catalog dimension)."""
    base = draw(st.sampled_from(CATALOG_COMPLEXES))
    maximal = [list(s) for s in base.maximal_simplices()]
    how = draw(st.sampled_from(["remove", "add", "wedge"]))
    if how == "remove":
        del maximal[draw(st.integers(0, len(maximal) - 1))]
    elif how == "add":
        pool = list(base.vertices) + ["new"]
        maximal.append(sorted(draw(st.sets(st.sampled_from(pool), min_size=1,
                                           max_size=base.dim + 1))))
    else:
        v = draw(st.sampled_from(base.vertices))
        maximal += [[u if u == v else u + "'" for u in s] for s in maximal]
    return SimplicialComplex.from_maximal_simplices(f"{how}({base.name})", maximal), base.dim


@given(perturbed_catalog_complexes())
@settings(max_examples=100, deadline=None)
def test_certificate_matches_per_link_reference_on_perturbed_catalog(case):
    k, n = case
    assert manifold_certificate(k, n) == _certificate_by_links(k, n)


def _count_link_builds(monkeypatch, k, n):
    """Links manifold_certificate(k, n) builds; k must pass."""
    from sepcheck import complexes
    built = []

    def counting(k, s):
        built.append(s)
        return link(k, s)

    monkeypatch.setattr(complexes, "link", counting)
    assert manifold_certificate(k, n)["is_closed_z2_homology_n_manifold"]
    return len(built)


def test_certificate_builds_no_link_below_dimension_three(monkeypatch):
    sd_octa, _ = barycentric_subdivide(octahedron())
    assert _count_link_builds(monkeypatch, _fresh(sd_octa), 2) == 0
    sd_s3, _ = barycentric_subdivide(cross_polytope_s3())
    assert _count_link_builds(monkeypatch, _fresh(sd_s3), 3) == 0


def _suspension(k):
    """k joined with two apexes, ``north`` and ``south``."""
    return SimplicialComplex.from_maximal_simplices(
        f"S({k.name})", [[*s, pole] for s in k.maximal_simplices() for pole in ("north", "south")])


@pytest.mark.parametrize("surface", [csaszar_torus, rp2_six_vertex])
def test_suspended_surface_fails_exactly_at_its_apexes(surface):
    """Each apex has the surface as its link: a torus or RP², not a 2-sphere."""
    k = _suspension(surface())
    cert = manifold_certificate(k, 3)
    assert cert == {"is_closed_z2_homology_n_manifold": False,
                    "failures": [("north",), ("south",)]}
    assert cert == _certificate_by_links(k, 3)


def test_suspended_sphere_is_a_manifold():
    k = _suspension(octahedron())
    assert manifold_certificate(k, 3) == {"is_closed_z2_homology_n_manifold": True,
                                          "failures": []}
    assert _certificate_by_links(k, 3)["is_closed_z2_homology_n_manifold"]


@st.composite
def two_complexes(draw):
    """Closure of up to 10 random simplices of dim <= 2 on 6 vertices."""
    maximal = draw(st.lists(st.sets(st.sampled_from("abcdef"), min_size=1, max_size=3),
                            min_size=1, max_size=10))
    return SimplicialComplex.from_maximal_simplices("random2", [sorted(s) for s in maximal])


@given(two_complexes())
@example(SimplicialComplex.from_maximal_simplices(  # an edge in 3 triangles, a loose triangle
    "book", [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"], ["f", "g", "h"]]))
@example(SimplicialComplex.from_maximal_simplices(  # edges in 1 triangle, a loose point
    "disk", [["a", "b", "c"], ["a", "c", "d"], ["x"]]))
@settings(max_examples=200, deadline=None)
def test_link_betti_matches_chain_complex_on_random_two_complexes(k):
    """The cone on k has k as the link of its apex."""
    from sepcheck.homology import betti_numbers, chain_complex

    cone = SimplicialComplex.from_maximal_simplices(
        f"C({k.name})", [[*s, "apex"] for s in k.maximal_simplices()])
    b = betti_numbers(chain_complex(k))
    assert _link_betti(chain_complex(cone).cofacets(), 0, cone.simplex_index(0)["apex",]) \
        == (b.get(0, 0), b.get(1, 0), b.get(2, 0))


def test_certificate_of_loaded_sd_three_sphere_is_fast(tmp_path):
    sd, _ = barycentric_subdivide(cross_polytope_s3())
    path = tmp_path / "sd_s3.json"
    sd.save(path)
    k = SimplicialComplex.load(path)
    assert not k._manifold_dims  # nothing inherited from the catalog
    start = time.perf_counter()
    cert = manifold_certificate(k, 3)
    elapsed = time.perf_counter() - start
    assert cert == {"is_closed_z2_homology_n_manifold": True, "failures": []}
    assert elapsed < 3.0, f"certificate took {elapsed:.2f}s"


# -- barycentric subdivision against the per-chain construction --------------

def _chains(k) -> list[tuple]:
    """All nonempty chains of the face poset, memoized per top element."""
    simplices = sorted(k.simplices, key=len)
    ending: dict[tuple, list[tuple]] = {}
    for s in simplices:
        chains = [(s,)]
        for d in range(1, len(s)):
            for f in combinations(s, d):
                chains.extend(c + (s,) for c in ending[f])
        ending[s] = chains
    return [c for chains in ending.values() for c in chains]


def _subdivide_reference(k):
    """Sd(k) building a fresh label string for every simplex of every chain.

    It goes through ``from_maximal_simplices``, which sorts, checks and
    closes every simplex again, so it does not rely on what it is compared with.
    """
    vertex_of = {}
    sd_simplices = []
    for chain in _chains(k):
        sd_simplices.append(tuple(barycenter_label(s) for s in chain))
        if len(chain) == 1:
            vertex_of[barycenter_label(chain[0])] = chain[0]
    return SimplicialComplex.from_maximal_simplices(f"Sd({k.name})", sd_simplices), vertex_of


def _assert_subdivide_matches_reference(k):
    sd, vertex_of = barycentric_subdivide(k)
    ref, ref_vertex_of = _subdivide_reference(k)
    assert sd == ref  # == compares names too
    assert sd.vertices == ref.vertices == tuple(sorted(sd.vertices))
    assert sd.dim == ref.dim
    for d in range(sd.dim + 1):
        # each dimension in build order: every d-simplex once, nothing else
        row = sd.simplices_of_dim(d)
        assert len(row) == len(set(row)) and set(row) == set(ref.simplices_of_dim(d))
    assert vertex_of == ref_vertex_of
    return sd


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_subdivide_matches_per_chain_reference_on_random_complexes(k):
    _assert_subdivide_matches_reference(k)


@st.composite
def low_label_complexes(draw):
    """small_complexes relabeled with labels holding characters that sort
    before ``.``, so a barycenter can sort after the barycenters of its faces."""
    k = draw(small_complexes())
    labels = draw(st.permutations(["a", "a-", "a--", "a-b", "ab", "a b", "b!"]))
    rename = dict(zip("abcdefg", labels))
    return SimplicialComplex.from_maximal_simplices(
        "low", [[rename[v] for v in s] for s in k.maximal_simplices()])


@given(low_label_complexes())
@example(SimplicialComplex.from_maximal_simplices("low", [["a", "a-", "a-b"]]))
@settings(max_examples=100, deadline=None)
def test_subdivide_matches_per_chain_reference_on_low_labels(k):
    _assert_subdivide_matches_reference(k)


def test_subdivide_matches_per_chain_reference_on_catalog():
    # Sd and Sd² of every catalog complex
    for k in _catalog_complexes().values():
        sd = _assert_subdivide_matches_reference(k)
        if k.name != "cross_polytope_s3":  # its Sd² has its own test below
            _assert_subdivide_matches_reference(sd)


_ORDER_DIGEST = """
import hashlib
from sepcheck.catalog import cross_polytope_s3
from sepcheck.complexes import barycentric_subdivide
sd2 = barycentric_subdivide(barycentric_subdivide(cross_polytope_s3())[0])[0]
h = hashlib.sha256()
for d in range(sd2.dim + 1):
    h.update(repr(sd2.simplices_of_dim(d)).encode())
print(h.hexdigest())
"""


def test_subdivision_order_is_the_same_under_any_hash_seed():
    digests = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", _ORDER_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1


def test_subdivide_matches_per_chain_reference_on_sd_three_sphere():
    # Sd of this complex is the 40,256-simplex Sd² of the 3-sphere
    sd, _ = barycentric_subdivide(cross_polytope_s3())
    _assert_subdivide_matches_reference(sd)


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_trusted_constructor_matches_validating_constructor(k):
    trusted = SimplicialComplex(k.name, sorted_by_dim(k.simplices))
    checked = SimplicialComplex.from_maximal_simplices(k.name, k.simplices)
    assert trusted.simplices == checked.simplices == k.simplices
    assert trusted.vertices == checked.vertices == tuple(sorted({v for s in k.simplices for v in s}))
    assert trusted.dim == checked.dim == max(len(s) for s in k.simplices) - 1
    for d in range(k.dim + 1):
        assert trusted.simplices_of_dim(d) == checked.simplices_of_dim(d) \
            == sorted(s for s in k.simplices if len(s) == d + 1)


def facet_table(k):
    """(simplex -> index, facet indices of each simplex) of the reference oracle.

    Simplices are indexed in order of dimension, so every facet has a
    smaller index than its simplex; a vertex has no facets.
    """
    index = {s: i for i, s in enumerate(sorted(k.simplices, key=len))}
    facets = [tuple(index[t] for t in combinations(s, len(s) - 1)) if len(s) > 1 else ()
              for s in index]
    return index, facets


@given(st.lists(st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=6),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_facet_table_lists_the_facets_of_every_simplex(maximal):
    """Up to dimension 5, in the order the reference oracle relies on."""
    k = SimplicialComplex.from_maximal_simplices("random", [sorted(s) for s in maximal])
    index, facets = facet_table(k)
    by_index = sorted(index, key=index.__getitem__)
    assert len(by_index) == len(facets) and set(by_index) == k.simplices
    for i, s in enumerate(by_index):
        want = list(combinations(s, len(s) - 1)) if len(s) > 1 else []
        assert [by_index[j] for j in facets[i]] == want
        assert all(j < i for j in facets[i])


def test_colliding_barycenter_labels_are_rejected():
    # both edges would be the barycenter ⟨a.b.c⟩, merging two vertices of Sd
    k = SimplicialComplex.from_maximal_simplices("clash", [["a.b", "c"], ["a", "b.c"]])
    with pytest.raises(ValueError, match=re.escape("'⟨a.b.c⟩'")):
        barycentric_subdivide(k)
