"""Built-in instance catalog: complexes, maps, and expected report fragments.

Every base complex is certified and has its Betti numbers computed at
construction time, so barycentric subdivisions inherit both (they are
subdivision invariants) and the analysis pipeline never re-certifies a
large subdivided complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    SimplicialComplex,
    barycenter_label,
    barycentric_subdivide,
    is_certified_manifold,
)
from .homology import betti
from .maps import SimplicialMap


@dataclass
class CatalogEntry:
    id: str
    description: str
    complexes: dict[str, SimplicialComplex]
    map: SimplicialMap
    domain_dim: int
    codomain_dim: int
    expected: dict = field(default_factory=dict)


def circle(name: str, labels: list[str]) -> SimplicialComplex:
    edges = [[labels[i], labels[(i + 1) % len(labels)]] for i in range(len(labels))]
    return SimplicialComplex.from_maximal_simplices(name, edges)


def hexagon() -> SimplicialComplex:
    return circle("hexagon", [f"h{i}" for i in range(6)])


def square_circle() -> SimplicialComplex:
    return circle("square", ["a", "b", "c", "d"])


def triangle_circle() -> SimplicialComplex:
    return circle("triangle", ["w0", "w1", "w2"])


def nonagon() -> SimplicialComplex:
    return circle("nonagon", [f"g{i}" for i in range(9)])


def octahedron() -> SimplicialComplex:
    faces = [[p, x, y] for p in ("n", "s")
             for x, y in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))]
    return SimplicialComplex.from_maximal_simplices("octahedron", faces)


def cross_polytope_s3() -> SimplicialComplex:
    pairs = [("x0", "x1"), ("y0", "y1"), ("z0", "z1"), ("w0", "w1")]
    tets = [[a, b, c, d] for a in pairs[0] for b in pairs[1]
            for c in pairs[2] for d in pairs[3]]
    return SimplicialComplex.from_maximal_simplices("cross_polytope_s3", tets)


def octahedron_xyz() -> SimplicialComplex:
    """Equatorial octahedron of the 4-dimensional cross-polytope."""
    pairs = [("x0", "x1"), ("y0", "y1"), ("z0", "z1")]
    faces = [[a, b, c] for a in pairs[0] for b in pairs[1] for c in pairs[2]]
    return SimplicialComplex.from_maximal_simplices("octahedron_xyz", faces)


def csaszar_torus() -> SimplicialComplex:
    faces = []
    for i in range(7):
        faces.append([f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"])
        faces.append([f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"])
    return SimplicialComplex.from_maximal_simplices("csaszar_torus", faces)


def rp2_six_vertex() -> SimplicialComplex:
    faces = ["123", "124", "135", "146", "156",
             "236", "245", "256", "345", "346"]
    return SimplicialComplex.from_maximal_simplices(
        "rp2", [[f"p{c}" for c in f] for f in faces])


def _certify(k: SimplicialComplex, n: int) -> SimplicialComplex:
    if not is_certified_manifold(k, n):
        raise AssertionError(f"catalog complex {k.name} failed its {n}-manifold certificate")
    for d in range(k.dim + 1):
        betti(k, d)
    return k


def build_catalog() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    def add(entry: CatalogEntry):
        entries[entry.id] = entry

    hexa = _certify(hexagon(), 1)
    octa = _certify(octahedron(), 2)
    square = _certify(square_circle(), 1)
    tri = _certify(triangle_circle(), 1)
    nona = _certify(nonagon(), 1)
    torus = _certify(csaszar_torus(), 2)
    rp2 = _certify(rp2_six_vertex(), 2)
    s3 = _certify(cross_polytope_s3(), 3)
    octa_xyz = _certify(octahedron_xyz(), 2)
    tri3 = _certify(circle("triangle3", [f"e{i}" for i in range(3)]), 1)
    sd_octa, _ = barycentric_subdivide(octa)  # inherits certificate and Betti numbers

    add(CatalogEntry(
        id="equator_s1_s2",
        description="equatorial square circle embedded in the octahedron sphere",
        complexes={square.name: square, octa.name: octa},
        map=SimplicialMap("equator_s1_s2", square, octa,
                          {v: v for v in square.vertices}),
        domain_dim=1, codomain_dim=2,
        expected={"beta0_formula": 2, "beta0_oracle": 2, "coker_dim": 0,
                  "is_embedding": True, "final_refusal": "exists_nonzero_mu"},
    ))

    add(CatalogEntry(
        id="equator_s2_s3",
        description="equatorial octahedron embedded in the cross-polytope 3-sphere",
        complexes={octa_xyz.name: octa_xyz, s3.name: s3},
        map=SimplicialMap("equator_s2_s3", octa_xyz, s3,
                          {v: v for v in octa_xyz.vertices}),
        domain_dim=2, codomain_dim=3,
        expected={"beta0_formula": 2, "beta0_oracle": 2, "coker_dim": 0,
                  "is_embedding": True, "final_refusal": "exists_nonzero_mu"},
    ))

    add(CatalogEntry(
        id="figure_eight_s1_s2",
        description="hexagon circle mapped onto a wedge of two triangles in the octahedron",
        complexes={hexa.name: hexa, octa.name: octa},
        map=SimplicialMap("figure_eight_s1_s2", hexa, octa,
                          {"h0": "n", "h1": "a", "h2": "b",
                           "h3": "n", "h4": "c", "h5": "d"}),
        domain_dim=1, codomain_dim=2,
        expected={"beta0_formula": 3, "beta0_oracle": 3, "coker_dim": 1,
                  "is_embedding": False, "dim_A": 0,
                  "predicate_thm_final": True, "dim_Hm_image": 2},
    ))

    n_hat = barycenter_label(("n",))
    bouquet_map = {
        "g0": n_hat, "g1": barycenter_label(("a", "n")), "g2": barycenter_label(("a", "b", "n")),
        "g3": n_hat, "g4": barycenter_label(("b", "n")), "g5": barycenter_label(("b", "c", "n")),
        "g6": n_hat, "g7": barycenter_label(("c", "n")), "g8": barycenter_label(("c", "d", "n")),
    }
    add(CatalogEntry(
        id="triple_bouquet_s1_s2",
        description="nonagon circle mapped onto three triangles sharing one vertex "
                    "in the subdivided octahedron",
        complexes={nona.name: nona, sd_octa.name: sd_octa},
        map=SimplicialMap("triple_bouquet_s1_s2", nona, sd_octa, bouquet_map),
        domain_dim=1, codomain_dim=2,
        expected={"beta0_formula": 4, "beta0_oracle": 4, "coker_dim": 2,
                  "is_embedding": False, "dim_A": 0,
                  "predicate_thm_final": True, "dim_Hm_image": 3},
    ))

    add(CatalogEntry(
        id="double_wrap_s1",
        description="hexagon double-wrapped around a triangle circle (A = X)",
        complexes={hexa.name: hexa, tri.name: tri},
        map=SimplicialMap("double_wrap_s1", hexa, tri,
                          {f"h{i}": f"w{i % 3}" for i in range(6)}),
        domain_dim=1, codomain_dim=1,
        expected={"separation_refusal": "codomain_closed_manifold",
                  "A_is_whole_domain": True},
    ))

    add(CatalogEntry(
        id="essential_circle_t2",
        description="essential triangle circle embedded in the 7-vertex torus",
        complexes={tri3.name: tri3, torus.name: torus},
        map=SimplicialMap("essential_circle_t2", tri3, torus,
                          {"e0": "t0", "e1": "t1", "e2": "t2"}),
        domain_dim=1, codomain_dim=2,
        expected={"separation_refusal": "h1_Y_zero", "beta0_oracle": 1,
                  "is_embedding": True, "Uf_is_zero": False},
    ))

    add(CatalogEntry(
        id="rp2_identity",
        description="identity map of the 6-vertex projective plane",
        complexes={rp2.name: rp2},
        map=SimplicialMap("rp2_identity", rp2, rp2, {v: v for v in rp2.vertices}),
        domain_dim=2, codomain_dim=2,
        expected={"separation_refusal": "codomain_closed_manifold",
                  "w1f_is_zero": True},
    ))

    add(CatalogEntry(
        id="rp2_essential_circle",
        description="orientation-reversing triangle circle in the projective plane",
        complexes={tri3.name: tri3, rp2.name: rp2},
        map=SimplicialMap("rp2_essential_circle", tri3, rp2,
                          {"e0": "p1", "e1": "p2", "e2": "p5"}),
        domain_dim=1, codomain_dim=2,
        expected={"separation_refusal": "h1_Y_zero",
                  "is_embedding": True, "w1f_is_zero": False},
    ))

    return entries


def catalog_list() -> list[dict]:
    """Stable entry summaries for the CLI, sorted by id."""
    out = []
    for entry in sorted(build_catalog().values(), key=lambda e: e.id):
        out.append({
            "id": entry.id,
            "description": entry.description,
            "domain": entry.map.domain.name,
            "codomain": entry.map.codomain.name,
            "expected": {k: entry.expected[k] for k in sorted(entry.expected)},
        })
    return out
