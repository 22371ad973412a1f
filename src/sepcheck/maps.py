"""Simplicial maps, chain maps, and the combinatorial self-intersection set.

A ``SimplicialMap`` checks its vertex map when it is made, so every function
here takes the map it is given to be simplicial and checks nothing again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gf2 import BitMatrix
from .complexes import (
    Simplex,
    SimplicialComplex,
    Subcomplex,
    barycentric_subdivide,
    memo,
)


class SimplicialMap:
    """Vertex assignment between complexes sending simplices to simplices.

    The constructor raises ``ValueError`` unless the vertex map is total, has
    no key outside the domain and sends every domain simplex to a codomain
    simplex, so a map read from a file or built in Python is simplicial.
    Maps are immutable after construction, like complexes, so the facts
    derived from one are computed once and kept on it (``complexes.memo``).
    """

    def __init__(self, name: str, domain: SimplicialComplex,
                 codomain: SimplicialComplex, vertex_map: dict[str, str]):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = dict(vertex_map)
        missing = set(domain.vertices) - set(self.vertex_map)
        if missing:
            raise ValueError(f"vertex map not total; missing {sorted(missing)}")
        extra = set(self.vertex_map) - set(domain.vertices)
        if extra:
            raise ValueError(f"vertex map of {name!r} has keys that are not "
                             f"domain vertices: {sorted(extra)}")
        self._memo = {}
        if not validate(self):
            raise ValueError(f"vertex map of {name!r} is not simplicial")

    def image_simplex(self, s) -> Simplex:
        return tuple(sorted({self.vertex_map[v] for v in s}))

    @memo
    def images(self) -> dict[Simplex, Simplex]:
        """Domain simplex -> its image, in the canonical order of the domain."""
        dom = self.domain
        return {s: self.image_simplex(s)
                for d in range(dom.dim + 1) for s in dom.simplices_of_dim(d)}

    def __repr__(self):
        return f"SimplicialMap({self.name!r}: {self.domain.name} -> {self.codomain.name})"

    # -- file format --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "domain": self.domain.name,
            "codomain": self.codomain.name,
            "vertex_map": {v: self.vertex_map[v] for v in sorted(self.vertex_map)},
        }

    @staticmethod
    def from_json_dict(d, complexes: dict[str, SimplicialComplex]) -> "SimplicialMap":
        """Map from ``{"name", "domain", "codomain": str, "vertex_map": {str: str}}``."""
        if not isinstance(d, dict):
            raise ValueError("map file must be a JSON object")
        for key in ("name", "domain", "codomain"):
            if not isinstance(d.get(key), str):
                raise ValueError(f"map file needs a string {key!r}")
        vmap = d.get("vertex_map")
        if not isinstance(vmap, dict) or not all(
                isinstance(v, str) and isinstance(w, str) for v, w in vmap.items()):
            raise ValueError("map file needs a 'vertex_map' from strings to strings")
        if d["domain"] not in complexes or d["codomain"] not in complexes:
            raise ValueError("map references unknown complex")
        return SimplicialMap(d["name"], complexes[d["domain"]], complexes[d["codomain"]], vmap)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


@memo
def validate(f: SimplicialMap) -> bool:
    """True iff every domain simplex maps to a codomain simplex (the constructor's last check)."""
    cod = f.codomain.simplices
    return all(t in cod for t in f.images().values())


@memo
def image_subcomplex(f: SimplicialMap) -> Subcomplex:
    return Subcomplex(f.codomain, set(f.images().values()))


@memo
def image_complex(f: SimplicialMap) -> SimplicialComplex:
    """The image f(M) as a complex of its own."""
    return image_subcomplex(f).to_complex("f(M)")


def chain_map(f: SimplicialMap, degree: int) -> BitMatrix:
    """Degree-d chain map over Z2; degenerate simplices map to zero."""
    dom = f.domain.simplices_of_dim(degree)
    cod_index = f.codomain.simplex_index(degree)
    images = f.images()
    cols = []
    for s in dom:
        img = images[s]
        cols.append(1 << cod_index[img] if len(img) == degree + 1 else 0)
    return BitMatrix(len(cod_index), len(cols), tuple(cols))


@dataclass
class SelfIntersectionData:
    A: Subcomplex  # closure of the self-intersection set, in the domain
    B: Subcomplex  # f(A), in the codomain
    is_embedding: bool

    @property
    def dim_A(self) -> int:
        """dim A with the convention dim(empty) = -1."""
        return self.A.dim


@memo
def self_intersection(f: SimplicialMap) -> SelfIntersectionData:
    """Closure of {x : f^{-1}f(x) != x} as a subcomplex of the domain.

    A simplex carries double points when f collapses it or when a distinct
    simplex has the same nondegenerate image.  An injective simplex s whose
    image lies in the image of a collapsed simplex c needs no rule of its
    own: one preimage in c of each vertex of f(s) spans a face c' of c with
    the image of s, so either c' = s is a face of the chosen c, or s shares
    its image with c' and is chosen with its group.
    """
    images = f.images()
    chosen = set()
    by_image: dict[tuple, list] = {}
    for s, img in images.items():
        if len(img) == len(s):
            by_image.setdefault(img, []).append(s)
        else:
            chosen.add(s)
    for group in by_image.values():
        if len(group) > 1:
            chosen.update(group)

    a = Subcomplex.closure(f.domain, chosen)
    b = Subcomplex.closure(f.codomain, {images[s] for s in a.simplices})
    return SelfIntersectionData(a, b, is_embedding=a.is_empty())


@memo
def self_intersection_maps(f: SimplicialMap) -> tuple[SimplicialMap, SimplicialMap]:
    """The inclusion A -> M and the restriction f|_A: A -> B = f(A).

    Both are built over one complex A, so its chain complex and
    (co)homology are computed once for every check that reads them.
    """
    si = self_intersection(f)
    incl = inclusion(si.A, "A")
    a = incl.domain
    f_a = SimplicialMap(f"{f.name}|A", a, si.B.to_complex("B"),
                        {v: f.vertex_map[v] for v in a.vertices})
    return incl, f_a


def inclusion(sub: Subcomplex, name: str | None = None) -> SimplicialMap:
    """Inclusion of a subcomplex into its parent."""
    dom = sub.to_complex(name)
    return SimplicialMap(f"incl({dom.name})", dom, sub.parent,
                         {v: v for v in dom.vertices})


def subdivide_map(f: SimplicialMap):
    """Induced simplicial map Sd(domain) -> Sd(codomain) on barycenters.

    Returns (Sd(f), Sd(domain), Sd(codomain)).  The vertex map reads both
    label tables of the subdivisions, so its keys and values are the label
    objects of Sd(domain) and Sd(codomain) themselves.  A self-map is
    subdivided once, so Sd(f) is a self-map too.
    """
    sd_dom, dom_vertex_of = barycentric_subdivide(f.domain)
    sd_cod, cod_vertex_of = ((sd_dom, dom_vertex_of) if f.codomain is f.domain
                             else barycentric_subdivide(f.codomain))
    cod_label = {s: b for b, s in cod_vertex_of.items()}
    images = f.images()
    vm = {b: cod_label[images[s]] for b, s in dom_vertex_of.items()}
    g = SimplicialMap(f"Sd({f.name})", sd_dom, sd_cod, vm)
    return g, sd_dom, sd_cod
