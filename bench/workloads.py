"""Seeded inputs and operation lists for the sepcheck benchmark.

Every workload starts from the built-in catalog with its vertices relabeled
by a seeded bijection.  Reports never contain vertex labels, so the stored
expected outputs hold for every seed, while the lexicographic simplex order
(and with it every elimination order) changes with the seed.

Workloads (one closed-loop caller, operations run in sequence):

- ``analyze_sd1``: ``cli.analyze_instance`` on every catalog map at Sd^1,
  serialized as ``sepcheck analyze`` does.  The full pipeline; dominated by
  GF(2) elimination and chain-complex construction.
- ``separate_sd2``: ``subdivide_map`` twice, ``beta0_formula_thm32`` (a
  refusal is an outcome) and ``complement_components_oracle`` on every map.
  Dominated by subdivision and the oracle; bypasses large eliminations.
- ``certify_files_sd1``: ``sepcheck duality-check --complex FILE`` on each
  distinct Sd^1 catalog complex written to disk, so no certificate is
  inherited.  Dominated by ``complexes.link`` and many tiny eliminations.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("analyze_sd1", "separate_sd2", "certify_files_sd1")

SEPCHECK_MODULES = ("gf2", "complexes", "homology", "maps", "duality",
                    "separation", "obstruction", "catalog", "cli")


def import_sepcheck(src: Path) -> SimpleNamespace:
    """Import (or re-import) sepcheck from ``src`` and return its modules.

    Earlier imports are dropped first, so each call pays the full import,
    and the modules must come from ``src``, never from an installed copy.
    """
    for name in [m for m in sys.modules if m == "sepcheck" or m.startswith("sepcheck.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("sepcheck")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"sepcheck was imported from {origin}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"sepcheck.{m}")
                              for m in SEPCHECK_MODULES})


def relabeling(labels, seed: int) -> dict[str, str]:
    """Seeded bijection from ``labels`` onto fresh labels in shuffled order."""
    fresh = [f"v{i:03d}" for i in range(len(labels))]
    random.Random(seed).shuffle(fresh)
    return dict(zip(sorted(labels), fresh))


def relabeled_catalog(sc: SimpleNamespace, seed: int) -> dict:
    """Catalog maps with every base vertex relabeled, sorted by entry id.

    Base complexes are rebuilt from relabeled maximal simplices and then
    certified and given Betti numbers as the catalog does, so that their
    barycentric subdivisions inherit both.  Subdivided catalog complexes
    (named ``Sd(<base>)``) are rebuilt by subdividing the relabeled base.
    """
    SimplicialComplex = sc.complexes.SimplicialComplex
    catalog = sc.catalog.build_catalog()
    originals = {k.name: k for e in catalog.values() for k in e.complexes.values()}
    derived = sorted(n for n in originals if n.startswith("Sd("))
    base = sorted(n for n in originals if n not in derived)
    sigma = relabeling({v for n in base for v in originals[n].vertices}, seed)

    new = {}
    for name in base:
        k = originals[name]
        r = SimplicialComplex.from_maximal_simplices(
            name, [[sigma[v] for v in s] for s in k.maximal_simplices()])
        if not sc.complexes.is_certified_manifold(r, k.dim):
            raise AssertionError(f"relabeled {name} failed its {k.dim}-manifold certificate")
        for d in range(r.dim + 1):
            sc.homology.betti(r, d)
        new[name] = r
    for name in derived:
        source = name[len("Sd("):-1]
        sd, vertex_of = sc.complexes.barycentric_subdivide(new[source])
        _, old_vertex_of = sc.complexes.barycentric_subdivide(originals[source])
        for label, s in old_vertex_of.items():
            sigma[label] = sc.complexes.barycenter_label(tuple(sorted(sigma[v] for v in s)))
        want = {tuple(sorted(sigma[v] for v in s)) for s in originals[name].simplices}
        if sd.simplices != want:
            raise AssertionError(f"relabeled subdivision of {source} differs from {name}")
        new[name] = sd

    maps = {}
    for cid in sorted(catalog):
        f = catalog[cid].map
        g = sc.maps.SimplicialMap(f.name, new[f.domain.name], new[f.codomain.name],
                                  {sigma[v]: sigma[w] for v, w in f.vertex_map.items()})
        if not sc.maps.validate(g):
            raise AssertionError(f"relabeled map {cid} is not simplicial")
        maps[cid] = g
    return {"maps": maps, "complexes": new}


def simplex_counts(k) -> list[int]:
    """Number of simplices in each degree 0..dim."""
    counts = [0] * (k.dim + 1)
    for s in k.simplices:
        counts[len(s) - 1] += 1
    return counts


def _analyze(sc, g):
    sd, _, _ = sc.maps.subdivide_map(g)
    report, code = sc.cli.analyze_instance(sd)
    out = {"exit": code, "report": json.dumps(report, ensure_ascii=False, indent=2)}
    return out, {"domain": sd.domain, "codomain": sd.codomain}


def _separate(sc, g):
    h = g
    for _ in range(2):
        h, _, _ = sc.maps.subdivide_map(h)
    try:
        formula = sc.separation.beta0_formula_thm32(h).beta0_formula
    except sc.separation.HypothesisError as e:
        formula = f"refused:{e.hypothesis}"
    oracle = sc.separation.complement_components_oracle(
        h.codomain, sc.maps.image_subcomplex(h))
    return {"formula": formula, "oracle": oracle}, {"domain": h.domain, "codomain": h.codomain}


def _certify_file(sc, path: Path, k):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sc.cli.main(["duality-check", "--complex", str(path)])
    return {"exit": code, "stdout": buf.getvalue()}, {"codomain": k}


def build_operations(sc, workload: str, seed: int, workdir: Path) -> list[tuple[str, object]]:
    """Inputs for one workload as (operation name, zero-argument callable).

    Each callable returns (output, complexes): the output is compared with
    the expected outputs and the complexes give the problem sizes.
    """
    inputs = relabeled_catalog(sc, seed)
    if workload == "analyze_sd1":
        return [(cid, lambda g=g: _analyze(sc, g)) for cid, g in inputs["maps"].items()]
    if workload == "separate_sd2":
        return [(cid, lambda g=g: _separate(sc, g)) for cid, g in inputs["maps"].items()]
    if workload == "certify_files_sd1":
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, name in enumerate(sorted(inputs["complexes"])):
            sd, _ = sc.complexes.barycentric_subdivide(inputs["complexes"][name])
            path = workdir / f"complex{i:02d}.json"
            # Every catalog complex is pure, so its top simplices are its
            # maximal ones; SimplicialComplex.save finds them in quadratic time.
            path.write_text(json.dumps({
                "name": sd.name,
                "maximal_simplices": [list(s) for s in sd.simplices_of_dim(sd.dim)],
            }, indent=2) + "\n")
            ops.append((sd.name, lambda p=path, k=sd: _certify_file(sc, p, k)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
