"""Command-line surface: catalog listing, analysis runs, oracle queries,
duality checks, and the deterministic selftest.

Exit codes: 0 all checks pass, 1 hypothesis refusal, 2 assertion,
selftest failure or internal error, 3 input error, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .catalog import CatalogEntry, build_catalog, catalog_list
from .complexes import SimplicialComplex, barycentric_subdivide, is_certified_manifold, read_json
from .duality import poincare_duality_check
from .gf2 import ladder_check, random_exact_ladder
from .maps import SimplicialMap, self_intersection, subdivide_map
from .obstruction import obstruction_summary
from .separation import (
    HypothesisError,
    beta0_formula_thm32,
    eq1_identity_check,
    image_components,
)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_ASSERTION = 2
EXIT_INPUT = 3


def _input_error(e: Exception) -> int:
    """Report bad input, a path that cannot be read or written included."""
    print(f"input error: {e}", file=sys.stderr)
    return EXIT_INPUT

def _load_instance(args) -> SimplicialMap:
    """The map named by ``--entry`` or ``--map``, after ``--subdivide`` subdivisions."""
    if args.entry:
        cat = build_catalog()
        if args.entry not in cat:
            raise ValueError(f"unknown catalog entry {args.entry!r}")
        f = cat[args.entry].map
    elif not args.map:
        raise ValueError("either --entry or --map (with --complex files) is required")
    else:
        complexes = {}
        for path in args.complex or []:
            k = SimplicialComplex.load(path)
            if k.name in complexes:
                raise ValueError(f"two --complex files define a complex named {k.name!r}")
            complexes[k.name] = k
        f = SimplicialMap.from_json_dict(read_json(args.map), complexes)
    return _subdivided(f, args.subdivide)


def _subdivided(x, times: int):
    """A SimplicialMap or a SimplicialComplex after ``times`` barycentric subdivisions."""
    if times < 0:
        raise ValueError(f"--subdivide must be at least 0, got {times}")
    for _ in range(times):
        x = subdivide_map(x)[0] if isinstance(x, SimplicialMap) else barycentric_subdivide(x)[0]
    return x


def analyze_instance(f: SimplicialMap) -> tuple[dict, int]:
    """Full report for one map; returns (report, exit_code)."""
    report: dict = {"map": f.name,
                    "domain": f.domain.name, "codomain": f.codomain.name}
    code = EXIT_OK
    n = f.domain.dim
    report["certificates"] = {
        "domain_closed_manifold": is_certified_manifold(f.domain, n),
        "codomain_closed_manifold": is_certified_manifold(f.codomain, n + 1),
    }
    si = self_intersection(f)
    report["self_intersection"] = {
        "is_embedding": si.is_embedding,
        "dim_A": si.dim_A,
        "A_simplices": len(si.A.simplices),
    }
    try:
        sep = beta0_formula_thm32(f)
        report["separation"] = sep.to_json_dict()
        if not sep.agreement:
            code = EXIT_ASSERTION
        report["eq1_identity"] = eq1_identity_check(f)
    except HypothesisError as e:
        report["separation"] = {"refused": e.hypothesis}
        code = EXIT_REFUSED
    try:
        obs = obstruction_summary(f)
        report["obstruction"] = obs.to_json_dict()
    except HypothesisError as e:
        report["obstruction"] = {"refused": e.hypothesis}
    return report, code


def cmd_catalog(args) -> int:
    entries = catalog_list()
    if args.dump:
        try:
            os.makedirs(args.dump, exist_ok=True)
            cat = build_catalog()
            for cid in sorted(cat):
                entry = cat[cid]
                for name in sorted(entry.complexes):
                    entry.complexes[name].save(os.path.join(args.dump, f"{name}.complex.json"))
                entry.map.save(os.path.join(args.dump, f"{cid}.map.json"))
        except OSError as e:
            return _input_error(e)
    print(json.dumps(entries, ensure_ascii=False, indent=2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        f = _load_instance(args)
    except (ValueError, OSError) as e:
        return _input_error(e)
    report, code = analyze_instance(f)
    text = json.dumps(report, ensure_ascii=False, indent=2)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            return _input_error(e)
    print(text)
    return code


def cmd_oracle(args) -> int:
    try:
        f = _load_instance(args)
    except (ValueError, OSError) as e:
        return _input_error(e)
    print(json.dumps({"map": f.name, "beta0_oracle": image_components(f)}))
    return EXIT_OK


def cmd_duality_check(args) -> int:
    try:
        if args.entry or args.map:
            f = _load_instance(args)
            targets = [(f.domain, f.domain.dim), (f.codomain, f.codomain.dim)]
        elif args.complex:
            targets = []
            for path in args.complex:
                k = _subdivided(SimplicialComplex.load(path), args.subdivide)
                targets.append((k, k.dim))
        else:
            raise ValueError("need --entry, --map, or --complex")
    except (ValueError, OSError) as e:
        return _input_error(e)
    out = []
    ok = True
    for k, n in targets:
        cert = is_certified_manifold(k, n)
        pd = poincare_duality_check(k, n) if cert else None
        out.append({"complex": k.name, "dim": n, "certified": cert, "poincare_duality": pd})
        ok = ok and cert and bool(pd)
    print(json.dumps(out, ensure_ascii=False, indent=2))
    return EXIT_OK if ok else EXIT_ASSERTION


def _catalog_checks(entry: CatalogEntry):
    """Yield (key, expected, actual) for each selftest check of one entry, in order."""
    f, expected = entry.map, entry.expected
    si = self_intersection(f)
    for key, got in (("is_embedding", si.is_embedding), ("dim_A", si.dim_A)):
        if key in expected:
            yield key, expected[key], got
    if expected.get("A_is_whole_domain"):
        yield "A_is_whole_domain", True, si.A.simplices == f.domain.simplices
    try:
        sep = beta0_formula_thm32(f)
    except HypothesisError as e:
        yield "separation_refusal", expected.get("separation_refusal"), e.hypothesis
    else:
        for key in ("beta0_formula", "beta0_oracle", "coker_dim"):
            if key in expected:
                yield key, expected[key], getattr(sep, key)
        yield "agreement", True, sep.agreement
        yield "separation_refusal", expected.get("separation_refusal"), None
    try:
        obs = obstruction_summary(f)
    except HypothesisError as e:
        if "separation_refusal" not in expected and "final_refusal" not in expected:
            yield "obstruction_refusal", None, e.hypothesis
    else:
        yield "theta_pushforward_zero", True, obs.theta_pushforward_zero
        for key in ("predicate_thm_final", "dim_Hm_image", "w1f_is_zero", "Uf_is_zero"):
            if key in expected:
                yield key, expected[key], getattr(obs, key)
        if "final_refusal" in expected:
            yield "predicate_thm_final", False, obs.predicate_thm_final
    if "beta0_oracle" in expected:
        yield "beta0_oracle", expected["beta0_oracle"], image_components(f)


def run_selftest(seed: int = 20260823,
                 entries: dict[str, CatalogEntry] | None = None,
                 out=None) -> int:
    """Invariant suite over the catalog; prints one line per check."""
    out = out or sys.stdout
    cat = entries if entries is not None else build_catalog()

    def emit(name: str, ok: bool, detail: str = ""):
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        print(line, file=out)
        return ok

    all_ok = True
    rng = random.Random(seed)
    bad = 0
    for _ in range(100):
        r = ladder_check(random_exact_ladder(rng))
        if not (r.commutes and r.rows_exact
                and r.ker_h_dim == r.coker_fplus_lambda_dim):
            bad += 1
    all_ok &= emit("ladder_kernel_cokernel_100", bad == 0, f"failures={bad}")

    for cid in sorted(cat):
        failed = next(((key, want, got) for key, want, got in _catalog_checks(cat[cid])
                       if want != got), None)
        detail = f"{failed[0]}: expected {failed[1]!r}, got {failed[2]!r}" if failed else ""
        all_ok &= emit(f"catalog_{cid}", failed is None, detail)

    seen = set()
    for cid in sorted(cat):
        for k in cat[cid].complexes.values():
            n = k.dim
            if k.name in seen or not is_certified_manifold(k, n):
                continue
            seen.add(k.name)
            all_ok &= emit(f"poincare_duality_{k.name}", poincare_duality_check(k, n))

    return EXIT_OK if all_ok else EXIT_ASSERTION


def cmd_selftest(args) -> int:
    return run_selftest(seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sepcheck",
        description="Separation-theorem verification for codimension-1 simplicial maps",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def inputs(sp):
        sp.add_argument("--entry", help="built-in catalog entry id")
        sp.add_argument("--complex", action="append",
                        help="complex JSON file (repeatable)")
        sp.add_argument("--map", help="map JSON file")
        sp.add_argument("--subdivide", type=int, default=0, metavar="K",
                        help="apply K barycentric subdivisions before analysis")

    # each subcommand keeps its parser, so main reports an unknown option
    # with that subcommand's usage line
    sp = sub.add_parser("catalog", help="list built-in instances")
    sp.add_argument("--dump", help="write catalog complexes and maps to a directory")
    sp.set_defaults(func=cmd_catalog, parser=sp)

    sp = sub.add_parser("analyze", help="run the full separation/obstruction analysis")
    inputs(sp)
    sp.add_argument("--json", help="also write the JSON report to this path")
    sp.set_defaults(func=cmd_analyze, parser=sp)

    sp = sub.add_parser("oracle", help="count complement components directly")
    inputs(sp)
    sp.set_defaults(func=cmd_oracle, parser=sp)

    sp = sub.add_parser("duality-check", help="Poincare duality checks on manifolds")
    inputs(sp)
    sp.set_defaults(func=cmd_duality_check, parser=sp)

    sp = sub.add_parser("selftest", help="run the full invariant suite on the catalog")
    sp.add_argument("--seed", type=int, default=20260823,
                    help="seed for randomized property suites")
    sp.set_defaults(func=cmd_selftest, parser=sp)

    return p


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as e:  # argparse exits 2 on a usage error, which is an input error
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        return args.func(args)
    except AssertionError as e:
        print(f"assertion failure: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except Exception as e:  # a crash must not exit 1, which means a refusal
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
