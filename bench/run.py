#!/usr/bin/env python3
"""Run one sepcheck benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload analyze_sd1 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py ... --out results.jsonl    # also append a result record
    python3 bench/compare.py old.jsonl new.jsonl    # per-metric deltas

One closed-loop caller in one process: the workload's operations run in
sequence, in passes over the operation list, until ``--seconds`` would be
exceeded by another pass.  Every output is compared with ``expected.json``;
a mismatch, an exception or an operation running past its time cap counts
as failed.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``setup_s``: median over repeated set-ups (import, relabeled catalog with
  certificates, input files);
- ``wall_s`` and ``cpu_s``: median time of one pass over all operations;
- ``op_max_s``: the largest per-operation median time;
- ``peak_rss_mb``; ``ops``: operations per pass;
- ``ok_frac``: the share of attempted operations that did not fail.

With
``--trace 1`` untraced and traced passes alternate, and the last line reports
the per-layer metrics of the traced passes (see ``tracing.py``) and the
tracing overhead.  The line before it gives per-operation detail: median
time, simplex counts per degree and, when traced, the largest GF(2) input.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Machine speed on a shared host drifts over seconds, so set-up is timed
# before every pass, spread over the run, rather than in one burst.
SETUPS_PER_PASS = 2
OP_CAP_S = 60.0     # an operation running longer is stopped and counts as failed
RUN_CAP_S = 150.0   # no pass starts, and no operation runs, past this point of the run


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that hit its time cap."""


def _alarm(signum, frame):
    raise OpTimeout


def cpu_time() -> float:
    """CPU seconds of this process and of its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def setup(workload: str, seed: int, workdir: Path):
    """Import sepcheck afresh and build the workload's inputs; returns (sc, ops, seconds)."""
    t0 = time.perf_counter()
    sc = workloads.import_sepcheck(ROOT / "src")
    ops = workloads.build_operations(sc, workload, seed, workdir)
    return sc, ops, time.perf_counter() - t0


def run_op(op, deadline: float):
    """Run one operation under its time cap; returns (output, complexes, error)."""
    cap = min(OP_CAP_S, deadline - time.perf_counter())
    if cap <= 0:
        return None, None, "cap"
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            out, complexes = op()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, None, "cap"
    except Exception as e:  # a crash of the program under test is a failed operation
        return None, None, f"{type(e).__name__}: {e}"
    return out, complexes, None


class Run:
    """Counts, timings and layer samples of one benchmark run."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.setup_times: list[float] = []
        self.op_times = {name: [] for name in expected}
        self.sizes: dict[str, dict] = {}
        self.max_shapes: dict[str, list[int]] = {}
        self.walls = {False: [], True: []}   # keyed by traced
        self.cpus: list[float] = []   # untraced passes only
        self.layer_samples: list[dict] = []

    def one_pass(self, ops, tracer: Tracer | None, deadline: float) -> None:
        traced = tracer is not None
        if traced:
            tracer.install()
        codomain_simplices = 0
        c0, t0 = cpu_time(), time.perf_counter()
        try:
            for name, op in ops:
                if traced:
                    tracer.op_max_shape = (0, 0)
                s0 = time.perf_counter()
                out, complexes, error = run_op(op, deadline)
                dt = time.perf_counter() - s0
                self.attempted += 1
                if error is None and out != self.expected[name]:
                    error = "output differs from expected"
                if error is not None:
                    self.failed += 1
                    self.incorrect += error != "cap"
                    print(f"FAILED {name}: {error}", file=sys.stderr)
                    continue
                if not traced:
                    self.op_times[name].append(dt)
                else:
                    self.max_shapes[name] = list(tracer.op_max_shape)
                if name not in self.sizes:
                    self.sizes[name] = {role: workloads.simplex_counts(k)
                                        for role, k in complexes.items()}
                codomain_simplices += sum(self.sizes[name]["codomain"])
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_time() - c0
            if traced:
                tracer.uninstall()
        self.walls[traced].append(wall)
        if not traced:
            self.cpus.append(cpu)
        else:
            sample = {}
            for fn, (calls, self_s, total_s) in tracer.stats.items():
                sample[f"{fn}.calls"] = calls
                sample[f"{fn}.self_s"] = self_s
                sample[f"{fn}.total_s"] = total_s
            for mod, self_s in tracer.module_self_s().items():
                sample[f"{mod}.self_s"] = self_s
            sample["untraced.self_s"] = wall - sum(tracer.module_self_s().values())
            sample.update(tracer.counters)
            sample["size.codomain_simplices"] = codomain_simplices
            self.layer_samples.append(sample)


def measure(run: Run, args, workdir: Path, started: float) -> None:
    """Set up afresh, then run one pass; repeat within the run's budget.

    With tracing, untraced and traced passes alternate.
    """
    deadline = started + RUN_CAP_S
    t_start = time.perf_counter()
    kinds = [False, True] if args.trace else [False]
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        if all(run.walls[k] for k in kinds):
            elapsed = time.perf_counter() - t_start
            next_pass = run.walls[traced][-1] + SETUPS_PER_PASS * run.setup_times[-1]
            if elapsed + next_pass > args.seconds:
                break
        if time.perf_counter() >= deadline:
            break
        for _ in range(SETUPS_PER_PASS):
            sc, ops, setup_s = setup(args.workload, args.seed, workdir)
            run.setup_times.append(setup_s)
        run.one_pass(ops, Tracer(sc) if traced else None, deadline)
        i += 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> dict:
    op_medians = [statistics.median(t) for t in run.op_times.values() if t]
    return {
        "setup_s": metric(statistics.median(run.setup_times), "s"),
        "wall_s": metric(statistics.median(run.walls[False]), "s"),
        "cpu_s": metric(statistics.median(run.cpus), "s"),
        "op_max_s": metric(max(op_medians, default=0.0), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops": metric(len(run.op_times), "count"),
        "ok_frac": metric((run.attempted - run.failed) / run.attempted, "fraction"),
    }


def per_layer(run: Run) -> dict:
    out = {}
    for key in run.layer_samples[0]:
        unit = "s" if key.endswith("_s") else "count"
        out[key] = metric(statistics.median(s[key] for s in run.layer_samples), unit)
    # Passes alternate untraced, traced; pairing neighbours cancels slow drift.
    pairs = zip(run.walls[False], run.walls[True])
    out["trace.overhead_s"] = metric(statistics.median(t - u for u, t in pairs), "s")
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append a JSON record of this run to this file")
    args = p.parse_args(argv)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    signal.signal(signal.SIGALRM, _alarm)
    try:
        run = Run(workloads.load_expected()[args.workload])
        measure(run, args, workdir, started)
    except (ImportError, OSError, AssertionError, KeyError) as e:
        print(f"benchmark setup failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.walls[False] or (args.trace and not run.layer_samples):
        print("no complete pass was measured", file=sys.stderr)
        return 2
    metrics = per_layer(run) if args.trace else end_to_end(run)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pass_wall_s": {"untraced": run.walls[False], "traced": run.walls[True]},
        "operations": [{
            "name": name,
            "median_s": statistics.median(run.op_times[name]) if run.op_times[name] else None,
            "simplices_by_degree": run.sizes.get(name),
            **({"gf2_max_shape": run.max_shapes.get(name)} if args.trace else {}),
        } for name in run.op_times],
    }
    result = {"correct": run.incorrect == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
