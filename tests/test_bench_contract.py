"""The benchmark's per-layer tracing rebinds sepcheck functions by name.

``bench/tracing.py`` looks up every name in its ``TRACED`` table on the
sepcheck modules (methods in their class's ``__dict__``), so removing or
renaming one of them breaks ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    missing = []
    for mod_name, funcs in _traced_table().items():
        home = importlib.import_module(f"sepcheck.{mod_name}")
        for qual in funcs:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{mod_name}.{qual}")
    assert not missing, f"traced by the benchmark but missing: {missing}"
