"""The workload seed changes the inputs' vertex labels but not the outputs.

    PYTHONPATH=src python3 -m pytest -q bench/test_seeds.py
"""

from __future__ import annotations

import importlib
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def sc():
    return SimpleNamespace(**{m: importlib.import_module(f"sepcheck.{m}")
                              for m in workloads.SEPCHECK_MODULES})


@pytest.fixture
def workdir():
    path = BENCH.parent / ".bench_work" / "test"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_seeds_give_different_labels(sc):
    a, b = (workloads.relabeled_catalog(sc, seed)["maps"] for seed in SEEDS)
    assert a.keys() == b.keys()
    assert any(a[cid].vertex_map != b[cid].vertex_map for cid in a)
    for cid in a:
        assert len(a[cid].codomain.simplices) == len(b[cid].codomain.simplices)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_give_identical_expected_outputs(sc, workload, workdir):
    expected = workloads.load_expected()[workload]
    outputs = []
    for seed in SEEDS:
        ops = workloads.build_operations(sc, workload, seed, workdir / str(seed))
        outputs.append({name: op()[0] for name, op in ops})
    assert outputs[0] == outputs[1] == expected
