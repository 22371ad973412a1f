"""Byte-for-byte golden outputs: the "same behaviour" gate for refactors.

``tests/golden/<entry>.sd<k>.json`` is the exact text that
``sepcheck analyze --entry <entry> --subdivide <k>`` prints, and
``tests/golden/selftest.txt`` the output of ``sepcheck selftest``.
A change that moves any of these bytes changes behaviour.
"""

from pathlib import Path

import pytest

from sepcheck.catalog import build_catalog
from sepcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
ENTRIES = sorted(build_catalog())


def test_every_catalog_entry_has_goldens():
    recorded = {p.name for p in GOLDEN.glob("*.json")}
    assert recorded == {f"{e}.sd{k}.json" for e in ENTRIES for k in (0, 1)}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("entry", ENTRIES)
def test_analyze_report_matches_golden(capsys, entry, k):
    main(["analyze", "--entry", entry, "--subdivide", str(k)])
    assert capsys.readouterr().out == (GOLDEN / f"{entry}.sd{k}.json").read_text()


def test_selftest_matches_golden(capsys):
    main(["selftest"])
    assert capsys.readouterr().out == (GOLDEN / "selftest.txt").read_text()
