"""Byte-for-byte golden outputs: the "same behaviour" gate for refactors.

``tests/golden/<entry>.sd<k>.json`` is the exact text that
``sepcheck analyze --entry <entry> --subdivide <k>`` prints, and
``tests/golden/selftest.txt`` the output of ``sepcheck selftest``.
The same reports must come out when the catalog is read back from files,
whose complexes inherit no certificate or Betti numbers, at every level.
A change that moves any of these bytes changes behaviour.  The ``Sd^2``
reports also bound the cost: the whole catalog at ``Sd^2`` runs in seconds.
"""

import json
from pathlib import Path

import pytest

from sepcheck.catalog import build_catalog
from sepcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
CATALOG = build_catalog()
ENTRIES = sorted(CATALOG)


def test_every_catalog_entry_has_goldens():
    recorded = {p.name for p in GOLDEN.glob("*.json")}
    assert recorded == {f"{e}.sd{k}.json" for e in ENTRIES for k in (0, 1, 2)}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("entry", ENTRIES)
def test_analyze_report_matches_golden(capsys, entry, k):
    main(["analyze", "--entry", entry, "--subdivide", str(k)])
    assert capsys.readouterr().out == (GOLDEN / f"{entry}.sd{k}.json").read_text()


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("entry", ENTRIES)
def test_analyze_report_from_files_matches_golden(capsys, tmp_path, entry, k):
    code = main(["analyze", "--entry", entry, "--subdivide", str(k)])
    capsys.readouterr()
    args = ["analyze", "--map", str(tmp_path / "map.json"), "--subdivide", str(k)]
    CATALOG[entry].map.save(tmp_path / "map.json")
    for name, c in sorted(CATALOG[entry].complexes.items()):
        c.save(tmp_path / f"{name}.complex.json")
        args += ["--complex", str(tmp_path / f"{name}.complex.json")]
    assert main(args) == code
    assert capsys.readouterr().out == (GOLDEN / f"{entry}.sd{k}.json").read_text()


@pytest.mark.parametrize("entry", ENTRIES)
def test_sd2_report_equals_sd1_but_names_and_a_size(entry):
    """Subdivision moves only the names and the simplex count of A."""
    def invariant(k):
        report = json.loads((GOLDEN / f"{entry}.sd{k}.json").read_text())
        for key in ("map", "domain", "codomain"):
            assert report.pop(key).startswith("Sd(" * k)
        report["self_intersection"].pop("A_simplices")
        return report

    assert invariant(2) == invariant(1)


def test_selftest_matches_golden(capsys):
    main(["selftest"])
    assert capsys.readouterr().out == (GOLDEN / "selftest.txt").read_text()
