import io
import json

import pytest

from sepcheck import homology
from sepcheck.catalog import build_catalog, catalog_list
from sepcheck.cli import (
    EXIT_ASSERTION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    main,
    run_selftest,
)
from sepcheck.complexes import SimplicialComplex
from sepcheck.maps import SimplicialMap

REQUIRED_IDS = {
    "equator_s1_s2", "equator_s2_s3", "figure_eight_s1_s2",
    "triple_bouquet_s1_s2", "double_wrap_s1", "essential_circle_t2",
    "rp2_identity", "rp2_essential_circle",
}


def test_catalog_has_all_required_entries():
    cat = build_catalog()
    assert REQUIRED_IDS <= set(cat)
    assert len(cat) >= 8


def test_catalog_list_is_sorted_and_carries_expectations():
    entries = catalog_list()
    ids = [e["id"] for e in entries]
    assert ids == sorted(ids)
    by_id = {e["id"]: e for e in entries}
    assert by_id["figure_eight_s1_s2"]["expected"]["beta0_formula"] == 3
    assert by_id["triple_bouquet_s1_s2"]["expected"]["beta0_oracle"] == 4


def test_catalog_entries_roundtrip_through_files(tmp_path):
    for entry in build_catalog().values():
        complexes = {}
        for name, k in entry.complexes.items():
            path = tmp_path / f"{name}.json"
            k.save(path)
            complexes[name] = SimplicialComplex.load(path)
            assert complexes[name] == k
        mpath = tmp_path / f"{entry.id}.json"
        entry.map.save(mpath)
        with open(mpath) as fh:
            back = SimplicialMap.from_json_dict(json.load(fh), complexes)
        assert back.to_json_dict() == entry.map.to_json_dict()


def test_cli_catalog_lists_entries(capsys):
    assert main(["catalog"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out) >= 8


def test_cli_analyze_figure_eight_passes(capsys):
    code = main(["analyze", "--entry", "figure_eight_s1_s2"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["separation"]["beta0_formula"] == 3
    assert report["separation"]["agreement"]
    assert report["obstruction"]["predicate_thm_final"]
    assert report["eq1_identity"] is True


def test_cli_analyze_refuses_torus(capsys):
    code = main(["analyze", "--entry", "essential_circle_t2"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_REFUSED
    assert report["separation"] == {"refused": "h1_Y_zero"}


def test_cli_analyze_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["analyze", "--map", str(bad)])
    capsys.readouterr()
    assert code == EXIT_INPUT


@pytest.mark.parametrize("content", [
    "[1, 2]",
    '{"name": "k", "maximal_simplices": "abc"}',
    '{"name": "k", "maximal_simplices": [[1, 2], [2, 3], [1, 3]]}',
    '{"name": "k", "maximal_simplices": [["a", ["b"]]]}',
], ids=["top_level_array", "string_simplices", "integer_labels", "nested_labels"])
def test_cli_malformed_complex_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "k.json"
    path.write_text(content)
    code = main(["duality-check", "--complex", str(path)])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "5",
    '{"name": "f", "domain": "path", "codomain": "path",'
    ' "vertex_map": {"a": "a", "b": 1, "c": "c"}}',
], ids=["top_level_number", "integer_image"])
def test_cli_malformed_map_is_input_error(tmp_path, capsys, content):
    cpath = tmp_path / "path.json"
    SimplicialComplex.from_maximal_simplices("path", [["a", "b"], ["b", "c"]]).save(cpath)
    mpath = tmp_path / "f.json"
    mpath.write_text(content)
    code = main(["oracle", "--complex", str(cpath), "--map", str(mpath)])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["complex", "map"])
def test_cli_deeply_nested_json_is_input_error(tmp_path, capsys, kind):
    cpath = tmp_path / "path.json"
    SimplicialComplex.from_maximal_simplices("path", [["a", "b"], ["b", "c"]]).save(cpath)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # too deep for the parser's recursion
    if kind == "complex":
        code = main(["duality-check", "--complex", str(deep)])
    else:
        code = main(["oracle", "--complex", str(cpath), "--map", str(deep)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_vertex_map_key_outside_the_domain_is_input_error(tmp_path, capsys):
    cpath = tmp_path / "path.json"
    SimplicialComplex.from_maximal_simplices("path", [["a", "b"], ["b", "c"]]).save(cpath)
    mpath = tmp_path / "f.json"
    mpath.write_text(json.dumps({"name": "f", "domain": "path", "codomain": "path",
                                 "vertex_map": {"a": "a", "b": "b", "c": "c", "z": "a"}}))
    code = main(["analyze", "--complex", str(cpath), "--map", str(mpath)])
    assert code == EXIT_INPUT
    assert "not domain vertices: ['z']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "oracle", "duality-check"])
@pytest.mark.parametrize("vertex_map, message", [
    # a and c are the ends of the path, not an edge
    ({"a": "a", "b": "c", "c": "c"}, "vertex map of 'f' is not simplicial"),
    ({"a": "a", "b": "b"}, "vertex map not total; missing ['c']"),
], ids=["not_simplicial", "not_total"])
def test_cli_bad_vertex_map_is_input_error(tmp_path, capsys, command, vertex_map, message):
    cpath = tmp_path / "path.json"
    SimplicialComplex.from_maximal_simplices("path", [["a", "b"], ["b", "c"]]).save(cpath)
    mpath = tmp_path / "f.json"
    mpath.write_text(json.dumps({"name": "f", "domain": "path", "codomain": "path",
                                 "vertex_map": vertex_map}))
    code = main([command, "--complex", str(cpath), "--map", str(mpath)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {message}\n")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["path_first", "triangle_first"])
def test_cli_two_complexes_with_one_name_are_input_error(tmp_path, capsys, order):
    paths = [tmp_path / "p.json", tmp_path / "p2.json"]
    SimplicialComplex.from_maximal_simplices("p", [["a", "b"], ["b", "c"]]).save(paths[0])
    SimplicialComplex.from_maximal_simplices(
        "p", [["a", "b"], ["b", "c"], ["a", "c"]]).save(paths[1])
    mpath = tmp_path / "j.json"
    mpath.write_text(json.dumps({"name": "j", "domain": "p", "codomain": "p",
                                 "vertex_map": {"a": "a", "b": "b", "c": "c"}}))
    args = [arg for i in order for arg in ("--complex", str(paths[i]))]
    code = main(["analyze", *args, "--map", str(mpath)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "input error: two --complex files define a complex named 'p'\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--entry", "equator_s1_s2", "--json", "{f}/x.json"],
    ["catalog", "--dump", "{f}/sub"],
])
def test_cli_unwritable_output_path_is_input_error(tmp_path, capsys, argv):
    f = tmp_path / "f"
    f.write_text("a regular file, not a directory\n")
    code = main([a.format(f=f) for a in argv])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_cli_negative_subdivide_is_input_error(capsys):
    code = main(["oracle", "--entry", "equator_s1_s2", "--subdivide", "-1"])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--bogus"],
    ["analyze", "--entry", "equator_s1_s2", "--subdivide", "x"],
    # each command takes only the options it reads
    ["analyze", "--entry", "equator_s1_s2", "--seed", "3"],
    ["oracle", "--entry", "equator_s1_s2", "--seed", "3"],
    ["duality-check", "--entry", "equator_s1_s2", "--seed", "3"],
    ["oracle", "--entry", "equator_s1_s2", "--json", "out.json"],
    ["duality-check", "--entry", "equator_s1_s2", "--json", "out.json"],
    ["selftest", "--json", "out.json"],
    ["selftest", "--subdivide", "1"],
])
def test_cli_usage_error_is_input_error(capsys, argv):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("command", ["analyze", "oracle", "duality-check", "selftest"])
def test_cli_unknown_option_shows_the_command_usage(capsys, command):
    assert main([command, "--bogus", "3"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sepcheck {command} ")
    assert f"sepcheck {command}: error: unrecognized arguments: --bogus 3" in err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: sepcheck")


def test_cli_analyze_unknown_entry_is_input_error(capsys):
    code = main(["analyze", "--entry", "does_not_exist"])
    capsys.readouterr()
    assert code == EXIT_INPUT


def test_cli_analyze_from_files(tmp_path, capsys):
    entry = build_catalog()["equator_s1_s2"]
    args = []
    for name, k in entry.complexes.items():
        path = tmp_path / f"{name}.json"
        k.save(path)
        args += ["--complex", str(path)]
    mpath = tmp_path / "map.json"
    entry.map.save(mpath)
    out_json = tmp_path / "report.json"
    code = main(["analyze", *args, "--map", str(mpath), "--json", str(out_json)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out_json.read_text()) == json.loads(printed)


@pytest.mark.parametrize("times, want", [(0, EXIT_OK), (1, EXIT_INPUT)])
def test_cli_colliding_barycenter_labels_are_input_error(tmp_path, capsys, times, want):
    # Edges {x.y, z} and {x, y.z} would both subdivide to the barycenter ⟨x.y.z⟩.
    poles, equator = ("x.y", "x"), ("z", "y.z", "c", "d")
    files = {
        "octa": {"name": "octa", "maximal_simplices":
                 [[p, equator[i], equator[(i + 1) % 4]] for p in poles for i in range(4)]},
        "square": {"name": "square", "maximal_simplices":
                   [["p", "q"], ["q", "r"], ["r", "t"], ["p", "t"]]},
        "f": {"name": "f", "domain": "square", "codomain": "octa",
              "vertex_map": {"p": "z", "q": "y.z", "r": "c", "t": "d"}},
    }
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    code = main(["analyze", "--complex", str(tmp_path / "octa.json"),
                 "--complex", str(tmp_path / "square.json"),
                 "--map", str(tmp_path / "f.json"), "--subdivide", str(times)])
    captured = capsys.readouterr()
    assert code == want
    if want == EXIT_OK:
        assert json.loads(captured.out)["separation"]["beta0_oracle"] == 2
    else:
        assert captured.err == ("input error: two simplices of octa share the "
                                "barycenter label '⟨x.y.z⟩'\n")


def test_cli_oracle_reports_component_count(capsys):
    code = main(["oracle", "--entry", "triple_bouquet_s1_s2"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out == {"map": "triple_bouquet_s1_s2", "beta0_oracle": 4}


def test_cli_duality_check_entry(capsys):
    code = main(["duality-check", "--entry", "equator_s1_s2"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert all(item["certified"] and item["poincare_duality"] for item in out)


def test_cli_duality_check_subdivides_entry(capsys):
    code = main(["duality-check", "--entry", "equator_s1_s2", "--subdivide", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [(item["complex"], item["dim"]) for item in out] == [
        ("Sd(Sd(square))", 1), ("Sd(Sd(octahedron))", 2)]
    assert all(item["certified"] and item["poincare_duality"] for item in out)


def test_cli_duality_check_subdivides_every_complex_file(tmp_path, capsys):
    args = []
    for name in ("square", "octahedron"):
        path = tmp_path / f"{name}.json"
        build_catalog()["equator_s1_s2"].complexes[name].save(path)
        args += ["--complex", str(path)]
    code = main(["duality-check", *args, "--subdivide", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [item["complex"] for item in out] == ["Sd(square)", "Sd(octahedron)"]
    assert all(item["certified"] and item["poincare_duality"] for item in out)


@pytest.mark.parametrize("target", ["--entry", "--complex"])
def test_cli_duality_check_negative_subdivide_is_input_error(target, tmp_path, capsys):
    path = tmp_path / "square.json"
    build_catalog()["equator_s1_s2"].complexes["square"].save(path)
    value = "equator_s1_s2" if target == "--entry" else str(path)
    code = main(["duality-check", target, value, "--subdivide", "-1"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: --subdivide must be at least 0, got -1\n"


def test_cli_analyze_is_deterministic(capsys):
    assert main(["analyze", "--entry", "figure_eight_s1_s2"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["analyze", "--entry", "figure_eight_s1_s2"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_selftest_passes_and_is_deterministic():
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert run_selftest(out=buf1) == EXIT_OK
    assert run_selftest(out=buf2) == EXIT_OK
    assert buf1.getvalue() == buf2.getvalue()
    assert all(line.startswith("PASS") for line in buf1.getvalue().splitlines())


def test_selftest_negative_control_catches_corruption():
    corrupted = build_catalog()
    corrupted["figure_eight_s1_s2"].expected["beta0_formula"] = 99
    buf = io.StringIO()
    assert run_selftest(entries=corrupted, out=buf) == EXIT_ASSERTION
    lines = buf.getvalue().splitlines()
    assert "FAIL catalog_figure_eight_s1_s2 (beta0_formula: expected 99, got 3)" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1


def test_cli_zero_dimensional_domain_is_refused_not_crashed(tmp_path, capsys):
    files = {
        "pts": {"name": "pts", "maximal_simplices": [["p"], ["q"]]},
        "hexagon": {"name": "hexagon", "maximal_simplices":
                    [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["a", "f"]]},
        "f": {"name": "f", "domain": "pts", "codomain": "hexagon",
              "vertex_map": {"p": "a", "q": "d"}},
    }
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    code = main(["analyze", "--complex", str(tmp_path / "pts.json"),
                 "--complex", str(tmp_path / "hexagon.json"), "--map", str(tmp_path / "f.json")])
    captured = capsys.readouterr()
    assert code == EXIT_REFUSED
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["separation"] == {"refused": "h1_Y_zero"}
    assert report["obstruction"] == {"refused": "domain_dim_positive"}


def test_cli_internal_error_exits_2_with_one_line(monkeypatch, capsys):
    def crash(f):
        raise KeyError("boom")
    monkeypatch.setattr("sepcheck.cli.analyze_instance", crash)
    code = main(["analyze", "--entry", "equator_s1_s2"])
    err = capsys.readouterr().err
    assert code == EXIT_ASSERTION
    assert err == "internal error: KeyError: 'boom'\n"


def test_cli_assertion_exits_2_with_one_line(monkeypatch, capsys):
    def fail(f):
        raise AssertionError("x")
    monkeypatch.setattr("sepcheck.cli.analyze_instance", fail)
    code = main(["analyze", "--entry", "equator_s1_s2"])
    captured = capsys.readouterr()
    assert code == EXIT_ASSERTION
    assert captured.err == "assertion failure: x\n"
    assert captured.out == ""


def test_cli_carried_basis_certificate_exits_2_with_one_line(monkeypatch, capsys):
    """One bit flipped in one representative carried up to Sd¹ fails its certificate."""
    real = homology._carry
    flipped = []

    def flip_one(c, cohomology, d, reps):
        out = real(c, cohomology, d, reps)
        if out and not flipped:
            flipped.append((cohomology, d))
            out = (out[0] ^ 1,) + out[1:]
        return out

    monkeypatch.setattr(homology, "_carry", flip_one)
    code = main(["analyze", "--entry", "essential_circle_t2", "--subdivide", "1"])
    captured = capsys.readouterr()
    assert flipped
    assert code == EXIT_ASSERTION
    assert captured.err.startswith("assertion failure: ") and captured.err.count("\n") == 1
    assert captured.out == ""
