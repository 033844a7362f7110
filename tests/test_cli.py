import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ditop

from ditop import ditc
from ditop.cli import run
from ditop.cubecore import PrecubicalSet, build_grid_complex, grid_vertex
from ditop.equivcheck import dmap_from_vertex_map, identity_dmap
from ditop.fixtures import PV_SOURCES
from ditop.natsys import build_natural_system

from oracles import bisim_gfp


@pytest.fixture
def pv1_file(tmp_path):
    p = tmp_path / "pv1.pv"
    p.write_text(PV_SOURCES["pv1"] + "\n")
    return str(p)


@pytest.fixture
def pv1_json(tmp_path, pv1):
    p = tmp_path / "pv1.json"
    p.write_text(pv1.to_json())
    return str(p)


def _last_json(capsys):
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON report in output:\n{out}")


def test_parse(pv1_file, capsys):
    assert run(["parse", "--pv", pv1_file]) == 0
    rep = _last_json(capsys)
    assert rep["schema"] == 1
    assert rep["result"]["dims"] == [3, 3]
    assert rep["result"]["model"]["vertices"] == 16


@pytest.mark.parametrize("kind", ["pv", "json"])
def test_parse_takes_only_a_pv_file(pv1_file, pv1_json, capsys, kind):
    # --complex is not a parse option, whatever the file holds
    path = pv1_file if kind == "pv" else pv1_json
    assert run(["parse", "--complex", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "required: --pv" in err
    assert run(["parse", "--pv", pv1_file, "--complex", path]) == 1
    assert "unrecognized arguments: --complex" in capsys.readouterr().err


def test_classes(pv1_file, capsys):
    assert run(["classes", "--pv", pv1_file, "--from", "0", "--to", "15"]) == 0
    rep = _last_json(capsys)
    assert rep["result"]["count"] == 2


def test_classes_from_json(pv1_json, capsys):
    assert run(["classes", "--complex", pv1_json, "--from", "0", "--to", "15"]) == 0
    assert _last_json(capsys)["result"]["count"] == 2


def test_nathom(pv1_file, capsys):
    assert run(["nathom", "--pv", pv1_file, "--json-only"]) == 0
    rep = _last_json(capsys)
    assert rep["result"]["n_objects"] == 100


def test_bisim_not(tmp_path, capsys, sf, hs):
    a = tmp_path / "sf.json"
    a.write_text(sf.to_json())
    b = tmp_path / "hs.json"
    b.write_text(hs.to_json())
    assert run(["bisim", "--complex", str(a), "--complex", str(b)]) == 0
    rep = _last_json(capsys)
    assert rep["result"]["bisimilar"] is False
    assert rep["result"]["counterexample"]["side"] == "left"


def test_equiv_refuted(tmp_path, capsys, matchbox, topface):
    from ditop.fixtures import matchbox_maps

    f, g = matchbox_maps()
    paths = {}
    for name, obj in (
        ("x.json", matchbox.to_json()),
        ("y.json", topface.to_json()),
        ("f.json", f.to_json()),
        ("g.json", g.to_json()),
    ):
        p = tmp_path / name
        p.write_text(obj)
        paths[name] = str(p)
    assert run(["equiv", paths["x.json"], paths["y.json"],
                "--f", paths["f.json"], "--g", paths["g.json"]]) == 0
    rep = _last_json(capsys)
    assert rep["result"]["verdict"] is False
    assert rep["result"]["counterexample"]["stage"] == "f-class-bijection"


def test_equiv_refuted_by_a_lifting_diagram(tmp_path, capsys, seg, wedge):
    # the wedge's edge 0 -> 1 leads from g's image (0, 0) of (1, 1) into
    # (0, 1), whose only preimage under g, (0, 2), does not extend (1, 1)
    files = []
    for name, text in (
        ("x.json", seg.to_json()),
        ("y.json", wedge.to_json()),
        ("f.json", dmap_from_vertex_map(seg, wedge, [0, 0]).to_json()),
        ("g.json", dmap_from_vertex_map(wedge, seg, [0, 0, 1]).to_json()),
    ):
        p = tmp_path / name
        p.write_text(text)
        files.append(str(p))
    x, y, f, g = files
    argv = ["equiv", x, y, "--f", f, "--g", g, "--json-only"]
    assert run(argv) == 0
    assert _last_json(capsys)["result"] == {
        "strong": False, "verdict": False, "counterexample": {
            "stage": "diagram-B", "location": [[0, 1], [0, 1]],
            "detail": "no preimage pair extends the source"}}
    assert run(argv + ["--strong"]) == 0
    assert _last_json(capsys)["result"] == {"strong": True, "verdict": False}


def test_dicontractible(pv1_file, capsys):
    assert run(["dicontractible", "--pv", pv1_file]) == 0
    rep = _last_json(capsys)
    assert rep["result"]["dicontractible"] is False
    assert rep["result"]["obstruction_pair"] == [0, 10]


def test_dicontractible_computes_homology_once(pv1_file, capsys, monkeypatch):
    from ditop import cli, zhom

    ranks = zhom.homology_ranks
    calls = []

    def counted(x):
        calls.append(x)
        return ranks(x)

    monkeypatch.setattr(cli, "homology_ranks", counted)
    monkeypatch.setattr(zhom, "homology_ranks", counted)
    assert run(["dicontractible", "--pv", pv1_file]) == 0
    assert len(calls) == 1
    assert _last_json(capsys)["result"]["homology"] == {
        "betti0": 1, "betti1": 1, "torsion": []}


def test_ditc_exact(pv1_file, capsys):
    assert run(["ditc", "--pv", pv1_file]) == 0
    assert _last_json(capsys)["result"]["n"] == 2


@pytest.mark.parametrize("argv", [["--cap", "6"], ["--upper", "--cap", "0"]])
def test_ditc_has_no_cap_flag(pv1_file, capsys, argv):
    # the part cap is the constant ditc.DEFAULT_PART_CAP
    assert run(["ditc", "--pv", pv1_file, *argv]) == 1
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_ditc_part_cap_exit_2(monkeypatch, pv1_file, capsys):
    # read at call time, so patching the constant reaches the search
    monkeypatch.setattr(ditc, "DEFAULT_PART_CAP", 1)
    assert run(["ditc", "--pv", pv1_file]) == 2
    assert capsys.readouterr().err == (
        "error: no partition within the part cap 1; best bound 2\n")


def test_ditc_upper(pv1_file, capsys):
    assert run(["ditc", "--pv", pv1_file, "--upper"]) == 0
    rep = _last_json(capsys)
    assert rep["result"]["mode"] == "upper"
    assert rep["result"]["n"] >= 2


def test_consecutive_runs_see_only_their_own_models(pv1_file, tmp_path, capsys, seg, hs):
    # the parser is built once per process, so no parse may keep models
    seg_json = tmp_path / "seg.json"
    seg_json.write_text(seg.to_json())
    hs_json = tmp_path / "hs.json"
    hs_json.write_text(hs.to_json())
    runs = [
        (["ditc", "--pv", pv1_file], [16]),
        (["ditc", "--complex", str(seg_json)], [seg.n_vertices]),
        (["bisim", "--complex", str(hs_json), "--complex", str(seg_json)],
         [hs.n_vertices, seg.n_vertices]),
        (["bisim", "--complex", str(seg_json), "--pv", pv1_file], [seg.n_vertices, 16]),
        (["ditc", "--complex", str(hs_json)], [hs.n_vertices]),
    ]
    for argv, vertices in runs:
        assert run(argv + ["--json-only"]) == 0
        assert [m["vertices"] for m in _last_json(capsys)["models"]] == vertices


def test_the_parser_is_built_once(monkeypatch, pv1_file, capsys):
    from ditop import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(["dicontractible", "--pv", pv1_file, "--json-only"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_fixtures_roundtrip(tmp_path, capsys, sf):
    assert run(["fixtures", "sf", "--dir", str(tmp_path)]) == 0
    text = (tmp_path / "sf.json").read_text()
    assert PrecubicalSet.from_json(text).to_json() == text


def test_json_only_suppresses_summary(pv1_file, capsys):
    assert run(["classes", "--pv", pv1_file, "--from", "0", "--to", "15",
                "--json-only"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    json.loads(lines[0])


def test_json_report_deterministic(pv1_file, capsys):
    args = ["ditc", "--pv", pv1_file, "--json-only"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_exit_1(capsys):
    assert run(["parse", "--pv", "/nonexistent.pv"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_fixture_exit_1(tmp_path, capsys):
    assert run(["fixtures", "nope", "--dir", str(tmp_path)]) == 1


def test_wrong_model_count_exit_1(pv1_file, capsys):
    assert run(["bisim", "--pv", pv1_file]) == 1


def test_bad_syntax_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.pv"
    p.write_text("Qx")
    assert run(["parse", "--pv", str(p)]) == 1


def test_budget_exceeded_exit_2(tmp_path, capsys):
    # 7 parallel edges: class-set bijections overflow the budget
    x = PrecubicalSet(2, [(0, 1)] * 7)
    p = tmp_path / "wide.json"
    p.write_text(x.to_json())
    assert run(["bisim", "--complex", str(p), "--complex", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert run(["classes"]) == 1


def test_json_only_goes_after_the_subcommand(pv1_file, capsys):
    assert run(["--json-only", "nathom", "--pv", pv1_file]) == 1
    assert "unrecognized arguments: --json-only" in capsys.readouterr().err


def test_exact_flag_removed(pv1_file, capsys):
    # exact is the default mode; only --upper selects the other
    assert run(["ditc", "--pv", pv1_file, "--exact"]) == 1


def test_depth_flag_removed(tmp_path, capsys, seg):
    # the equivalence search is exact over class pairs: no depth to set
    x = tmp_path / "x.json"
    x.write_text(seg.to_json())
    i = tmp_path / "i.json"
    i.write_text(identity_dmap(seg).to_json())
    argv = ["equiv", str(x), str(x), "--f", str(i), "--g", str(i)]
    assert run(argv + ["--depth", "2"]) == 1
    assert run(argv) == 0
    assert _last_json(capsys)["result"] == {"strong": False, "verdict": True}


def test_run_sets_no_environment(monkeypatch, pv1_file, capsys):
    monkeypatch.delenv("DITOP_THREADS", raising=False)
    before = dict(os.environ)
    assert run(["classes", "--pv", pv1_file, "--from", "0", "--to", "15"]) == 0
    assert dict(os.environ) == before


def test_python_m_cli(pv1_file):
    src = str(Path(ditop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "ditop.cli", "classes", "--pv", pv1_file,
         "--from", "0", "--to", "15", "--json-only"],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["count"] == 2


def test_module_entry_point_exit_codes(tmp_path):
    # main() passes run()'s code to sys.exit; the installed script names it
    src = str(Path(ditop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def ditop_m(*argv):
        return subprocess.run([sys.executable, "-m", "ditop.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    out = ditop_m("--version")
    assert (out.returncode, out.stdout.strip()) == (0, ditop.__version__)
    chain = tmp_path / "chain.json"
    chain.write_text(PrecubicalSet(71, [(i, i + 1) for i in range(70)]).to_json())
    out = ditop_m("ditc", "--complex", str(chain))
    assert out.returncode == 2
    assert out.stderr == "error: 2556 reachable pairs exceed the exact-search cap 2500\n"
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ditop"]
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))


MALFORMED_COMPLEXES = {
    "not an object": [1, 2],
    "a number": 5,
    "short edge": {"vertices": 2, "edges": [[0]]},
    "edge of strings": {"vertices": 2, "edges": [["0", "1"]]},
    "edges not a list": {"vertices": 2, "edges": {"0": 1}},
    "vertices a string": {"vertices": "x", "edges": []},
    "vertices a bool": {"vertices": True, "edges": []},
    "negative vertices": {"vertices": -1, "edges": []},
    "short square": {"vertices": 2, "edges": [[0, 1]], "squares": [[0, 0, 0]]},
    "square of floats": {"vertices": 2, "edges": [[0, 1]],
                         "squares": [[0.5, 0, 0, 0]]},
    "labels a list": {"vertices": 2, "edges": [[0, 1]], "labels": [1]},
    "label key not a vertex": {"vertices": 2, "edges": [[0, 1]],
                               "labels": {"a": "x"}},
    "label not a string": {"vertices": 2, "edges": [[0, 1]], "labels": {"0": 1}},
    "label for an unknown vertex": {"vertices": 2, "edges": [[0, 1]],
                                    "labels": {"7": "x"}},
    "coords not a list": {"vertices": 2, "edges": [[0, 1]], "coords": 3},
    "coords of strings": {"vertices": 2, "edges": [[0, 1]],
                          "coords": [["a"], ["b"]]},
    "coords too short": {"vertices": 2, "edges": [[0, 1]], "coords": [[0]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COMPLEXES))
def test_malformed_complex_exit_1(case, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(MALFORMED_COMPLEXES[case]))
    assert run(["nathom", "--complex", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error:")


MALFORMED_DMAPS = {
    "not an object": [0, 1],
    "vertex map of strings": {"vertex_map": ["0", "1"], "edge_map": [["e", 0]],
                              "square_map": []},
    "vertex map not a list": {"vertex_map": 0, "edge_map": [["e", 0]],
                              "square_map": []},
    "short edge entry": {"vertex_map": [0, 1], "edge_map": [["e"]],
                         "square_map": []},
    "edge index a string": {"vertex_map": [0, 1], "edge_map": [["e", "x"]],
                            "square_map": []},
    "edge tag not a string": {"vertex_map": [0, 1], "edge_map": [[0, 0]],
                              "square_map": []},
    "square map not a list": {"vertex_map": [0, 1], "edge_map": [["e", 0]],
                              "square_map": 7},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DMAPS))
def test_malformed_dmap_exit_1(case, tmp_path, capsys, seg):
    x = tmp_path / "seg.json"
    x.write_text(seg.to_json())
    good = tmp_path / "id.json"
    good.write_text(json.dumps({"vertex_map": [0, 1], "edge_map": [["e", 0]],
                                "square_map": []}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_DMAPS[case]))
    assert run(["equiv", str(x), str(x), "--f", str(bad), "--g", str(good)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["parse", "--pv", "{}"],
    ["nathom", "--complex", "{}"],
])
def test_undecodable_file_exit_1(argv, tmp_path, capsys):
    p = tmp_path / "bin"
    p.write_bytes(b"\xff\xfe")
    assert run([a.format(p) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bisim_relation_size(tmp_path, capsys):
    # one-hole 4x4 grid against itself
    x = build_grid_complex((4, 4), [((1, 3), (1, 3))])
    path = tmp_path / "h4.json"
    path.write_text(x.to_json())
    assert run(["bisim", "--complex", str(path), "--complex", str(path), "--json-only"]) == 0
    s = build_natural_system(x)
    ok, triples = bisim_gfp(s, s)
    assert ok and len(triples) == 7200
    assert _last_json(capsys)["result"] == {"bisimilar": True, "relation_size": len(triples)}


def test_bisim_counterexample_object(tmp_path, capsys, sf, hs):
    # the left object from the start to the deadlock state (2, 2) of sf
    # has no partner in hs (oracles.bisim_gfp agrees, in about 12 s)
    paths = []
    for name, x in (("sf", sf), ("hs", hs)):
        paths += ["--complex", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(x.to_json())
    assert run(["bisim", *paths, "--json-only"]) == 0
    assert _last_json(capsys)["result"] == {
        "bisimilar": False,
        "counterexample": {"side": "left", "object": [0, grid_vertex(sf, (2, 2))]},
    }
