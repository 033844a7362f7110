import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ditop

from ditop import ditc, pvlang
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


def test_ditc_on_the_one_hole_9x9_grid(tmp_path, capsys):
    x = build_grid_complex((9, 9), [((3, 6), (3, 6))])
    path = tmp_path / "h9.json"
    path.write_text(x.to_json())
    assert run(["ditc", "--complex", str(path)]) == 0
    result = _last_json(capsys)["result"]
    assert (result["mode"], result["n"]) == ("exact", 2)
    parts = tuple(frozenset(map(tuple, part)) for part in result["parts"])
    # the report lists only the pairs whose class is not 0
    listed = {tuple(map(int, pair.split(","))): c for pair, c in result["choices"].items()}
    assert 0 not in listed.values()
    choices = {pair: listed.get(pair, 0) for part in parts for pair in part}
    assert ditc.verify_partition(x, ditc.SectionPartition(parts, choices))
    assert choices == ditc.ditc_exact(x)[1].choices


def test_ditc_upper_on_cap3(tmp_path, capsys):
    path = tmp_path / "cap3.pv"
    path.write_text("Pa Va Pb Vb | Pb Vb Pa Va | Pa Pb Vb Va\n")
    assert run(["ditc", "--pv", str(path), "--upper"]) == 0
    assert _last_json(capsys)["result"]["n"] == 3


def test_ditc_on_m4_runs_out_of_search_nodes(monkeypatch, tmp_path, capsys):
    # the greedy search of the 4-process mutex is exponential; the node
    # budget stops it in its first part
    monkeypatch.setattr(pvlang, "DEFAULT_DIM_CAP", 4)
    path = tmp_path / "m4.pv"
    path.write_text("Pa Va | Pa Va | Pa Va | Pa Va\n")
    assert run(["ditc", "--pv", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: greedy stopped at part 0 after 200,000 search nodes, the node budget\n")


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
    # a 1,200-vertex chain is over the default size budget of ditc
    chain = tmp_path / "chain.json"
    chain.write_text(PrecubicalSet(1200, [(i, i + 1) for i in range(1199)]).to_json())
    out = ditop_m("ditc", "--complex", str(chain))
    assert out.returncode == 2
    assert out.stderr == ("error: the natural system has 720,600 objects and 1,438,800 "
                          "arrows, over the size budget 1,500,000\n")
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ditop"]
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))


_ROWS = "'edges' must be a list of 2-integer lists"
_SQUARES = "'squares' must be a list of 4-integer lists"
_LABELS = "'labels' must map vertex ids to strings"
_COORDS = "'coords' must list one integer point per vertex"
_AXES = "'coords' points must have one common, positive number of axes"
_SQUARE = {"vertices": 4, "edges": [[0, 1], [1, 3], [0, 2], [2, 3]]}

# case -> (file content, the loader's message); a str is written as is,
# anything else as JSON.  One case or more per check, in check order.
MALFORMED_COMPLEXES = {
    "not JSON": ("{", "invalid complex file: Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1)"),
    "not an object": ([1, 2], "complex file must hold a JSON object"),
    "a number": (5, "complex file must hold a JSON object"),
    "no edges": ({"vertices": 2}, "complex file needs 'vertices' and 'edges'"),
    "vertices a string": ({"vertices": "x", "edges": []},
                          "'vertices' must be a non-negative integer"),
    "vertices a bool": ({"vertices": True, "edges": []},
                        "'vertices' must be a non-negative integer"),
    "vertices a float": ({"vertices": 2.0, "edges": []},
                         "'vertices' must be a non-negative integer"),
    "negative vertices": ({"vertices": -1, "edges": []},
                          "'vertices' must be a non-negative integer"),
    "short edge": ({"vertices": 2, "edges": [[0]]}, _ROWS),
    "edge of strings": ({"vertices": 2, "edges": [["0", "1"]]}, _ROWS),
    "edge of bools": ({"vertices": 2, "edges": [[False, True]]}, _ROWS),
    "edge an integer": ({"vertices": 2, "edges": [0, 1]}, _ROWS),
    "edges not a list": ({"vertices": 2, "edges": {"0": 1}}, _ROWS),
    "short square": ({"vertices": 2, "edges": [[0, 1]], "squares": [[0, 0, 0]]}, _SQUARES),
    "square of floats": ({"vertices": 2, "edges": [[0, 1]], "squares": [[0.5, 0, 0, 0]]},
                         _SQUARES),
    "labels a list": ({"vertices": 2, "edges": [[0, 1]], "labels": [1]}, _LABELS),
    "label key not a vertex": ({"vertices": 2, "edges": [[0, 1]], "labels": {"a": "x"}},
                               _LABELS),
    "label key of non-ASCII digits": ({"vertices": 4, "edges": [], "labels": {"\u0663": "x"}},
                                      _LABELS),
    "label key with a leading zero": ({"vertices": 4, "edges": [], "labels": {"03": "x"}},
                                      _LABELS),
    "label key negative": ({"vertices": 2, "edges": [], "labels": {"-1": "x"}}, _LABELS),
    "label key too long to read": ({"vertices": 2, "edges": [], "labels": {"1" * 5000: "x"}},
                                   _LABELS),
    "label not a string": ({"vertices": 2, "edges": [[0, 1]], "labels": {"0": 1}}, _LABELS),
    "coords not a list": ({"vertices": 2, "edges": [[0, 1]], "coords": 3}, _COORDS),
    "coords of strings": ({"vertices": 2, "edges": [[0, 1]], "coords": [["a"], ["b"]]},
                          _COORDS),
    "coords too short": ({"vertices": 2, "edges": [[0, 1]], "coords": [[0]]}, _COORDS),
    "coords ragged": ({"vertices": 2, "edges": [[0, 1]], "coords": [[0], [0, 1]]}, _AXES),
    "coords empty": ({"vertices": 2, "edges": [[0, 1]], "coords": [[], []]}, _AXES),
    "coords repeated": ({"vertices": 2, "edges": [[0, 1]], "coords": [[0, 1], [0, 1]]},
                        "'coords' must not repeat a point"),
    "edge to an unknown vertex": ({"vertices": 2, "edges": [[0, 1], [1, 2]]},
                                  "edge (1,2) has an unknown endpoint"),
    "label for an unknown vertex": ({"vertices": 2, "edges": [[0, 1]], "labels": {"7": "x"}},
                                    "label for an unknown vertex 7"),
    "square of an unknown edge": ({**_SQUARE, "squares": [[0, 1, 2, 4]]},
                                  "square (0, 1, 2, 4) references an unknown edge"),
    "square not commuting": ({**_SQUARE, "squares": [[0, 2, 1, 3]]},
                             "square (0, 2, 1, 3) does not commute"),
    "square not closing": ({"vertices": 5, "edges": [[0, 1], [1, 3], [0, 2], [2, 4]],
                            "squares": [[0, 1, 2, 3]]}, "square (0, 1, 2, 3) does not commute"),
    "directed cycle": ({"vertices": 2, "edges": [[0, 1], [1, 0]]},
                       "edge digraph contains a directed cycle"),
}


def _write(path, content):
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_COMPLEXES))
def test_malformed_complex_exit_1(case, tmp_path, capsys):
    content, message = MALFORMED_COMPLEXES[case]
    assert run(["nathom", "--complex", _write(tmp_path / "bad.json", content)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="integers of any length are read before Python 3.11")
@pytest.mark.parametrize("argv", [["nathom", "--complex", "{bad}"],
                                  ["equiv", "{x}", "{x}", "--f", "{bad}", "--g", "{bad}"]])
def test_an_integer_too_long_to_read_exit_1(argv, tmp_path, capsys, seg):
    # json.loads raises a ValueError that is not a JSONDecodeError
    x = _write(tmp_path / "seg.json", seg.to_json())
    bad = _write(tmp_path / "bad.json", '{"vertices": 1%s}' % ("0" * 5000))
    assert run([a.format(x=x, bad=bad) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid ") and "Exceeds the limit" in err


_PAIRS = "must be a list of [tag, integer] pairs"

MALFORMED_DMAPS = {
    "not JSON": ("[", "invalid dmap file: Expecting value: line 1 column 2 (char 1)"),
    "not an object": ([0, 1], "dmap file must hold a JSON object"),
    "no square map": ({"vertex_map": [0, 1], "edge_map": [["e", 0]]},
                      "dmap file needs 'square_map'"),
    "vertex map of strings": ({"vertex_map": ["0", "1"], "edge_map": [["e", 0]],
                               "square_map": []}, "'vertex_map' must be a list of integers"),
    "vertex map of bools": ({"vertex_map": [False, True], "edge_map": [["e", 0]],
                             "square_map": []}, "'vertex_map' must be a list of integers"),
    "vertex map not a list": ({"vertex_map": 0, "edge_map": [["e", 0]], "square_map": []},
                              "'vertex_map' must be a list of integers"),
    "short edge entry": ({"vertex_map": [0, 1], "edge_map": [["e"]], "square_map": []},
                         f"'edge_map' {_PAIRS}"),
    "edge entry an integer": ({"vertex_map": [0, 1], "edge_map": [0], "square_map": []},
                              f"'edge_map' {_PAIRS}"),
    "edge index a string": ({"vertex_map": [0, 1], "edge_map": [["e", "x"]],
                             "square_map": []}, f"'edge_map' {_PAIRS}"),
    "edge index a bool": ({"vertex_map": [0, 1], "edge_map": [["e", False]],
                           "square_map": []}, f"'edge_map' {_PAIRS}"),
    "edge tag not a string": ({"vertex_map": [0, 1], "edge_map": [[0, 0]], "square_map": []},
                              f"'edge_map' {_PAIRS}"),
    "square map not a list": ({"vertex_map": [0, 1], "edge_map": [["e", 0]],
                               "square_map": 7}, f"'square_map' {_PAIRS}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DMAPS))
def test_malformed_dmap_exit_1(case, tmp_path, capsys, seg):
    x = _write(tmp_path / "seg.json", seg.to_json())
    good = _write(tmp_path / "id.json", {"vertex_map": [0, 1], "edge_map": [["e", 0]],
                                         "square_map": []})
    content, message = MALFORMED_DMAPS[case]
    bad = _write(tmp_path / "bad.json", content)
    assert run(["equiv", x, x, "--f", bad, "--g", good]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
