"""Command-line front end.

Each subcommand loads one or two models (PV source via --pv, precubical
JSON via --complex), runs an analysis, and prints a machine-readable
JSON report followed by a short text summary (suppressed by
--json-only, given after the subcommand).  Exit codes: 0 analysis
completed (the verdict itself may be negative), 1 usage error, 2 budget
or cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .cubecore import PrecubicalSet, build_grid_complex
from .ditc import ditc_exact, ditc_upper
from .equivcheck import DMapData, check_dihomotopy_equivalence, check_strong
from .errors import BudgetExceeded, ModelError, PathCapExceeded
from .fixtures import write_fixture
from .natsys import bisimilar, build_natural_system
from .pvlang import compile_pv, parse_pv, pretty_print
from .traceclass import trace_classes
from .zhom import homology_ranks, section_exists, trivial_homology

SCHEMA_VERSION = 1


class _ModelArg(argparse.Action):
    """Collect --pv/--complex occurrences in order, into a new list per
    parse: the parser is built once and its defaults are shared."""

    def __call__(self, parser, namespace, value, option_string=None):
        kind = "pv" if option_string == "--pv" else "complex"
        namespace.models = [*getattr(namespace, "models", ()), (kind, value)]


def _add_model_flags(sub, count=1):
    sub.add_argument("--pv", action=_ModelArg, metavar="FILE",
                     help="PV program source")
    sub.add_argument("--complex", action=_ModelArg, metavar="FILE",
                     help="precubical complex JSON")
    sub.set_defaults(models=(), n_models=count)


def _load_model(kind, path):
    with open(path) as fh:
        text = fh.read()
    if kind == "pv":
        return build_grid_complex(*compile_pv(parse_pv(text)))
    return PrecubicalSet.from_json(text)


def _digest(x: PrecubicalSet):
    return {
        "vertices": x.n_vertices,
        "edges": len(x.edges),
        "squares": len(x.squares),
    }


def _emit(args, command, models, result, started):
    report = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "models": [_digest(m) for m in models],
        "result": result,
    }
    print(json.dumps(report, sort_keys=True))
    if not args.json_only:
        print(f"# {command}: done in {time.monotonic() - started:.3f}s")


def _path_json(p):
    return {"start": p.start, "edges": list(p.edges)}


# -- subcommand bodies -------------------------------------------------------


def _cmd_parse(args):
    with open(args.pv) as fh:
        text = fh.read()
    prog = parse_pv(text)
    dims, boxes = compile_pv(prog)
    x = build_grid_complex(dims, boxes)
    result = {
        "program": pretty_print(prog),
        "dims": list(dims),
        "forbidden": [[list(iv) for iv in box] for box in boxes],
        "model": _digest(x),
    }
    return [x], result, f"parsed: {result['program']}"


def _cmd_classes(args):
    x = _load_model(*args.models[0])
    cs = trace_classes(x, args.src, args.dst)
    result = {
        "pair": [args.src, args.dst],
        "count": cs.count,
        "representatives": [_path_json(p) for p in cs.representatives],
    }
    return [x], result, f"{cs.count} class(es) from {args.src} to {args.dst}"


def _cmd_nathom(args):
    x = _load_model(*args.models[0])
    system = build_natural_system(x)
    result = {
        "objects": [
            {"pair": list(pair), "classes": system.counts[i],
             "arrows": len(system.arrows[i])}
            for i, pair in enumerate(system.objects)
        ],
        "n_objects": system.n_objects,
    }
    return [x], result, f"natural class system with {system.n_objects} objects"


def _cmd_bisim(args):
    a = _load_model(*args.models[0])
    b = _load_model(*args.models[1])
    verdict, detail = bisimilar(build_natural_system(a), build_natural_system(b))
    if verdict:
        result = {"bisimilar": True, "relation_size": detail.size}
        text = f"bisimilar ({detail.size} triples)"
    else:
        result = {
            "bisimilar": False,
            "counterexample": {"side": detail.side, "object": list(detail.obj)},
        }
        text = f"not bisimilar; uncovered {detail.side} object {detail.obj}"
    return [a, b], result, text


def _cmd_equiv(args):
    x = _load_model(_infer_kind(args.x), args.x)
    y = _load_model(_infer_kind(args.y), args.y)
    with open(args.f) as fh:
        f = DMapData.from_json(fh.read())
    with open(args.g) as fh:
        g = DMapData.from_json(fh.read())
    if args.strong:
        verdict = check_strong(x, y, f, g)
        result = {"strong": True, "verdict": verdict}
        text = f"strong equivalence check: {verdict}"
    else:
        verdict, detail = check_dihomotopy_equivalence(x, y, f, g)
        result = {"strong": False, "verdict": verdict}
        if verdict:
            text = "accepted at class level"
        else:
            result["counterexample"] = {
                "stage": detail.stage,
                "location": list(detail.location),
                "detail": detail.detail,
            }
            text = f"refuted: {detail.stage} at {detail.location}"
    return [x, y], result, text


def _cmd_dicontractible(args):
    x = _load_model(*args.models[0])
    betti0, betti1, torsion = homology_ranks(x)
    contractible = trivial_homology(betti0, betti1, torsion)
    section_ok, obstruction = section_exists(x)
    verdict = contractible and section_ok
    result = {
        "dicontractible": verdict,
        "contractible_surrogate": contractible,
        "homology": {"betti0": betti0, "betti1": betti1, "torsion": torsion},
        "unique_class_per_pair": section_ok,
    }
    if not section_ok:
        result["obstruction_pair"] = list(obstruction)
    return [x], result, f"dicontractible: {verdict}"


def _cmd_ditc(args):
    x = _load_model(*args.models[0])
    if args.upper:
        n, sp = ditc_upper(x)
        mode = "upper"
    else:
        n, sp = ditc_exact(x)
        mode = "exact"
    result = {
        "mode": mode,
        "n": n,
        "parts": [sorted([list(p) for p in part]) for part in sp.parts],
        "choices": {f"{a},{b}": c for (a, b), c in sorted(sp.choices.items())},
    }
    return [x], result, f"diTC {mode} bound: {n}"


def _cmd_fixtures(args):
    paths = write_fixture(args.name, args.dir)
    result = {"name": args.name, "files": [os.path.basename(p) for p in paths]}
    return [], result, f"wrote {len(paths)} file(s) to {args.dir}"


def _infer_kind(path):
    return "pv" if path.endswith(".pv") else "complex"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ditop",
        description="directed-topology analyses on small precubical models")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-only", action="store_true",
                        help="suppress the text summary")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=lambda **kw: argparse.ArgumentParser(
                                     parents=[common], **kw))

    sp = subs.add_parser("parse", help="parse a PV program and report its model")
    sp.add_argument("--pv", required=True, metavar="FILE", help="PV program source")
    sp.set_defaults(body=_cmd_parse)

    sp = subs.add_parser("classes", help="dihomotopy classes of one pair")
    _add_model_flags(sp)
    sp.add_argument("--from", dest="src", type=int, required=True)
    sp.add_argument("--to", dest="dst", type=int, required=True)
    sp.set_defaults(body=_cmd_classes)

    sp = subs.add_parser("nathom", help="dump the natural class system")
    _add_model_flags(sp)
    sp.set_defaults(body=_cmd_nathom)

    sp = subs.add_parser("bisim", help="bisimilarity of two natural class systems")
    _add_model_flags(sp, count=2)
    sp.set_defaults(body=_cmd_bisim)

    sp = subs.add_parser("equiv", help="check a supplied dihomotopy equivalence")
    sp.add_argument("x", help="source model file (.pv or .json)")
    sp.add_argument("y", help="target model file (.pv or .json)")
    sp.add_argument("--f", required=True, help="dmap x -> y (JSON)")
    sp.add_argument("--g", required=True, help="dmap y -> x (JSON)")
    sp.add_argument("--strong", action="store_true")
    sp.set_defaults(body=_cmd_equiv, models=(), n_models=0)

    sp = subs.add_parser("dicontractible", help="decide dicontractibility")
    _add_model_flags(sp)
    sp.set_defaults(body=_cmd_dicontractible)

    sp = subs.add_parser("ditc", help="directed topological complexity")
    _add_model_flags(sp)
    sp.add_argument("--upper", action="store_true")
    sp.set_defaults(body=_cmd_ditc)

    sp = subs.add_parser("fixtures", help="write a built-in example to disk")
    sp.add_argument("name")
    sp.add_argument("--dir", default=".")
    sp.set_defaults(body=_cmd_fixtures, models=(), n_models=0)

    return parser


@functools.cache
def _parser():
    return build_parser()


def run(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if getattr(args, "n_models", 0) and len(args.models) != args.n_models:
        print(f"error: expected {args.n_models} model argument(s) "
              f"(--pv/--complex), got {len(args.models)}", file=sys.stderr)
        return 1
    started = time.monotonic()
    try:
        models, result, text = args.body(args)
    except (BudgetExceeded, PathCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, args.command, models, result, started)
    if not args.json_only:
        print(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
