#!/usr/bin/env python3
"""Dump the CLI reports of the benchmark workloads, the seven fixtures
and the large grids.

Usage, from the repository root: ``python3 tools/reports.py --seeds 1-3 OUT``.
Inputs come from ``perfbench/workloads.py``; each query runs once and
writes one JSON line (argv, exit, stdout without its ``done in`` line,
stderr, input paths as ``IN``), so ``diff -r`` of two dumps compares two
checkouts report by report.  ``grids.jsonl`` holds ``classes`` from 0
to top and ``dicontractible`` on the one-hole 12x12 and 20x20 grids and
the hole-free 10x10 and 30x30 grids, which shows how far the class
tables reach.
"""
import argparse, contextlib, io, json, os, sys, tempfile  # noqa: E401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]
import ditop.cli, ditop.fixtures as fx, oracles, workloads  # noqa: E401, E402
from suite import seed_list  # noqa: E402


def fixture_queries(d):
    def equiv(x, y, f, g):
        argv = ["equiv", f"{d}/{x}.json", f"{d}/{y}.json",
                "--f", f"{d}/{f}.json", "--g", f"{d}/{g}.json"]
        return [argv, argv + ["--strong"]]

    inp = workloads.Inputs(d, ditop, oracles, 0)
    for name, build in fx.COMPLEXES.items():
        inp.fixture_files(name)
        inp.identity_cert(name, build())
        m, top = ["--complex", f"{d}/{name}.json"], str(build().n_vertices - 1)
        yield from (["classes", *m, "--from", "0", "--to", top], ["nathom", *m], ["bisim", *m, *m],
                    ["dicontractible", *m], ["ditc", *m], ["ditc", *m, "--upper"])
        yield from equiv(name, name, f"{name}_id", f"{name}_id")
    yield from equiv("matchbox", "topface", "matchbox_f", "matchbox_g")
    yield from equiv("sf", "hs", "sf_hs_f", "sf_hs_g")


def grid_queries(d):
    inp = workloads.Inputs(d, ditop, oracles, 0)
    for name, n, boxes in (("H12", 12, [workloads.hole_box(12)]),
                           ("H20", 20, [workloads.hole_box(20)]), ("F10", 10, []), ("F30", 30, [])):
        m, x = inp.grid(name, (n, n), boxes)
        yield from (["classes", *m, "--from", "0", "--to", str(x.n_vertices - 1)],
                    ["dicontractible", *m])


def dump(path, queries, d):
    with open(path, "w") as fh:
        for argv in queries:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ditop.cli.run(argv)
            lines = out.getvalue().splitlines(True)
            stdout = "".join(ln for ln in lines if not ln.startswith(f"# {argv[0]}: done in "))
            rec = {"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()}
            fh.write(json.dumps(rec, sort_keys=True).replace(d, "IN") + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-3"))
    parser.add_argument("out")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                w = f"{d}/{workload}-{seed}"
                queries = workloads.build(workload, w, ditop, oracles, seed)
                dump(f"{args.out}/{workload}-s{seed}.jsonl", [q.argv for q in queries], w)
        dump(f"{args.out}/fixtures.jsonl", list(fixture_queries(d)), d)
        dump(f"{args.out}/grids.jsonl", list(grid_queries(f"{d}/grids")), f"{d}/grids")


if __name__ == "__main__":
    main()
