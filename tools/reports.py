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
tables reach.  ``stage3.jsonl`` holds ``equiv``, class level and
``--strong``, on certificates whose composites are not identities, so
that the check reaches its stage 3.
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


def stage3_queries(d):
    """Certificates that reach stage 3: topface onto a point and back to
    its vertex 0 (accepted) or 1 (refused at gf-homotopy), refusals at
    fg-homotopy and at diagrams B and C, and the last layer of the
    one-hole 6x6 and 9x9 grids collapsed along each axis."""
    cc, lift = ditop.cubecore, ditop.equivcheck.dmap_from_vertex_map
    models = {"point": cc.PrecubicalSet(1, []), "path2": cc.build_grid_complex((2,)),
              **{name: fx.get_fixture(name) for name in ("seg", "wedge", "topface")}}
    certs = [(x, y, lift(models[x], models[y], f), lift(models[y], models[x], g))
             for x, y, f, g in (("topface", "point", [0] * 4, [0]),  # accepted
                                ("topface", "point", [0] * 4, [1]),  # gf-homotopy
                                ("point", "path2", [1], [0] * 3),  # fg-homotopy
                                ("seg", "wedge", [0, 0], [0, 0, 1]),  # diagram-B
                                ("wedge", "wedge", [0, 1, 0], [0, 1, 2]))]  # diagram-C
    for n in (6, 9):
        x = models[f"H{n}"] = cc.build_grid_complex((n, n), [workloads.hole_box(n)])
        for axis in (0, 1):
            y, f, g = oracles.collapse_last_layer(x, axis)
            models[f"H{n}-{axis}"] = y
            certs.append((f"H{n}", f"H{n}-{axis}", f, g))
    os.makedirs(d)
    for name, m in models.items():
        with open(f"{d}/{name}.json", "w") as fh:
            fh.write(m.to_json())
    for i, (x, y, f, g) in enumerate(certs):
        for name, m in (("f", f), ("g", g)):
            with open(f"{d}/c{i}_{name}.json", "w") as fh:
                fh.write(m.to_json())
        argv = ["equiv", f"{d}/{x}.json", f"{d}/{y}.json", "--f", f"{d}/c{i}_f.json",
                "--g", f"{d}/c{i}_g.json"]
        yield from (argv, argv + ["--strong"])


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
        dump(f"{args.out}/stage3.jsonl", list(stage3_queries(f"{d}/stage3")), f"{d}/stage3")


if __name__ == "__main__":
    main()
