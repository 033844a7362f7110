#!/usr/bin/env python3
"""The ditop benchmark: one workload of CLI queries, timed and checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

One process runs one workload as a single closed-loop client: each query
is one in-process call of ``ditop.cli.run(argv)``, issued after the
previous one returned, with its stdout captured and its JSON report
checked against the expected answer.  Every query reads its model files
anew, so ditop's per-model caches are cold, as for a CLI user.

Set-up (importing ditop, writing the seeded inputs, computing the oracle
answers) runs seven times and ``setup_s`` is the median.  A run then
makes whole passes over the query list, starting another pass only if
the previous pass would still fit in ``--seconds``; at least one.  In a
pass each query runs ``Query.repeat`` times (three, or once for the
large ones) and its latency is its fastest run; ``wall_s`` is the sum of
the latencies of one pass.  Timings are reported in reference seconds:
raw times scaled by the machine speed measured in the same run (see
calibrate.py); the raw ones are in the result file.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` makes one untraced pass, then traced passes with every
function of ``tracing.LAYERS`` wrapped, each query running once, and
reports the per-layer metrics.  Either way the answers are checked, and
a query whose repeated runs give different reports has failed.

Every run writes a result file with its metadata (commit, seed, Python,
CPU count, load averages) and per-query outcomes under
``perfbench/results/<commit>/`` (``--results`` to change); compare two
such directories with ``perfbench/compare.py``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A query counts as decided when ``run`` returns 0 with a report; a
documented refusal (exit 2 on a query listed as refused at the seed) is
undecided but not failed; any other exit, or an escaped exception, is
failed.  Exit status is 1 when a decided answer is wrong, 2 when the
checkout has no ditop sources.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
LOCAL = 10
DITOP_MODULES = ("cli", "cubecore", "ditc", "equivcheck", "errors", "fixtures",
                 "natsys", "pvlang", "traceclass", "zhom")


def fresh_import():
    """Import ditop and the test oracles anew from this checkout."""
    for name in list(sys.modules):
        if name == "ditop" or name.startswith("ditop.") or name == "oracles":
            del sys.modules[name]
    ditop = importlib.import_module("ditop")
    for name in DITOP_MODULES:
        importlib.import_module(f"ditop.{name}")
    src = ROOT / "src"
    if Path(ditop.__file__).resolve().parent.parent != src:
        raise ImportError(f"ditop imported from {ditop.__file__}, not {src}")
    return ditop, importlib.import_module("oracles")


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/ditop/*.py, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ditop").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def run_pass(queries, runners, repeat):
    """Run every query once, or ``query.repeat`` times when ``repeat``.

    Returns the pass time (the sum of the query latencies), the busy time
    (every execution), the calibration kernel's times (one before each
    query), and per query (latency, exit code, stdout, escaped exception,
    whether repeats disagreed).  A query's latency is its fastest
    execution.  The garbage of earlier queries is collected before each
    execution, untimed, so that every query starts from the same collector
    state whatever the query order, as a fresh CLI process would.
    """
    out = []
    busy = 0.0
    kernel = []
    for q in queries:
        kernel.append(calibrate.timed_kernel())
        runs = []
        for _ in range(q.repeat if repeat else 1):
            stdout, stderr = io.StringIO(), io.StringIO()
            escaped = None
            gc.collect()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = runners[q.command](q.argv)
            except Exception as exc:  # an escaped exception is a failed query
                code, escaped = None, f"{type(exc).__name__}: {exc}"
            runs.append((time.perf_counter() - t0, code, stdout.getvalue(), escaped))
        busy += sum(r[0] for r in runs)
        first = runs[0]
        differs = any((r[1], _report(r[2])) != (first[1], _report(first[2])) for r in runs)
        out.append((min(r[0] for r in runs),) + first[1:] + (differs,))
    return sum(r[0] for r in out), busy, kernel, out


def _report(stdout):
    """The JSON report line of a CLI run, or None."""
    return next((line for line in stdout.splitlines() if line.startswith("{")), None)


def judge(query, code, stdout, escaped, differs):
    """Outcome of one query: decided, wrong, refused or failed, and a note."""
    if escaped is not None:
        return "failed", escaped
    if differs:
        return "failed", "repeated runs gave different reports"
    if code == 2 and query.refusal:
        return "refused", query.refusal
    if code != 0:
        return "failed", f"exit {code}"
    report = _report(stdout)
    if report is None:
        return "failed", "no JSON report"
    mismatch = query.check(json.loads(report).get("result", {}))
    if mismatch:
        return "wrong", mismatch
    return "decided", None


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup(args, workdir):
    """Import ditop and write the workload's inputs, SETUP_REPS times;
    returns the modules, the queries, each set-up time and the
    calibration kernel's times between set-ups."""
    times, kernel = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ditop, oracles = fresh_import()
        queries = workloads.build(args.workload, str(workdir), ditop, oracles, args.seed)
        times.append(time.perf_counter() - t0)
        kernel.extend(calibrate.timed_kernel() for _ in range(5))
    return ditop, queries, times, kernel


def measure(args, ditop, queries):
    """Whole passes until the next one would overrun ``--seconds`` (at
    least one; with tracing, one untraced pass and then traced ones, each
    running every query once).  Returns the passes as (traced, wall,
    per-query results, peak RSS MB, speed factor, kernel times), the
    per-layer metrics of each traced pass, and the tracer."""
    cli = ditop.cli
    runners = {q.command: cli.run for q in queries}
    # set-up objects live on through the passes; keep them out of the
    # collections made during queries
    gc.collect()
    gc.freeze()
    passes, layer_passes, tracer = [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and passes and tracer is None:
            tracer = tracing.Tracer()
            tracer.install([m for name, m in sys.modules.items()
                            if name == "ditop" or name.startswith("ditop.")], ditop.errors)
            runners = {cmd: _per_query(tracer, tracer.wrap(f"cli.{cmd}", cli.run))
                       for cmd in runners}
        mark = tracer.mark() if tracer else None
        wall, busy, kernel, results = run_pass(queries, runners, repeat=not args.trace)
        if tracer:
            layer_passes.append(tracer.pass_metrics(mark, busy))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append((tracer is not None, wall, results, rss_mb, speed(kernel), kernel))
        if args.trace and not layer_passes:
            continue
        if deadline - time.perf_counter() < busy:
            return passes, layer_passes, tracer


def speed(kernel_times):
    """Scale from raw to reference seconds (see calibrate.py).  A query
    latency is scaled by the kernel times next to it (LOCAL queries either
    side), since the machine's speed changes within a pass; a pass time is
    the sum of its scaled latencies."""
    return calibrate.REFERENCE_S / statistics.median(kernel_times)


def _per_query(tracer, fn):
    """Advance the tracer's query index before each query."""
    def run(argv):
        tracer.query += 1
        return fn(argv)
    return run


def summarise(queries, passes, layer_passes, setup_times, setup_kernel):
    """Outcome counts, per-query records, end-to-end metrics (timings in
    reference seconds, and raw), per-layer metrics (raw)."""
    per_query = []
    outcomes = {"decided": 0, "wrong": 0, "refused": 0, "failed": 0}
    for traced, _, results, _, _, _ in passes:
        for q, (secs, code, stdout, escaped, differs) in zip(queries, results):
            outcome, note = judge(q, code, stdout, escaped, differs)
            outcomes[outcome] += 1
            per_query.append({"label": q.label, "command": q.command, "traced": traced,
                              "seconds": secs, "exit": code, "outcome": outcome,
                              "note": note})
    untraced = [p for p in passes if not p[0]]

    def timings(scale_setup, scale):
        per_pass = [[r[0] * scale(p, i) for i, r in enumerate(p[2])] for p in untraced]
        samples = [t for latencies in per_pass for t in latencies]
        return {
            "setup_s": statistics.median(setup_times) * scale_setup,
            "wall_s": statistics.median(sum(latencies) for latencies in per_pass),
            "query_p50_ms": statistics.median(samples) * 1000,
            "query_p90_ms": percentile(samples, 90) * 1000,
        }, len(samples)

    e2e, n_samples = timings(speed(setup_kernel),
                             lambda p, i: speed(p[5][max(0, i - LOCAL):i + LOCAL + 1]))
    raw, _ = timings(1.0, lambda p, i: 1.0)
    e2e["decided_frac"] = (outcomes["decided"] + outcomes["wrong"]) / sum(outcomes.values())
    e2e["peak_rss_mb"] = statistics.median(p[3] for p in untraced)
    layers = None
    if layer_passes:
        layers = tracing.median_metrics(layer_passes)
        layers["trace.overhead_s"] = (statistics.median(p[1] for p in passes if p[0])
                                      - raw["wall_s"])
    return outcomes, per_query, n_samples, e2e, raw, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for the result file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ditop" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no ditop sources (src/ditop, tests/oracles.py) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "started_unix": time.time(),
    }
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        ditop, queries, setup_times, setup_kernel = setup(args, workdir)
        passes, layer_passes, tracer = measure(args, ditop, queries)
        meta["loadavg_end"] = loadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    outcomes, per_query, n_samples, e2e, raw, layers = summarise(
        queries, passes, layer_passes, setup_times, setup_kernel)

    units = dict(tracing.layer_metrics())
    units.update({"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
                  "query_p90_ms": "ms", "decided_frac": "ratio", "peak_rss_mb": "MB"})
    missing = tracer.missing if tracer else []
    record = {
        "meta": meta,
        "setup_times_s": setup_times,
        "setup_speed_factor": speed(setup_kernel),
        "pass_walls_s": [{"traced": p[0], "wall_s": p[1], "speed_factor": p[4], "kernel_s": p[5]}
                         for p in passes],
        "query_samples": n_samples,
        "outcomes": outcomes,
        "wrong_answers": outcomes["wrong"],
        "end_to_end": e2e,
        "raw_timings": raw,
        "per_layer": layers,
        "missing_names": missing,
        "queries": per_query,
    }
    results_dir = Path(args.results) if args.results else \
        HERE / "results" / (meta["git_commit"] or "src-" + meta["source_sha256"])[:12]
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results_dir / f"{stem}.spans.json.gz")

    for q in per_query:
        if q["outcome"] in ("wrong", "failed"):
            print(f"# {q['outcome']}: {q['label']}: {q['note']}")
    for name, value in e2e.items():
        shown_raw = f" (raw {raw[name]:.6g})" if name in raw else ""
        print(f"# {name} {value:.6g} {units[name]}{shown_raw}")
    print(f"# wrong_answers {outcomes['wrong']} count")
    print(f"# query samples {n_samples}, passes {len(passes)}, missing names {missing}")
    print(f"# result file {results_dir / (stem + '.json')}")
    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": outcomes["wrong"] == 0,
        "attempted": sum(outcomes.values()),
        "failed": outcomes["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 1 if outcomes["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
