#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads, then summarise.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 1-10 [--workloads ladder,bisim] \\
        [--trace 0] [--results DIR]

Each run is its own process (``perfbench/run.py``), one after another.
All result files go to one directory (by default the run's own
``perfbench/results/<commit>/``), which is then summarised by
``perfbench/compare.py``: every end-to-end metric by name and unit, with
its spread against the bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for the result files")
    args = parser.parse_args()

    results = args.results
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", str(args.trace)]
            if results:
                cmd += ["--results", results]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if results is None:
                for line in lines:
                    if line.startswith("# result file "):
                        results = str(Path(line[len("# result file "):]).parent)
            brief = {k: last[k] for k in ("correct", "attempted", "failed")} if last else None
            print(f"{workload} seed {seed}: exit {proc.returncode} {brief}", flush=True)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
    if results:
        subprocess.run([sys.executable, str(HERE / "compare.py"), results], check=False)
    return status


if __name__ == "__main__":
    sys.exit(main())
