#!/usr/bin/env python3
"""Summarise or compare benchmark result directories.

Usage, from the repository root::

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

``RESULTS_DIR`` holds the result files that ``perfbench/run.py`` writes
(``perfbench/results/<commit>/`` by default).  With one directory, each
end-to-end metric of each workload is printed with its median, quartiles
and spread (interquartile range over median) against the bound in
BENCHMARK.json, with the range of the runs' speed factors (calibrate.py;
1 is the reference machine speed, below 1 a slower machine).  With two,
each (workload, metric) row also gets a verdict:

* improved: the change wins at least 9 of 10 seed-matched pairs (ties
  count for neither), over at least 10 pairs, and the medians differ by
  more than the parent's interquartile range;
* unresolved: the run-to-run spread of either side is wider than the
  bound, and not every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than
  the bound;
* unchanged: otherwise.

Then the per-layer self times of the traced runs are compared, one row
per (workload, layer metric) that is not zero, with the end-to-end
metrics and workloads that ``tracing.LAYERS`` says the layer should move.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def load(directory):
    """{(workload, trace): [result records]} of one directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        meta = rec["meta"]
        runs.setdefault((meta["workload"], meta["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def values_by_seed(records, metric):
    return {r["meta"]["seed"]: r["end_to_end"][metric] for r in records}


def verdict(base, change, better, bound):
    """Verdict and pair count for one (workload, metric)."""
    sign = 1 if better == "lower" else -1
    common = sorted(set(base) & set(change))
    if common:
        pairs = [(base[s], change[s]) for s in common]
    else:
        pairs = list(zip(sorted(base.values()), sorted(change.values())))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    b_vals, c_vals = list(base.values()), list(change.values())
    q1, med_a, q3 = quartiles(b_vals)
    med_b = statistics.median(c_vals)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_b - med_a) < 0 and abs(med_b - med_a) > q3 - q1):
        return "improved", wins, len(pairs)
    if max(spread(b_vals), spread(c_vals)) > bound:
        all_better = all(sign * (c - a) < 0 for c in c_vals for a in b_vals)
        return ("unchanged" if all_better else "unresolved"), wins, len(pairs)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    return ("worse" if worse_by > bound else "unchanged"), wins, len(pairs)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def summary(runs):
    print(f"{'workload':11} {'metric':14} {'unit':6} {'n':>3} "
          f"{'median [q1, q3]':>30} {'spread':>7} {'bound':>6}  steady")
    for w in SPEC["workloads"]:
        recs = runs.get((w["name"], 0), [])
        if not recs:
            continue
        for m in SPEC["end_to_end"]:
            vals = [r["end_to_end"][m["name"]] for r in recs]
            s = spread(vals)
            steady = "yes" if s < m["bound"] / 3 else ("no" if s > m["bound"] else "weak")
            print(f"{w['name']:11} {m['name']:14} {m['unit']:6} {len(vals):3} "
                  f"{fmt(vals):>30} {s:7.3f} {m['bound']:6.2f}  {steady}")
        wrong = sum(r["wrong_answers"] for r in recs)
        failed = sum(r["outcomes"]["failed"] for r in recs)
        print(f"{w['name']:11} {'wrong_answers':14} {'count':6} {len(recs):3} {wrong:>30}"
              f"   (failed {failed})")
        refused = sorted({q["label"] for r in recs for q in r["queries"]
                          if q["outcome"] == "refused"})
        loads = [r["meta"][k][0] for r in recs for k in ("loadavg_start", "loadavg_end")
                 if r["meta"].get(k)]
        speeds = [p["speed_factor"] for r in recs for p in r["pass_walls_s"]]
        print(f"{w['name']:11} refused: {refused or 'none'}; 1-min load average "
              f"{min(loads):.2f}-{max(loads):.2f}; speed factor "
              f"{min(speeds):.3f}-{max(speeds):.3f}")


def compare(base, change):
    print(f"{'workload':11} {'metric':14} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}  verdict")
    for w in SPEC["workloads"]:
        a_recs, b_recs = base.get((w["name"], 0), []), change.get((w["name"], 0), [])
        if not a_recs or not b_recs:
            print(f"{w['name']:11} (no untraced runs on both sides)")
            continue
        for m in SPEC["end_to_end"]:
            a = values_by_seed(a_recs, m["name"])
            b = values_by_seed(b_recs, m["name"])
            v, wins, n = verdict(a, b, m["better"], m["bound"])
            med_a, med_b = statistics.median(a.values()), statistics.median(b.values())
            delta = (med_b - med_a) / med_a if med_a else 0.0
            print(f"{w['name']:11} {m['name']:14} {fmt(list(a.values())):>30} "
                  f"{fmt(list(b.values())):>30} {delta:+8.1%} {wins:>3}/{n:<2}  {v}")
    print()
    roles = {f"{m}.{f.split('.')[-1]}": f"moves {e2e} on {where}"
             for m, f, _, e2e, where in tracing.LAYERS}
    print(f"{'workload':11} {'per-layer metric':48} {'parent':>10} {'change':>10} "
          f"{'delta':>10}  expected role")
    for w in SPEC["workloads"]:
        a_recs, b_recs = base.get((w["name"], 1), []), change.get((w["name"], 1), [])
        if not a_recs or not b_recs:
            continue
        for m in SPEC["per_layer"]:
            name = m["name"]
            if not name.endswith(("_s", ".s")):
                continue
            va = statistics.median(r["per_layer"].get(name, 0.0) for r in a_recs)
            vb = statistics.median(r["per_layer"].get(name, 0.0) for r in b_recs)
            if va or vb:
                role = roles.get(name.rsplit(".", 1)[0], "")
                print(f"{w['name']:11} {name:48} {va:10.4f} {vb:10.4f} {vb - va:+10.4f}  {role}")
        missing = {n for r in b_recs for n in r.get("missing_names", ())}
        if missing:
            print(f"{w['name']:11} missing traced names in change: {sorted(missing)}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    runs = [load(d) for d in argv]
    if len(runs) == 1:
        summary(runs[0])
    else:
        compare(*runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
