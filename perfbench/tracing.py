"""Per-layer spans for the traced run, recorded from outside ditop.

Each function in ``LAYERS`` is replaced, in every ``ditop`` module
namespace that binds it, by a wrapper that records one span per call:
name, start, end and parent span.  Wrapping every binding also catches
``from .x import f`` copies and calls inside a module.  Spans stay in
memory until the run ends.  A layer's self time is the duration of its
spans minus the part covered by their child spans, so the self times of
all spans plus the untraced remainder add up to the traced pass time.

``LAYERS`` also records, per function, which end-to-end metric a change
to it should move and on which workload it runs.
"""
from __future__ import annotations

import gzip
import json
import statistics
from array import array
from time import perf_counter

CLI_COMMANDS = ("classes", "nathom", "ditc", "bisim", "equiv", "dicontractible")

# (module, function, extra stats, end-to-end metrics it should move, workloads)
LAYERS = [
    ("pvlang", "parse_pv", (), "query_p50_ms", "all (small queries)"),
    ("pvlang", "compile_pv", (), "query_p50_ms", "all (small queries)"),
    ("cubecore", "PrecubicalSet.from_json", (), "query_p50_ms", "all"),
    ("cubecore", "build_grid_complex", (), "query_p50_ms", "ladder, dicontract (PV inputs)"),
    ("cubecore", "gamma", ("pairs",), "wall_s, query_p90_ms", "ladder, dicontract"),
    ("cubecore", "reachable", ("calls",), "wall_s, query_p90_ms", "equiv"),
    ("cubecore", "enumerate_dpaths", ("calls", "paths", "cap_failures"),
     "wall_s, query_p90_ms, peak_rss_mb, decided_frac", "ladder, dicontract"),
    ("traceclass", "trace_classes", ("calls", "hit_ratio", "classes"),
     "wall_s, query_p90_ms, peak_rss_mb", "ladder, dicontract"),
    ("traceclass", "extend_class", ("calls",), "wall_s, query_p90_ms", "ladder"),
    ("traceclass", "class_of", ("calls",), "wall_s, query_p50_ms", "equiv (lookups)"),
    ("natsys", "build_natural_system", ("objects", "arrows"),
     "wall_s, query_p50_ms, query_p90_ms", "ladder, bisim"),
    ("natsys", "bisimilar", ("calls",), "wall_s, query_p50_ms, query_p90_ms", "bisim only"),
    ("zhom", "smith_normal_form", ("calls", "entries"), "wall_s, query_p90_ms", "dicontract only"),
    ("zhom", "homology_ranks", (), "wall_s, query_p90_ms", "dicontract only"),
    ("zhom", "section_exists", ("calls",), "wall_s, query_p90_ms", "dicontract only"),
    ("ditc", "ditc_exact", ("calls", "budget_failures"),
     "wall_s, query_p90_ms, decided_frac", "ladder only"),
    ("ditc", "ditc_upper", ("calls",), "wall_s, query_p90_ms", "ladder only"),
    # private, but its call count shows the arrow table built twice per query
    ("ditc", "_arrow_table", ("calls",), "wall_s", "ladder only"),
    ("equivcheck", "check_dihomotopy_equivalence", (), "wall_s, query_p50_ms", "equiv only"),
    ("equivcheck", "check_strong", (), "wall_s, query_p50_ms", "equiv only"),
    ("equivcheck", "induced_class_map", ("calls",), "wall_s, query_p50_ms", "equiv only"),
    ("equivcheck", "map_path", ("calls",), "wall_s, query_p50_ms", "equiv only"),
]

RUN_METRICS = [
    # name, unit, meaning
    ("cli.self_s", "s", "time inside cli.run outside every traced function"),
    ("trace.untraced_s", "s", "traced pass time outside every span"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s"),
    ("trace.missing_names", "count", "LAYERS functions not found in ditop"),
]


def _base(module, function):
    return f"{module}.{function.split('.')[-1]}"


def layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"cli.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    for module, function, stats, _, _ in LAYERS:
        base = _base(module, function)
        out.append((f"{base}.self_s", "s"))
        for stat in stats:
            out.append((f"{base}.{stat}", "ratio" if stat == "hit_ratio" else "count"))
    out.extend((name, unit) for name, unit, _ in RUN_METRICS)
    return out


class Tracer:
    """Wraps ditop functions and keeps their spans in parallel arrays."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = []
        self.counts = {}      # (span name, stat) -> count from results
        self.seen = set()     # work keys already counted in this query
        self.query = 0
        self.missing = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _first(self, key):
        """True the first time a work key is seen in the current query."""
        key = (self.query,) + key
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def install(self, modules, errors):
        """Wrap every LAYERS function in every module of ``modules`` that
        binds it; record the names that no longer exist."""
        by_name = {m.__name__: m for m in modules}
        for module, function, stats, _, _ in LAYERS:
            base = _base(module, function)
            home = by_name.get(f"ditop.{module}")
            owner, attr = home, function
            if "." in function:
                cls_name, attr = function.split(".")
                owner = getattr(home, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module}.{function}")
                continue
            if owner is not home:  # a classmethod: rebind on the class
                setattr(owner, attr, classmethod(
                    self.wrap(base, orig.__func__, *self._hooks(base, errors))))
                continue
            wrapped = self.wrap(base, orig, *self._hooks(base, errors))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _hooks(self, base, errors):
        count, first = self._count, self._first
        if base == "cubecore.gamma":
            def on_result(res, args):
                if first((base, id(args[0]))):
                    count((base, "pairs"), len(res))
            return on_result, None
        if base == "cubecore.enumerate_dpaths":
            def on_result(res, args):
                count((base, "paths"), len(res))

            def on_error(exc):
                if isinstance(exc, errors.PathCapExceeded):
                    count((base, "cap_failures"))
            return on_result, on_error
        if base == "traceclass.trace_classes":
            def on_result(res, args):
                if first((base, id(args[0])) + tuple(args[1:3])):
                    count((base, "keys"))
                    count((base, "classes"), res.count)
            return on_result, None
        if base == "natsys.build_natural_system":
            def on_result(res, args):
                count((base, "objects"), len(res.objects))
                count((base, "arrows"), sum(len(a) for a in res.arrows))
            return on_result, None
        if base == "zhom.smith_normal_form":
            def on_result(res, args):
                m = args[0]
                count((base, "entries"), len(m) * (len(m[0]) if m else 0))
            return on_result, None
        if base == "ditc.ditc_exact":
            def on_error(exc):
                if isinstance(exc, errors.BudgetExceeded):
                    count((base, "budget_failures"))
            return None, on_error
        return None, None

    def mark(self):
        """Position in the span arrays and counters, to cut one pass out."""
        return len(self.start), dict(self.counts)

    def _self_times(self, lo, hi):
        """Duration and self time of each span in [lo, hi)."""
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        own = dur[:]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= dur[i - lo]
        return dur, own

    def pass_metrics(self, mark, wall):
        """Per-layer metrics of the spans recorded since ``mark``."""
        lo, counts_before = mark
        hi = len(self.start)
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_time = [0.0] * n
        dur, own = self._self_times(lo, hi)
        for i in range(lo, hi):
            nid = self.name[i]
            calls[nid] += 1
            total[nid] += dur[i - lo]
            self_time[nid] += own[i - lo]
        by = {name: i for i, name in enumerate(self.names)}

        def stat(base, key):
            return self.counts.get((base, key), 0) - counts_before.get((base, key), 0)

        out = {}
        for cmd in CLI_COMMANDS:
            i = by.get(f"cli.{cmd}")
            out[f"cli.{cmd}.s"] = total[i] if i is not None else 0.0
        for module, function, stats, _, _ in LAYERS:
            base = _base(module, function)
            i = by.get(base)
            out[f"{base}.self_s"] = self_time[i] if i is not None else 0.0
            for s in stats:
                if s == "calls":
                    out[f"{base}.calls"] = calls[i] if i is not None else 0
                elif s == "hit_ratio":
                    c = calls[i] if i is not None else 0
                    out[f"{base}.hit_ratio"] = 1 - stat(base, "keys") / c if c else 0.0
                else:
                    out[f"{base}.{s}"] = stat(base, s)
        cli_ids = [by[f"cli.{cmd}"] for cmd in CLI_COMMANDS if f"cli.{cmd}" in by]
        out["cli.self_s"] = sum(self_time[i] for i in cli_ids)
        roots = sum(dur[i - lo] for i in range(lo, hi) if self.parent[i] < 0)
        out["trace.untraced_s"] = wall - roots
        out["trace.missing_names"] = len(self.missing)
        return out

    def dump(self, path):
        """Write the spans out, aggregated per query: each root span (one
        CLI query) heads a tree of call paths (name stacks) with their
        calls, total and self seconds."""
        dur, own = self._self_times(0, len(self.start))
        row_of = [0] * len(self.start)
        rows = {}
        tree = []
        for i in range(len(self.start)):
            p = self.parent[i]
            key = (row_of[p], self.name[i]) if p >= 0 else ("root", i)
            r = rows.get(key)
            if r is None:
                r = rows[key] = len(tree)
                tree.append([row_of[p] if p >= 0 else -1, self.names[self.name[i]],
                             0, 0.0, 0.0, self.start[i]])
            tree[r][2] += 1
            tree[r][3] += dur[i]
            tree[r][4] += own[i]
            row_of[i] = r
        doc = {
            "missing": self.missing,
            "fields": ["parent_row", "name", "calls", "total_s", "self_s", "first_start"],
            "tree": tree,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
