"""Seeded inputs, queries and expected answers for the benchmark workloads.

Each workload is a list of CLI queries (argv lists for ``ditop.cli.run``)
over model and certificate files written into a work directory.  The seed
picks random reachable pairs, random vertex relabellings, random small
grids and the query order; which models and commands appear, and how
many, is fixed, so the cost of a pass does not depend on the seed.

Every expected answer comes from ``tests/oracles.py`` (class counts by
flip-graph search, reachable pairs by boolean closure) or from how the
model is built, never from a ditop analysis:

* a one-hole grid has two classes from 0 to top, and diTC 2: pairs that
  straddle the hole form one part with a consistent "below" choice, all
  other pairs have one class;
* a two-hole grid with off-diagonal holes has three classes from 0 to top;
* a grid is dicontractible iff it has no hole; its Betti numbers are
  (1, number of holes) without torsion;
* a model is bisimilar to itself and to a relabelled copy; an object
  with more classes than any object of the other system has no partner,
  so its side is reported;
* the identity and relabelling certificates are equivalences; the
  matchbox/topface and sf/hs certificates collapse two classes into one.

Queries that ditop refuses at the seed commit (exit 2) are listed with
``refusal``; they count as undecided, not as failed, and their answer is
checked if a later version decides them.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

# 0 -> top classes of cap3, by oracles.flip_class_count over all its
# dipaths: seconds of work, too slow for set-up, which runs seven times.
# Recompute with ``python3 perfbench/offline.py``.
CAP3_TOP_CLASSES = 17

PV2 = {
    "pv1": "Pa Va | Pa Va",
    "sf": "Pa Pb Vb Va | Pb Pa Va Vb",
    "ab": "Pa Va Pb Vb | Pb Vb Pa Va",
    "nest": "Pa Pb Vb Va | Pa Pb Vb Va",
}
PV3 = {
    "m3": "Pa Va | Pa Va | Pa Va",
    "sf3": "Pa Pb Vb Va | Pb Pa Va Vb | Pa Va",
    "cap3": "Pa Va Pb Vb | Pb Vb Pa Va | Pa Pb Vb Va",
}

# random classes pairs are drawn among pairs with this many dipaths, from
# sources with at most FORWARD_PATHS dipaths, so that a pass and its
# set-up cost the same whatever the seed
PAIR_PATHS = (2, 30)
FORWARD_PATHS = 5000


@dataclass
class Query:
    """One CLI call and the check of its JSON ``result``."""

    command: str
    argv: list
    check: Callable[[dict], Optional[str]]  # mismatch message or None
    label: str
    refusal: Optional[str] = None  # documented exit-2 refusal at the seed
    repeat: int = 3  # timed executions; the fastest is the query's latency


def hole_box(n):
    """Central hole of an n x n grid: 3 cells wide (n - 2 when n < 5)."""
    k = min(3, n - 2)
    lo = (n - k) // 2
    return ((lo, lo + k), (lo, lo + k))


def two_hole_boxes(n):
    """Two 2-cell holes off the diagonal: three classes from 0 to top."""
    return [((1, 3), (n - 3, n - 1)), ((n - 3, n - 1), (1, 3))]


def expect(**want):
    """Check that ``result[key] == value`` for every given key."""
    def check(result):
        for key, value in want.items():
            if result.get(key) != value:
                return f"{key} = {result.get(key)!r}, expected {value!r}"
        return None
    return check


def expect_homology(verdict, holes=None):
    def check(result):
        if result.get("dicontractible") != verdict:
            return f"dicontractible = {result.get('dicontractible')!r}, expected {verdict!r}"
        if holes is not None:
            want = {"betti0": 1, "betti1": holes, "torsion": []}
            if result.get("homology") != want:
                return f"homology = {result.get('homology')!r}, expected {want!r}"
        return None
    return check


def expect_objects(n_objects, counts):
    """nathom: object count from the closure oracle, class counts at the
    pairs whose count is known."""
    def check(result):
        if result.get("n_objects") != n_objects:
            return f"n_objects = {result.get('n_objects')!r}, expected {n_objects}"
        got = {tuple(o["pair"]): o["classes"] for o in result.get("objects", ())}
        for pair, count in counts.items():
            if got.get(pair) != count:
                return f"classes at {pair} = {got.get(pair)!r}, expected {count}"
        return None
    return check


def expect_bisim(verdict, side=None, vertex=None):
    def check(result):
        if result.get("bisimilar") != verdict:
            return f"bisimilar = {result.get('bisimilar')!r}, expected {verdict!r}"
        if side is not None:
            ce = result.get("counterexample", {})
            if ce.get("side") != side:
                return f"counterexample side {ce.get('side')!r}, expected {side!r}"
            if vertex is not None and vertex not in ce.get("object", ()):
                return f"counterexample object {ce.get('object')!r} lacks vertex {vertex}"
        return None
    return check


def expect_equiv(verdict, stage=None, location=None):
    def check(result):
        if result.get("verdict") != verdict:
            return f"verdict = {result.get('verdict')!r}, expected {verdict!r}"
        ce = result.get("counterexample", {})
        if stage is not None and ce.get("stage") != stage:
            return f"stage = {ce.get('stage')!r}, expected {stage!r}"
        if location is not None and ce.get("location") != location:
            return f"location = {ce.get('location')!r}, expected {location!r}"
        return None
    return check


class Inputs:
    """Writes models and certificates into ``workdir`` and answers
    questions about them with the oracles."""

    def __init__(self, workdir, ditop, oracles, seed):
        self.dir = workdir
        self.cubecore = ditop.cubecore
        self.pvlang = ditop.pvlang
        self.equivcheck = ditop.equivcheck
        self.fixtures = ditop.fixtures
        self.oracles = oracles
        self.rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)

    def _write(self, filename, text):
        path = os.path.join(self.dir, filename)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def grid(self, name, dims, boxes=()):
        x = self.cubecore.build_grid_complex(dims, boxes)
        return ["--complex", self._write(f"{name}.json", x.to_json())], x

    def pv(self, name, source):
        x = self.cubecore.build_grid_complex(
            *self.pvlang.compile_pv(self.pvlang.parse_pv(source)))
        return ["--pv", self._write(f"{name}.pv", source + "\n")], x

    def relabelled(self, name, x):
        """Random relabelled copy of x and the certificate x <-> copy."""
        perm = list(range(x.n_vertices))
        self.rng.shuffle(perm)
        y, f, g = self.oracles.relabel_complex(x, perm)
        return (self._write(f"{name}.json", y.to_json()),
                self._write(f"{name}_f.json", f.to_json()),
                self._write(f"{name}_g.json", g.to_json()), perm)

    def identity_cert(self, name, x):
        return self._write(f"{name}_id.json",
                           self.equivcheck.identity_dmap(x).to_json())

    def fixture_files(self, name):
        return {os.path.basename(p): p
                for p in self.fixtures.write_fixture(name, self.dir)}

    def random_pairs(self, x, k):
        """Up to k distinct pairs other than 0 -> top whose dipath count
        lies in PAIR_PATHS, each with its oracle class count.  The source
        has at most FORWARD_PATHS dipaths to anywhere, which bounds the
        oracle's search."""
        top = x.n_vertices - 1
        lo, hi = PAIR_PATHS
        chosen = {}
        for _ in range(100 * k):
            a = self.rng.randrange(top + 1)
            counts = _paths_from(x, a)
            if sum(counts) > FORWARD_PATHS:
                continue
            ends = [b for b, c in enumerate(counts)
                    if lo <= c <= hi and (a, b) not in chosen and (a, b) != (0, top)]
            if ends:
                b = self.rng.choice(ends)
                chosen[(a, b)] = self.oracles.flip_class_count(x, a, b)
                if len(chosen) == k:
                    break
        return chosen


def _paths_from(x, a):
    """Number of dipaths from a to every vertex.  Grid vertex ids are
    lexicographic in their coordinates, so every edge goes up in id."""
    counts = [0] * x.n_vertices
    counts[a] = 1
    for v in range(a, x.n_vertices):
        if counts[v]:
            for e in x.out_edges(v):
                s, t = x.edges[e]
                if t <= s:
                    raise ValueError("edge ids not topologically ordered")
                counts[t] += counts[v]
    return counts


def _classes(model, name, a, b, check, refusal=None, repeat=3):
    return Query("classes", ["classes", *model, "--from", str(a), "--to", str(b)],
                 check, f"classes {name} {a}->{b}", refusal, repeat)


# A latency percentile is steady only where many queries of one cost sit
# around its rank.  So besides its large queries, every workload has
# MEDIUM queries of one cost that hold the 90th percentile, SMALL queries
# of one cost that hold the median, and a few dozen OTHER small queries
# that vary with the seed.  Queries that take over about 0.2 s run once
# per pass (repeat=1); the others run three times and count their
# fastest run, which filters the sub-second slowdowns of a shared machine
# out of the latency percentiles.
MEDIUM = 26
SMALL = 150
OTHER = 50


def ladder(inp):
    """classes, nathom and ditc on one-hole grids 4..9 and PV programs."""
    qs = []
    models = {}
    for n in range(4, 10):
        models[f"H{n}"] = inp.grid(f"H{n}", (n, n), [hole_box(n)]) + (2,)
    for name, src in {**PV2, **PV3}.items():
        model, x = inp.pv(name, src)
        if name == "cap3":
            count = CAP3_TOP_CLASSES
        elif name == "sf3":
            count = None  # 72,072 dipaths: the oracle is too slow for set-up
        else:
            count = inp.oracles.flip_class_count(x, 0, x.n_vertices - 1)
        models[name] = (model, x, count)
    for name, (model, x, top_count) in models.items():
        top = x.n_vertices - 1
        known = inp.random_pairs(x, SMALL if name == "H6" else 5)
        for (a, b), count in known.items():
            qs.append(_classes(model, name, a, b, expect(count=count)))
        if name == "cap3":
            qs.append(_classes(model, name, 0, top, expect(count=top_count),
                               refusal="PathCapExceeded: >100,000 dipaths, few classes",
                               repeat=1))
        elif top_count is not None:
            qs.append(_classes(model, name, 0, top, expect(count=top_count),
                               repeat=1 if name == "H9" else 3))
            known[(0, top)] = top_count
        if name in ("H4", "H5", "H6", "H7", "H8", "m3") or name in PV2:
            n_objects = len(inp.oracles.closure_pairs(x))
            qs.append(Query("nathom", ["nathom", *model], expect_objects(n_objects, known),
                            f"nathom {name}",
                            repeat=1 if name in ("H7", "H8", "m3") else 3))
        if name in ("H4", "H5", "H6", "H7", "pv1"):
            qs.append(Query("ditc", ["ditc", *model], expect(n=2), f"ditc {name}",
                            repeat=1 if name in ("H6", "H7") else 3))
        if name == "H9":
            qs.append(Query("ditc", ["ditc", *model], expect(n=2), f"ditc {name}",
                            refusal="BudgetExceeded: 2,696 pairs > GAMMA_CAP", repeat=1))
    # medium: 0 -> top on relabelled copies of H8; small: random pairs on H6
    _, h8, _ = models["H8"]
    for i in range(MEDIUM):
        path, _, _, perm = inp.relabelled(f"H8r{i}", h8)
        qs.append(_classes(["--complex", path], f"H8r{i}", perm[0], perm[h8.n_vertices - 1],
                           expect(count=2)))
    return qs


def bisim(inp):
    """bisim on bisimilar and distinguishable pairs of 2D models."""
    qs = []

    def add(label, a, b, check):
        qs.append(Query("bisim", ["bisim", *a, *b], check, f"bisim {label}"))

    for n in (4, 5, 6):
        model, _ = inp.grid(f"H{n}", (n, n), [hole_box(n)])
        add(f"H{n} self", model, model, expect_bisim(True))
    h6, _ = inp.grid("H6", (6, 6), [hole_box(6)])
    (lo, hi), _ = hole_box(6)
    moved, _ = inp.grid("H6moved", (6, 6), [((lo + 1, hi + 1), (lo, hi))])
    add("H6 vs H6 hole moved", h6, moved, expect_bisim(True))
    for name, src in PV2.items():
        model, _ = inp.pv(name, src)
        add(f"{name} self", model, model, expect_bisim(True))
    files = inp.fixture_files("sf")
    deadlock = inp.fixtures.sf().coords.index((2, 2))
    add("sf vs hs", ["--complex", files["sf.json"]], ["--complex", files["hs.json"]],
        expect_bisim(False, "left", deadlock))
    free6, _ = inp.grid("F6", (6, 6))
    add("H6 vs F6", h6, free6, expect_bisim(False, "left"))
    two6, _ = inp.grid("T6", (6, 6), two_hole_boxes(6))
    add("T6 vs H6", two6, h6, expect_bisim(False, "left"))
    for q in qs:
        q.repeat = 1

    # medium: H3 against a relabelled copy, or against the hole-free 3x3
    h3, x3 = inp.grid("H3", (3, 3), [hole_box(3)])
    free3, _ = inp.grid("F3", (3, 3))
    for i in range(MEDIUM):
        if i % 4 == 0:
            add(f"H3 vs F3 #{i}", h3, free3, expect_bisim(False, "left"))
        else:
            path, _, _, _ = inp.relabelled(f"H3r{i}", x3)
            add(f"H3 relabelled #{i}", h3, ["--complex", path], expect_bisim(True))
    # small and other: the unit square against a relabelled copy
    unit, x1 = inp.grid("F1", (1, 1))
    for i in range(SMALL + OTHER):
        path, _, _, _ = inp.relabelled(f"F1r{i}", x1)
        add(f"F1 relabelled #{i}", unit, ["--complex", path], expect_bisim(True))
    return qs


def equiv(inp):
    """equiv (class level and --strong) on identity, relabelling and
    refuted fixture certificates."""
    qs = []

    def add(label, x_path, y_path, f_path, g_path, check, strong):
        argv = ["equiv", x_path, y_path, "--f", f_path, "--g", g_path]
        if strong:
            argv.append("--strong")
            label += " strong"
        qs.append(Query("equiv", argv, check, f"equiv {label}"))

    def both(label, x_path, y_path, f_path, g_path, verdict, **refuted):
        add(label, x_path, y_path, f_path, g_path, expect_equiv(verdict, **refuted), False)
        add(label, x_path, y_path, f_path, g_path, expect_equiv(verdict), True)

    grids = {}
    for n in range(3, 8):
        (_, path), x = grids[n] = inp.grid(f"H{n}", (n, n), [hole_box(n)])
        cert = inp.identity_cert(f"H{n}", x)
        both(f"H{n} identity", path, path, cert, cert, True)
        if n <= 6:
            y, f, g, _ = inp.relabelled(f"H{n}r", x)
            both(f"H{n} relabelled", path, y, f, g, True)
        if n >= 5:
            for q in qs[-4:]:
                q.repeat = 1

    fx = {**inp.fixture_files("matchbox"), **inp.fixture_files("sf")}
    refuted = {
        "matchbox": ("matchbox.json", "topface.json", "matchbox_f.json",
                     "matchbox_g.json", inp.fixtures.matchbox()),
        "sf": ("sf.json", "hs.json", "sf_hs_f.json", "sf_hs_g.json", inp.fixtures.sf()),
    }
    both("matchbox->topface", *(fx[k] for k in refuted["matchbox"][:4]), False,
         stage="f-class-bijection", location=[0, 6])
    both("sf->hs", *(fx[k] for k in refuted["sf"][:4]), False,
         stage="f-class-bijection")

    # medium: H3 against a relabelled copy, class level
    (_, h3), x3 = grids[3]
    for i in range(MEDIUM):
        y, f, g, _ = inp.relabelled(f"H3r{i}", x3)
        add(f"H3 relabelled #{i}", h3, y, f, g, expect_equiv(True), False)
    # small: the unit square against a relabelled copy, class level;
    # other: relabelled sources of the refuted certificates (still refuted)
    (_, unit), x1 = inp.grid("F1", (1, 1))
    for i in range(SMALL):
        y, f, g, _ = inp.relabelled(f"F1r{i}", x1)
        add(f"F1 relabelled #{i}", unit, y, f, g, expect_equiv(True), False)
    maps = {}
    for name, (_, _, fs, gs, _) in refuted.items():
        with open(fx[fs]) as f_file, open(fx[gs]) as g_file:
            maps[name] = (inp.equivcheck.DMapData.from_json(f_file.read()),
                          inp.equivcheck.DMapData.from_json(g_file.read()))
    for i in range(OTHER):
        name = ("matchbox", "sf")[i % 2]
        ys, x = refuted[name][1], refuted[name][4]
        f0, g0 = maps[name]
        xr, _, _, perm = inp.relabelled(f"{name}{i}r", x)
        inv = [0] * len(perm)
        for v, w in enumerate(perm):
            inv[w] = v
        f1 = inp.equivcheck.DMapData(
            tuple(f0.vertex_map[inv[v]] for v in range(len(perm))), f0.edge_map, f0.square_map)
        g1 = inp.equivcheck.DMapData(
            tuple(perm[v] for v in g0.vertex_map), g0.edge_map, g0.square_map)
        f_path = inp._write(f"{name}{i}r_f1.json", f1.to_json())
        g_path = inp._write(f"{name}{i}r_g1.json", g1.to_json())
        strong = i % 4 >= 2
        add(f"{name} relabelled #{i}", xr, fx[ys], f_path, g_path,
            expect_equiv(False, stage=None if strong else "f-class-bijection"), strong)
    return qs


def dicontract(inp):
    """dicontractible on large holed grids (homology), hole-free grids
    (every pair enumerated) and a 3-process program."""
    qs = []

    def add(label, model, check, refusal=None):
        qs.append(Query("dicontractible", ["dicontractible", *model], check,
                        f"dicontractible {label}", refusal))

    for n in (10, 14):
        model, _ = inp.grid(f"H{n}", (n, n), [hole_box(n)])
        refusal = ("PathCapExceeded: >100,000 dipaths in the section check"
                   if n == 14 else None)
        add(f"H{n}", model, expect_homology(False, 1), refusal)
    model, _ = inp.grid("T12", (12, 12), two_hole_boxes(12))
    add("T12", model, expect_homology(False, 2))
    for n in (5, 6, 7):
        model, _ = inp.grid(f"F{n}", (n, n))
        add(f"F{n}", model, expect_homology(True, 0))
    model, _ = inp.pv("m3", PV3["m3"])
    add("m3", model, expect_homology(False))
    for q in qs:
        q.repeat = 1

    # medium: the hole-free 4x4 grid; small: the hole-free 2x2 grid (the
    # cost of Smith normal form depends on the vertex order, so these are
    # not relabelled)
    f4, _ = inp.grid("F4", (4, 4))
    for i in range(MEDIUM):
        add(f"F4 #{i}", f4, expect_homology(True, 0))
    f2, _ = inp.grid("F2", (2, 2))
    for i in range(SMALL):
        add(f"F2 #{i}", f2, expect_homology(True, 0))
    # other: grids of 1 to 3 cells a side, the 3x3 one with a hole
    for i in range(OTHER):
        dims = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))[i % 5]
        boxes = [hole_box(3)] if dims == (3, 3) else []
        model, _ = inp.grid(f"s{i}", dims, boxes)
        add(f"{dims} {boxes}", model, expect_homology(not boxes, len(boxes)))
    return qs


WORKLOADS = {
    "ladder": ladder,
    "bisim": bisim,
    "equiv": equiv,
    "dicontract": dicontract,
}


def build(workload, workdir, ditop, oracles, seed):
    """Write the inputs of one workload and return its queries in seeded
    order."""
    inp = Inputs(workdir, ditop, oracles, seed)
    queries = WORKLOADS[workload](inp)
    inp.rng.shuffle(queries)
    return queries
