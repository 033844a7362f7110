"""Finite precubical models of directed spaces.

A complex stores vertices, directed edges and 2-squares.  Monotone edge
paths play the role of directed paths; the edge digraph must be acyclic.
Grid models (products of process lines minus forbidden boxes) are built
by :func:`build_grid_complex`.
"""
from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

from .errors import ModelError, PathCapExceeded

DEFAULT_PATH_CAP = 100_000


@dataclass(frozen=True)
class DPath:
    """A monotone edge path: a start vertex and consecutive forward edges.

    An empty edge list is the constant dipath at ``start``.
    """

    start: int
    edges: tuple[int, ...] = ()

    def __len__(self):
        return len(self.edges)


class PrecubicalSet:
    """Immutable finite precubical set of dimension <= 2.

    Squares are stored as quadruples of edge indices
    ``(bottom, right, left, top)`` with ``bottom: v00->v10``,
    ``right: v10->v11``, ``left: v00->v01``, ``top: v01->v11``.
    """

    def __init__(self, n_vertices, edges, squares=(), labels=None, coords=None):
        self.n_vertices = int(n_vertices)
        self.edges = tuple((int(s), int(t)) for s, t in edges)
        self.squares = tuple(tuple(int(e) for e in sq) for sq in squares)
        self.labels = dict(labels) if labels else {}
        # integer lattice coordinates per vertex, for grid models
        self.coords = tuple(tuple(c) for c in coords) if coords is not None else None
        # position of each vertex in one topological order
        self._rank = [0] * self.n_vertices
        for i, v in enumerate(self._validate()):
            self._rank[v] = i
        self._out = [[] for _ in range(self.n_vertices)]
        self._in = [[] for _ in range(self.n_vertices)]
        for i, (s, t) in enumerate(self.edges):
            self._out[s].append(i)
            self._in[t].append(i)
        for adj in self._out:
            adj.sort(key=lambda i: (self.edges[i][1], i))
        for adj in self._in:
            adj.sort(key=lambda i: (self.edges[i][0], i))
        # elementary square flips: (e1,e2) -> every (e1',e2') across a
        # square, in square order; an edge pair may bound several squares
        self._flips = {}
        for bottom, right, left, top in self.squares:
            self._flips.setdefault((bottom, right), []).append((left, top))
            self._flips.setdefault((left, top), []).append((bottom, right))
        self._class_cache = {}
        self._gamma = None

    # -- construction checks -------------------------------------------------

    def _validate(self):
        """Check the cells; return the vertices in a topological order."""
        for s, t in self.edges:
            if not (0 <= s < self.n_vertices and 0 <= t < self.n_vertices):
                raise ModelError(f"edge ({s},{t}) has an unknown endpoint")
        for v in self.labels:
            if v not in range(self.n_vertices):
                raise ModelError(f"label for an unknown vertex {v}")
        for sq in self.squares:
            if len(sq) != 4:
                raise ModelError(f"square {sq} must list 4 boundary edges")
            if any(not (0 <= e < len(self.edges)) for e in sq):
                raise ModelError(f"square {sq} references an unknown edge")
            b, r, l, t = (self.edges[e] for e in sq)
            if not (b[0] == l[0] and b[1] == r[0] and l[1] == t[0] and r[1] == t[1]):
                raise ModelError(f"square {sq} does not commute")
        # acyclic edge digraph (directed loops are out of scope)
        indeg = [0] * self.n_vertices
        out = [[] for _ in range(self.n_vertices)]
        for s, t in self.edges:
            indeg[t] += 1
            out[s].append(t)
        queue = [v for v in range(self.n_vertices) if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != self.n_vertices:
            raise ModelError("edge digraph contains a directed cycle")
        return order

    # -- queries -------------------------------------------------------------

    def out_edges(self, v):
        return self._out[v]

    def in_edges(self, v):
        return self._in[v]

    def flip(self, e1, e2):
        """The opposite edge pair across a square, or None; across the
        last square listed when the pair bounds several."""
        alts = self._flips.get((e1, e2))
        return alts[-1] if alts else None

    @cached_property
    def _vertex_at(self):
        """Lattice point -> vertex id, for grid models."""
        return {c: i for i, c in enumerate(self.coords)}

    def check_vertex(self, v):
        if not (0 <= v < self.n_vertices):
            raise ModelError(f"unknown vertex {v}")

    def check_path(self, p: DPath) -> int:
        """Validate consecutiveness of a path; return its end vertex."""
        self.check_vertex(p.start)
        at = p.start
        for e in p.edges:
            if not (0 <= e < len(self.edges)):
                raise ModelError(f"unknown edge {e} in path")
            s, t = self.edges[e]
            if s != at:
                raise ModelError(f"path not consecutive at edge {e}")
            at = t
        return at

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "vertices": self.n_vertices,
            "edges": [list(e) for e in self.edges],
            "squares": [list(sq) for sq in self.squares],
        }
        if self.labels:
            doc["labels"] = {str(v): lab for v, lab in sorted(self.labels.items())}
        if self.coords is not None:
            doc["coords"] = [list(c) for c in self.coords]
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PrecubicalSet":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid complex file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ModelError("complex file must hold a JSON object")
        if "vertices" not in doc or "edges" not in doc:
            raise ModelError("complex file needs 'vertices' and 'edges'")
        n = doc["vertices"]
        if not json_int(n) or n < 0:
            raise ModelError("'vertices' must be a non-negative integer")
        for key, width in (("edges", 2), ("squares", 4)):
            if not json_int_rows(doc.get(key, []), width):
                raise ModelError(f"'{key}' must be a list of {width}-integer lists")
        labels = doc.get("labels", {})
        if not isinstance(labels, dict) or not all(
            k.isdecimal() and isinstance(v, str) for k, v in labels.items()
        ):
            raise ModelError("'labels' must map vertex ids to strings")
        coords = doc.get("coords")
        if coords is not None and not (json_int_rows(coords) and len(coords) == n):
            raise ModelError("'coords' must list one integer point per vertex")
        return cls(
            n,
            doc["edges"],
            doc.get("squares", ()),
            labels={int(k): v for k, v in labels.items()},
            coords=coords,
        )


def json_int(v) -> bool:
    """True for a JSON integer (bools are ints in Python but not here)."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_int_rows(v, width=None) -> bool:
    """True for a JSON list of integer lists, each ``width`` long if given."""
    return isinstance(v, list) and all(
        isinstance(row, list)
        and (width is None or len(row) == width)
        and all(json_int(i) for i in row)
        for row in v
    )


@dataclass(frozen=True)
class GammaSet:
    """All reachable ordered vertex pairs of a complex."""

    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def _members(self):
        return frozenset(self.pairs)

    def __contains__(self, pair):
        return pair in self._members

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def reach(self, a):
        """The vertices reachable from a, a included."""
        lo, hi = (bisect.bisect_left(self.pairs, (v,)) for v in (a, a + 1))
        return {b for _, b in self.pairs[lo:hi]}


def reachable(x: PrecubicalSet, a: int, b: int) -> bool:
    """True iff a monotone edge path a -> b exists."""
    x.check_vertex(a)
    x.check_vertex(b)
    return b in descendants(x, a)


def gamma(x: PrecubicalSet) -> GammaSet:
    """The reachability relation, as a sorted tuple of pairs."""
    if x._gamma is not None:
        return x._gamma
    pairs = []
    for a in range(x.n_vertices):
        pairs.extend((a, b) for b in sorted(descendants(x, a)))
    x._gamma = GammaSet(tuple(pairs))
    return x._gamma


def descendants(x: PrecubicalSet, a: int) -> set:
    """The vertices reachable from a, a included."""
    seen = {a}
    stack = [a]
    while stack:
        for e in x.out_edges(stack.pop()):
            w = x.edges[e][1]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def enumerate_dpaths(x: PrecubicalSet, a: int, b: int, cap=None):
    """All monotone edge paths a -> b, in lexicographic vertex order.

    Raises PathCapExceeded when more than ``cap`` paths exist (default
    DEFAULT_PATH_CAP) and ModelError when b is unreachable from a.
    """
    if cap is None:
        cap = DEFAULT_PATH_CAP
    if not reachable(x, a, b):
        raise ModelError(f"vertex {b} is not reachable from {a}")
    # restrict the search to vertices that can still reach b
    useful = {b}
    stack = [b]
    while stack:
        v = stack.pop()
        for e in x.in_edges(v):
            w = x.edges[e][0]
            if w not in useful:
                useful.add(w)
                stack.append(w)
    if a == b:
        if cap < 1:
            raise PathCapExceeded((a, b), cap)
        return [DPath(a)]
    paths = []
    acc = []  # edges of the current partial path
    stack = [iter(x.out_edges(a))]  # one edge iterator per vertex of it
    while stack:
        for e in stack[-1]:
            w = x.edges[e][1]
            if w not in useful:
                continue
            acc.append(e)
            if w != b:
                stack.append(iter(x.out_edges(w)))
                break
            paths.append(DPath(a, tuple(acc)))
            if len(paths) > cap:
                raise PathCapExceeded((a, b), cap)
            # no path continues through b: acyclicity keeps it from returning
            acc.pop()
        else:
            stack.pop()
            if acc:
                acc.pop()
    return paths


def concat(x: PrecubicalSet, p: DPath, q: DPath) -> DPath:
    """Concatenation p * q of two valid paths; endpoints must agree."""
    if x.check_path(p) != q.start:
        raise ModelError("concat endpoint mismatch")
    x.check_path(q)
    return DPath(p.start, p.edges + q.edges)


# -- grid models -------------------------------------------------------------


def _interior_meets_box(base, spanned, box, dims):
    """Does the open unit cell at ``base`` spanning ``spanned`` axes meet
    the forbidden region of ``box``?

    Per axis the region is the open interval (lo, hi), except that an
    interval spanning the whole axis is closed: such axes only occur as
    the slack axes of a resource conflict, where every position is
    forbidden including the walls.
    """
    for i, (lo, hi) in enumerate(box):
        full = lo == 0 and hi == dims[i]
        if i in spanned:
            if not (base[i] < hi and base[i] + 1 > lo):
                return False
        elif full:
            if not (lo <= base[i] <= hi):
                return False
        else:
            if not (lo < base[i] < hi):
                return False
    return True


def build_grid_complex(dims, forbidden=()) -> PrecubicalSet:
    """Grid model: lattice cells whose relative interior avoids every
    forbidden open box prod_i (lo_i, hi_i).

    ``dims`` are per-axis cell counts; ``forbidden`` is a list of per-axis
    integer interval lists ``[(lo, hi), ...]`` in cell units.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d <= 0 for d in dims):
        raise ModelError(f"grid dims must be positive, got {dims}")
    boxes = [tuple((int(lo), int(hi)) for lo, hi in box) for box in forbidden]
    for box in boxes:
        if len(box) != len(dims):
            raise ModelError(f"box {box} does not match grid dimension")
        for i, (lo, hi) in enumerate(box):
            if not (0 <= lo < hi <= dims[i]):
                raise ModelError(f"box interval ({lo},{hi}) out of range on axis {i}")

    def blocked(base, spanned):
        return any(_interior_meets_box(base, spanned, box, dims) for box in boxes)

    points = [
        p
        for p in itertools.product(*[range(d + 1) for d in dims])
        if not blocked(p, ())
    ]
    vid = {p: i for i, p in enumerate(points)}  # row-major: lexicographic

    edges = []
    eid = {}
    for p in points:
        for k in range(len(dims)):
            q = list(p)
            q[k] += 1
            q = tuple(q)
            if q in vid and not blocked(p, (k,)):
                eid[(p, k)] = len(edges)
                edges.append((vid[p], vid[q]))

    squares = []
    for p in points:
        for k in range(len(dims)):
            for l in range(k + 1, len(dims)):
                pk = list(p)
                pk[k] += 1
                pl = list(p)
                pl[l] += 1
                bottom = eid.get((p, k))
                left = eid.get((p, l))
                right = eid.get((tuple(pk), l))
                top = eid.get((tuple(pl), k))
                if None in (bottom, right, left, top):
                    continue
                if not blocked(p, (k, l)):
                    squares.append((bottom, right, left, top))

    return PrecubicalSet(len(points), edges, squares, coords=points)


def grid_vertex(x: PrecubicalSet, point) -> int:
    """Vertex id of a lattice point in a grid complex."""
    if x.coords is None:
        raise ModelError("not a grid complex")
    point = tuple(point)
    v = x._vertex_at.get(point)
    if v is None:
        raise ModelError(f"lattice point {point} is not in the complex")
    return v
