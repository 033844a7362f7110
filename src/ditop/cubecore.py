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
from operator import itemgetter

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
    ``_ends`` indexes them by end vertex ``v11``: it maps each vertex
    that ends a square to its squares in square order.
    """

    def __init__(self, n_vertices, edges, squares=(), labels=None, coords=None):
        if type(n_vertices) is not int or n_vertices < 0:
            raise ModelError(f"vertex count {n_vertices!r} is not a non-negative integer")
        try:
            edges = tuple(map(tuple, edges))
            squares = tuple(map(tuple, squares))
        except TypeError:
            raise ModelError("edges and squares must be integer sequences") from None
        if not _int_rows(edges, 2):
            bad = next(e for e in edges if not _int_rows((e,), 2))
            raise ModelError(f"edge {bad} must be 2 integers")
        if not _int_rows(squares):
            bad = next(sq for sq in squares if not _int_rows((sq,)))
            raise ModelError(f"square {bad} must list integer edge ids")
        self.n_vertices = n = n_vertices
        self.edges = edges
        self.squares = squares
        self.labels = dict(labels) if labels else {}
        # integer lattice coordinates per vertex, for grid models
        self.coords = tuple(map(tuple, coords)) if coords is not None else None
        src = list(map(itemgetter(0), edges))
        tgt = list(map(itemgetter(1), edges))
        self._validate(src, tgt)
        # out-edges by (target, id) and in-edges by (source, id): one
        # stable sort of the edge ids each
        self._out = [[] for _ in range(n)]
        self._in = [[] for _ in range(n)]
        for e in sorted(range(len(edges)), key=tgt.__getitem__):
            self._out[src[e]].append(e)
        for e in sorted(range(len(edges)), key=src.__getitem__):
            self._in[tgt[e]].append(e)
        # one topological order (Kahn's), minimal vertices first, and the
        # position of each vertex in it, which the sort inverts: the
        # vertex at position i gets rank i
        order = self._order = [v for v, adj in enumerate(self._in) if not adj]
        indeg = list(map(len, self._in))
        for v in order:
            for w in map(tgt.__getitem__, self._out[v]):
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
        if len(order) != n:
            raise ModelError("edge digraph contains a directed cycle")
        self._rank = sorted(range(n), key=order.__getitem__)
        self._class_cache = {}
        self._gamma = None
        self._vertex_at = None  # lattice point -> vertex id: see grid_vertex

    # -- construction checks -------------------------------------------------

    def _validate(self, src, tgt):
        """Check the endpoints, labels and squares, and index the squares
        by end vertex."""
        n, m = self.n_vertices, len(self.edges)
        if m and not (0 <= min(src) and 0 <= min(tgt) and max(src) < n and max(tgt) < n):
            s, t = next(e for e in self.edges if not (0 <= e[0] < n and 0 <= e[1] < n))
            raise ModelError(f"edge ({s},{t}) has an unknown endpoint")
        for v in self.labels:
            if type(v) is not int or not 0 <= v < n:
                raise ModelError(f"label for an unknown vertex {v}")
        # a dict, not a list per vertex: a vertex that ends no square costs
        # nothing
        ends = self._ends = {}
        for sq in self.squares:
            if len(sq) != 4:
                raise ModelError(f"square {sq} must list 4 boundary edges")
            b, r, l, t = sq
            if not (0 <= b < m and 0 <= r < m and 0 <= l < m and 0 <= t < m):
                raise ModelError(f"square {sq} references an unknown edge")
            if not (src[b] == src[l] and tgt[b] == src[r] and tgt[l] == src[t] and tgt[r] == tgt[t]):
                raise ModelError(f"square {sq} does not commute")
            ends.setdefault(tgt[r], []).append(sq)

    # -- queries -------------------------------------------------------------

    def out_edges(self, v):
        return self._out[v]

    def in_edges(self, v):
        return self._in[v]

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
        except ValueError as exc:  # JSONDecodeError, or an integer too long to read
            raise ModelError(f"invalid complex file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ModelError("complex file must hold a JSON object")
        if "vertices" not in doc or "edges" not in doc:
            raise ModelError("complex file needs 'vertices' and 'edges'")
        n = doc["vertices"]
        if type(n) is not int or n < 0:
            raise ModelError("'vertices' must be a non-negative integer")
        for key, width in (("edges", 2), ("squares", 4)):
            if not json_int_rows(doc.get(key, []), width):
                raise ModelError(f"'{key}' must be a list of {width}-integer lists")
        labels = doc.get("labels", {})
        # vertex ids as to_json writes them: ASCII digits, no leading zero,
        # no more digits than the vertex count (so int() can read them)
        digits = len(str(n))
        if not isinstance(labels, dict) or not all(
            k.isascii() and k.isdecimal() and (k[0] != "0" or k == "0") and len(k) <= digits
            and isinstance(v, str) for k, v in labels.items()
        ):
            raise ModelError("'labels' must map vertex ids to strings")
        coords = doc.get("coords")
        if coords is not None:
            if not (json_int_rows(coords) and len(coords) == n):
                raise ModelError("'coords' must list one integer point per vertex")
            axes = set(map(len, coords))
            if len(axes) > 1 or 0 in axes:
                raise ModelError("'coords' points must have one common, positive number of axes")
            if len(set(map(tuple, coords))) < n:
                raise ModelError("'coords' must not repeat a point")
        return cls(n, doc["edges"], doc.get("squares", ()),
                   labels={int(k): v for k, v in labels.items()}, coords=coords)


def _int_rows(rows, width=None) -> bool:
    """True when the rows hold integers only (bools are not), ``width``
    of them each if given: C-level passes, no call per integer."""
    return ((width is None or set(map(len, rows)) <= {width})
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int})


def json_int_rows(v, width=None) -> bool:
    """True for a JSON list of integer lists, each ``width`` long if given."""
    return isinstance(v, list) and set(map(type, v)) <= {list} and _int_rows(v, width)


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
    """The reachability relation, as a sorted tuple of pairs.

    One pass in reverse topological order makes the reach of every vertex
    a bitset, its own bit or'ed with its out-neighbours' reaches.  The
    pairs of a source are read off its bitset by lowest set bit, which
    yields them in ascending order at one step per pair."""
    if x._gamma is not None:
        return x._gamma
    edges, out, reach = x.edges, x._out, [0] * x.n_vertices
    for v in reversed(x._order):
        r = 1 << v
        for e in out[v]:
            r |= reach[edges[e][1]]
        reach[v] = r
    pairs = []
    for a, r in enumerate(reach):
        while r:
            low = r & -r
            pairs.append((a, low.bit_length() - 1))
            r ^= low
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


def build_grid_complex(dims, forbidden=()) -> PrecubicalSet:
    """Grid model: lattice cells whose relative interior avoids every
    forbidden open box prod_i (lo_i, hi_i).

    ``dims`` are per-axis cell counts; ``forbidden`` is a list of per-axis
    integer interval lists ``[(lo, hi), ...]`` in cell units.  A cell
    meets a box when it meets it on every axis.  Per axis the box is the
    open interval (lo, hi), except that an interval spanning the whole
    axis is closed: such axes only occur as the slack axes of a resource
    conflict, where every position is forbidden including the walls.
    """
    dims = tuple(dims)
    if not set(map(type, dims)) <= {int}:
        raise ModelError(f"grid dims must be integers, got {dims}")
    if not dims or any(d <= 0 for d in dims):
        raise ModelError(f"grid dims must be positive, got {dims}")
    boxes = []
    for box in forbidden:
        try:
            pairs = tuple(map(tuple, box))
        except TypeError:
            pairs = ((),)
        if not _int_rows(pairs, 2):
            raise ModelError(f"box {box!r} must be a list of (lo, hi) integer pairs")
        if len(pairs) != len(dims):
            raise ModelError(f"box {pairs} does not match grid dimension")
        for i, (lo, hi) in enumerate(pairs):
            if not (0 <= lo < hi <= dims[i]):
                raise ModelError(f"box interval ({lo},{hi}) out of range on axis {i}")
        boxes.append(pairs)

    # lattice point p has index sum(p[i] * stride[i]): index order is
    # lexicographic order, and a cell is named by the index of its base
    axes = range(len(dims))
    stride = [1] * len(dims)
    for i in reversed(axes[1:]):
        stride[i - 1] = stride[i] * (dims[i] + 1)

    def at(i, lo, hi):
        """The index offsets of positions lo..hi-1 on axis i."""
        return range(lo * stride[i], hi * stride[i], stride[i])

    # per box and axis, indexed by whether the cell spans the axis: the
    # positions it forbids to a point, and to a spanning cell's base
    tables = [[(at(i, 0, d + 1) if (lo, hi) == (0, d) else at(i, lo + 1, hi), at(i, lo, hi))
               for i, ((lo, hi), d) in enumerate(zip(box, dims))] for box in boxes]

    def free(spanned):
        """Base indices, ascending, of the cells spanning the axes
        ``spanned`` that meet no box; a spanning cell's base stops one
        short of the far wall."""
        blocked = set()
        for table in tables:
            cells = itertools.product(*[table[i][i in spanned] for i in axes])
            blocked.update(map(sum, cells))
        cells = itertools.product(*[at(i, 0, d + (i not in spanned)) for i, d in enumerate(dims)])
        return itertools.filterfalse(blocked.__contains__, map(sum, cells))

    # a free cell's faces are free, so the endpoints of a free edge and
    # the sides of a free square exist
    points = list(free(()))
    vid = dict(zip(points, itertools.count()))
    lattice = list(itertools.product(*[range(d + 1) for d in dims]))
    edge_cells = sorted((c, k) for k in axes for c in free((k,)))  # base-major
    eid = {cell: i for i, cell in enumerate(edge_cells)}
    edges = [(vid[c], vid[c + stride[k]]) for c, k in edge_cells]
    square_cells = sorted((c, k, l) for k, l in itertools.combinations(axes, 2) for c in free((k, l)))
    squares = [(eid[c, k], eid[c + stride[k], l], eid[c, l], eid[c + stride[l], k])
               for c, k, l in square_cells]
    return PrecubicalSet(len(points), edges, squares, coords=[lattice[c] for c in points])


def grid_vertex(x: PrecubicalSet, point) -> int:
    """Vertex id of a lattice point in a grid complex."""
    if x.coords is None:
        raise ModelError("not a grid complex")
    if x._vertex_at is None:
        x._vertex_at = {c: i for i, c in enumerate(x.coords)}
    point = tuple(point)
    v = x._vertex_at.get(point)
    if v is None:
        raise ModelError(f"lattice point {point} is not in the complex")
    return v
