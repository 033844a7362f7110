"""Dihomotopy classes of dipaths and the extension action.

Two dipaths between the same endpoints are dihomotopic when they are
connected by elementary square flips: replacing two consecutive edges
across a 2-square by the opposite two.  Classes are built without
listing paths, in one class table per source vertex ``a`` filled in
topological order: the classes C(a, b) are the disjoint union, over the
in-edges f of b, of C(a, src f), divided by one relation per flip that
ends at b, ``(e2, [q.e1]) ~ (f2, [q.f1])``.  This is exact because a
flip either lies inside the prefix or uses the last two edges.  The same
pass stores the suffix action ``ext_f`` of every edge, so the class of
a path is a fold of ``ext`` along its edges, and the action of a prefix
alpha follows by naturality: ``[alpha.q.f] = ext_f([alpha.q])``.
A vertex whose one or two in-edges all start at one-class vertices is
glued directly, by one flip test at most, without the member graph.

Class ids follow the lexicographically least member of each class.
Least members are prefix-closed (flips keep the length), so each class
keeps its least member as key bytes, a least key before it plus one
fixed-width chunk per edge, and representatives are decoded from the
keys only when asked for.  Tables are cached on the complex; a one-pair
query glues one only over the vertices it needs, ``whole_tables`` glues
all of them whole.  A table counts the dipaths to every vertex of its
reach by dynamic programming when it is made, and a pair with more than
``cubecore.DEFAULT_PATH_CAP`` dipaths is refused before any class work:
a one-pair query checks its own pair, ``whole_tables`` every pair in
``gamma`` order.  The cap is that one constant, read at each check,
with no per-call override.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import cubecore
from .cubecore import DPath, PrecubicalSet, descendants, gamma
from .errors import ModelError, PathCapExceeded


class _Table:
    """Classes C(a, v) of one source ``a`` of a complex x, for the
    vertices v reachable from it, filled in topological order as far as
    queries need.  It keeps no reference to x, which caches it, so a
    complex and its tables are freed without the cycle collector."""

    def __init__(self, x: PrecubicalSet, a: int):
        self.a = a
        # once gamma is known, each source's reach is read from it
        self.reach = descendants(x, a) if x._gamma is None else x._gamma.reach(a)
        self.order = sorted(self.reach, key=x._rank.__getitem__)  # a first
        paths = self.paths = dict.fromkeys(self.order, 0)  # v -> dipaths a -> v
        paths[a] = 1
        for v in self.order:  # pushed on: every out-neighbour is in the reach
            for e in x.out_edges(v):
                paths[x.edges[e][1]] += paths[v]
        self.count = {a: 1}  # v -> number of classes
        self.ext = {}  # edge f -> class map C(a, src f) -> C(a, tgt f)
        # v -> per class: its least member as bytes, each edge f written
        # as tgt(f) * |E| + f in a fixed width, so bytes order is path order
        self.key = {a: (b"",)}
        self.width = (x.n_vertices * len(x.edges)).bit_length() // 8 + 1
        self.reps = {}  # v -> representatives

    def _todo(self, x, v, count):
        """Vertices between a and v not in ``count`` yet (classes or rows),
        in topological order; a vertex in it has every vertex before it."""
        reach, edges = self.reach, x.edges
        if v in count:
            return ()
        if all(edges[e][0] in count or edges[e][0] not in reach for e in x.in_edges(v)):
            return (v,)
        seen = {v}
        stack = [v]
        while stack:
            for e in x.in_edges(stack.pop()):
                u = edges[e][0]
                if u in reach and u not in count and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return sorted(seen, key=x._rank.__getitem__)

    def classes(self, x, v):
        """The number of classes at v, refused when more than the path
        cap of dipaths reach v."""
        if self.paths[v] > cubecore.DEFAULT_PATH_CAP:
            raise PathCapExceeded((self.a, v), cubecore.DEFAULT_PATH_CAP)
        for w in self._todo(x, v, self.count):
            self._glue(x, w)
        return self.count[v]

    def _glue(self, x, v):
        """Classes at v from those of its in-neighbours, glued by flips."""
        reach, count, ext, flips, edges = self.reach, self.count, self.ext, x._flips, x.edges
        key, head, width = self.key, v * len(edges), self.width
        ins = [f for f in x.in_edges(v) if edges[f][0] in reach]
        f, u = ins[0], edges[ins[0]][0]
        if len(ins) == 1 and count[u] == 1:
            count[v], key[v], ext[f] = 1, (key[u][0] + (head + f).to_bytes(width, "big"),), (0,)
            return
        if len(ins) == 2 and count[u] == 1 and count[edges[ins[1]][0]] == 1:
            # two one-class members: one class when a flip with its corner
            # in the reach joins them, else two ordered by key
            g = ins[1]
            kf = key[u][0] + (head + f).to_bytes(width, "big")
            kg = key[edges[g][0]][0] + (head + g).to_bytes(width, "big")
            if any(alt[1] == g for e1 in x.in_edges(u) if edges[e1][0] in reach
                   for alt in flips.get((e1, f), ())):
                count[v], key[v], ext[f], ext[g] = 1, (min(kf, kg),), (0,), (0,)
            elif kf < kg:
                count[v], key[v], ext[f], ext[g] = 2, (kf, kg), (0,), (1,)
            else:
                count[v], key[v], ext[f], ext[g] = 2, (kg, kf), (1,), (0,)
            return
        cand = []  # per member (f, class at src f): its least path's key
        base = {}  # in-edge f -> index of its first member
        for f in ins:
            u = edges[f][0]
            base[f] = len(cand)
            tail = (head + f).to_bytes(width, "big")
            cand.extend([k + tail for k in key[u]])
        adj = [[] for _ in cand]
        for e2, i0 in base.items():
            for e1 in x.in_edges(edges[e2][0]):
                pair = (e1, e2)
                if edges[e1][0] not in reach:
                    continue
                for alt in flips.get(pair, ()):
                    # each square is read from both of its edge pairs; glue once
                    if alt <= pair:
                        continue
                    j0 = base[alt[1]]
                    for i, j in zip(ext[e1], ext[alt[0]]):
                        adj[i0 + i].append(j0 + j)
                        adj[j0 + j].append(i0 + i)
        label = [-1] * len(cand)
        least = []  # per component: its least member
        for i, nbrs in enumerate(adj):
            if label[i] < 0:
                label[i] = len(least)
                component = [i]
                for j in component:
                    for k in adj[j]:
                        if label[k] < 0:
                            label[k] = label[i]
                            component.append(k)
                least.append(min(component, key=cand.__getitem__) if nbrs else i)
        ranked = sorted(least, key=cand.__getitem__) if len(least) > 1 else least
        cid = [0] * len(least)
        for c, i in enumerate(ranked):
            cid[label[i]] = c
        count[v] = len(ranked)
        key[v] = tuple([cand[i] for i in ranked])
        for f, i in base.items():
            ext[f] = tuple([cid[c] for c in label[i:i + count[edges[f][0]]]])

    def fold(self, c, edges):
        """Class of p.edges given the class c of a path p ending at the
        first edge's source."""
        ext = self.ext
        for e in edges:
            c = ext[e][c]
        return c

    def representatives(self, x, v):
        """The least member of each class at v, decoded from its key."""
        reps = self.reps.get(v)
        if reps is None:
            w, m = self.width, len(x.edges)
            reps = self.reps[v] = tuple([
                DPath(self.a, tuple([int.from_bytes(k[i:i + w], "big") % m
                                     for i in range(0, len(k), w)]))
                for k in self.key[v]])
        return reps

    def rows(self, x, outer, rows, v=None, through=None):
        """Fill ``rows`` from rows[a] = ([alpha],) in topological order,
        over the whole reach or up to v: per vertex w, the map [q] ->
        [alpha.m(q)] from C(a, w) to C(outer.a, m w), where m sends edge f
        to ``through[f]`` or collapses it at None (the identity without
        ``through``).  In-edges into w agree by lemma 1 of ``equivcheck``;
        ``outer`` must be glued at the images.  Rows already in ``rows``
        are kept."""
        ext, theirs, edges = self.ext, outer.ext, x.edges
        todo = [w for w in self.order[1:] if w not in rows] if v is None else self._todo(x, v, rows)
        for w in todo:
            row = [0] * self.count[w]
            for f in x.in_edges(w):
                up = rows.get(edges[f][0])
                if up is not None:
                    own = ext[f]
                    g = f if through is None else through[f]
                    if g is None:
                        for c, image in enumerate(up):
                            row[own[c]] = image
                    else:
                        th = theirs[g]
                        for c, image in enumerate(up):
                            row[own[c]] = th[image]
            rows[w] = tuple(row)
        return rows


@dataclass
class ClassSet:
    """Dihomotopy classes of dipaths for one endpoint pair.

    Class ids are assigned by lexicographically least representative;
    ``representatives[i]`` is that path for class ``i``.
    """

    pair: tuple[int, int]
    count: int
    _x: PrecubicalSet = field(repr=False, compare=False)

    @property
    def representatives(self) -> tuple[DPath, ...]:
        a, b = self.pair
        return _table(self._x, a).representatives(self._x, b)


@dataclass(frozen=True)
class ExtensionArrow:
    """An extension (alpha, beta) from pair (x, y) to (x', y'):
    alpha runs x' -> x and beta runs y -> y'."""

    source: tuple[int, int]
    target: tuple[int, int]
    alpha: DPath
    beta: DPath


def _table(x: PrecubicalSet, a: int) -> _Table:
    t = x._class_cache.get(a)
    if t is None:
        t = x._class_cache[a] = _Table(x, a)
    return t


def trace_classes(x: PrecubicalSet, a: int, b: int) -> ClassSet:
    """Quotient of all dipaths a -> b by elementary square flips."""
    x.check_vertex(a)
    x.check_vertex(b)
    t = _table(x, a)
    if b not in t.reach:
        raise ModelError(f"vertex {b} is not reachable from {a}")
    return ClassSet((a, b), t.classes(x, b), x)


def whole_tables(x: PrecubicalSet):
    """Per vertex a: its class table glued over its whole reach, and
    (s, prefix rows) of each in-edge s -> a.  A refusal names the first
    pair of ``gamma`` over the path cap, before any class is glued."""
    cap = cubecore.DEFAULT_PATH_CAP
    pairs = gamma(x)  # first, so that new tables read their reach from it
    tables = [_table(x, a) for a in range(x.n_vertices)]
    for a, b in pairs:
        if tables[a].paths[b] > cap:
            raise PathCapExceeded((a, b), cap)
    for t in tables:
        for w in t.order:
            if w not in t.count:
                t._glue(x, w)
    whole = []
    for t in tables:
        in_rows = []
        for e in x.in_edges(t.a):
            outer = tables[x.edges[e][0]]
            # a map into the one class of (outer.a, w) is constant
            rows = {w: (0,) * t.count[w] for w in t.order[1:] if outer.count[w] == 1}
            rows[t.a] = outer.ext[e][:1]
            in_rows.append((outer.a, t.rows(x, outer, rows)))
        whole.append((t, in_rows))
    return whole


def class_of(x: PrecubicalSet, p: DPath) -> int:
    """Class id of a path within trace_classes(start, end)."""
    end = x.check_path(p)
    trace_classes(x, p.start, end)
    return _table(x, p.start).fold(0, p.edges)


def arrow_action(x: PrecubicalSet, arrow: ExtensionArrow) -> tuple:
    """The action of an arrow, tabulated over the classes of its source:
    class c goes to the class of alpha.rep(c).beta, one fold on the
    table of alpha's start."""
    if x.check_path(arrow.alpha) != arrow.source[0] or arrow.alpha.start != arrow.target[0]:
        raise ModelError("arrow prefix does not run target-start -> source-start")
    if arrow.beta.start != arrow.source[1] or x.check_path(arrow.beta) != arrow.target[1]:
        raise ModelError("arrow suffix does not run source-end -> target-end")
    source = trace_classes(x, *arrow.source)
    trace_classes(x, *arrow.target)
    outer, alpha, beta = _table(x, arrow.alpha.start), arrow.alpha.edges, arrow.beta.edges
    return tuple([outer.fold(0, alpha + rep.edges + beta) for rep in source.representatives])


def extend_class(x: PrecubicalSet, arrow: ExtensionArrow, c: int) -> int:
    """Class of alpha * rep(c) * beta at the target pair."""
    action = arrow_action(x, arrow)
    if not (0 <= c < len(action)):
        raise ModelError(f"class {c} not valid at pair {arrow.source}")
    return action[c]


def elementary_arrows(x: PrecubicalSet, pair):
    """Elementary extensions out of a pair: one in-edge prefix or one
    out-edge suffix, the other side constant.  Deterministic order."""
    a, b = pair
    for e in x.in_edges(a):
        s = x.edges[e][0]
        yield ExtensionArrow((a, b), (s, b), DPath(s, (e,)), DPath(b))
    for e in x.out_edges(b):
        t = x.edges[e][1]
        yield ExtensionArrow((a, b), (a, t), DPath(a), DPath(b, (e,)))
