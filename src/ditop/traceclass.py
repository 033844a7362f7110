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
glued directly, without the member graph: two are joined when a square
ending at the vertex has two different in-edges and its corner in the
reach, one scan of the squares that ``PrecubicalSet._ends`` lists there.

Class ids follow the lexicographically least member of each class.
Least members are prefix-closed (flips keep the length), so each class
keeps its least member as key bytes, a least key before it plus one
fixed-width chunk per edge, and representatives are decoded from the
keys only when asked for.  Tables are cached on the complex; a one-pair
query glues one only over the vertices it needs.  ``whole_tables``
glues only the pairs that the one-class bitsets of
``one_class_sources`` leave open: a certified pair gets one class and
the action (0,) on its in-edges, and its least key is made only when a
glue or a representative reads it.  A source with no open pair gets a
table only if a prefix row needs one.

The path cap ``cubecore.DEFAULT_PATH_CAP`` bounds class counts: a glue
that would store more than one class at a vertex w, and more than the
cap, refuses (a, w) before it stores anything at w.  Vertices are glued
in topological order, so (a, b) is refused exactly when a vertex on a
dipath a -> b, b included, has more than the cap of classes from a, and
the refusal names the first such vertex in ``x._order``.  A table keeps
the cap it was made under and is made anew once the cap differs, so an
answer or refusal does not depend on the queries that ran before, under
this cap or another.  The glue at a vertex reads at most its in-degree
times the cap members.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import cubecore
from .cubecore import DPath, PrecubicalSet, gamma
from .errors import ModelError, PathCapExceeded


_ONE = (0,)  # the action of an edge between one-class pairs


class _Table:
    """Classes C(a, v) of one source ``a`` of a complex x, for the
    vertices v reachable from it, filled in topological order as far as
    queries need, under the path cap read when it is made.  It keeps no
    reference to x, which caches it, so a complex and its tables are
    freed without the cycle collector."""

    def __init__(self, x: PrecubicalSet, a: int):
        self.a = a
        self.cap = cubecore.DEFAULT_PATH_CAP
        self.reach = gamma(x).reach(a)  # a set, read off the bitset of a
        self.order = sorted(self.reach, key=x._rank.__getitem__)  # a first
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
        """The number of classes at v, glued as far as v needs."""
        for w in self._todo(x, v, self.count):
            self._glue(x, w)
        return self.count[v]

    def _glue(self, x, v):
        """Classes at v from those of its in-neighbours, glued by flips."""
        reach, count, ext, edges = self.reach, self.count, self.ext, x.edges
        key, head, width = self.key, v * len(edges), self.width
        ins = [f for f in x.in_edges(v) if edges[f][0] in reach]
        f, u = ins[0], edges[ins[0]][0]
        if len(ins) == 1 and count[u] == 1:
            count[v], key[v], ext[f] = 1, (key[u][0] + (head + f).to_bytes(width, "big"),), (0,)
            return
        if len(ins) == 2 and count[u] == 1 and count[edges[ins[1]][0]] == 1:
            # two one-class members: one class when a square (b, r, l, t)
            # with r != t has its corner in the reach, else two ordered by
            # key; such a corner makes r and t in-edges from the reach,
            # which are f and g
            g = ins[1]
            kf = key[u][0] + (head + f).to_bytes(width, "big")
            kg = key[edges[g][0]][0] + (head + g).to_bytes(width, "big")
            if any(r != t and edges[b][0] in reach for b, r, l, t in x._ends.get(v, ())):
                count[v], key[v], ext[f], ext[g] = 1, (min(kf, kg),), (0,), (0,)
                return
            if self.cap < 2:  # two classes
                raise PathCapExceeded((self.a, v), self.cap)
            if kf < kg:
                count[v], key[v], ext[f], ext[g] = 2, (kf, kg), (0,), (1,)
            else:
                count[v], key[v], ext[f], ext[g] = 2, (kg, kf), (1,), (0,)
            return
        cand = []  # per member (f, class at src f): its least path's key
        base = {}  # in-edge f -> index of its first member
        for f in ins:
            base[f] = len(cand)
            tail = (head + f).to_bytes(width, "big")
            cand.extend([k + tail for k in key[edges[f][0]]])
        label = list(range(len(cand)))  # member -> a member of its class
        for b, r, l, t in x._ends.get(v, ()):
            if edges[b][0] in reach:  # the corner: then r and t are in ins
                i0, j0 = base[r], base[t]
                for i, j in zip(ext[b], ext[l]):
                    li, lj = label[i0 + i], label[j0 + j]
                    if li != lj:
                        label = [li if k == lj else k for k in label]
        least = {}  # per class: its least member
        for i, k in enumerate(label):
            j = least.get(k)
            if j is None or cand[i] < cand[j]:
                least[k] = i
        ranked = sorted(least.values(), key=cand.__getitem__)
        if len(ranked) > max(self.cap, 1):
            raise PathCapExceeded((self.a, v), self.cap)
        cid = {label[i]: c for c, i in enumerate(ranked)}
        count[v] = len(ranked)
        key[v] = tuple([cand[i] for i in ranked])
        for f, i in base.items():
            ext[f] = tuple([cid[k] for k in label[i:i + count[edges[f][0]]]])

    def fill(self, x, opened):
        """Classes over the whole reach, given the vertices whose pairs
        ``one_class_sources`` leaves open, in topological order.  Every
        other vertex gets one class and the action (0,) on its in-edges
        from the reach, its least key left to ``least``.  The open ones
        are glued once every key they read is made, so a refusal leaves
        those not yet glued to later queries.  What earlier queries
        glued is kept."""
        reach, edges, key = self.reach, x.edges, self.key
        pending = set(opened)
        shut = [v for v in self.order if v not in pending]
        self.count = {**dict.fromkeys(shut, 1), **self.count}
        inside = [f for v in shut for f in x._in[v] if edges[f][0] in reach]
        self.ext = {**dict.fromkeys(inside, _ONE), **self.ext}
        for w in opened:
            for f in x.in_edges(w):
                u = edges[f][0]
                if u not in key and u in reach and u not in pending:
                    self.least(x, u)
        for w in opened:
            if w not in key:
                self._glue(x, w)

    def least(self, x, v):
        """The least keys at v.  A vertex that ``fill`` did not glue has
        one class, and so has every vertex before it, so all dipaths to
        it have one length and its least key is the least over its
        in-edges f of the least key at src f plus f's chunk."""
        key = self.key
        if v not in key:
            reach, edges, width, m = self.reach, x.edges, self.width, len(x.edges)
            for w in self._todo(x, v, key):
                head = w * m
                key[w] = (min([key[edges[f][0]][0] + (head + f).to_bytes(width, "big")
                               for f in x.in_edges(w) if edges[f][0] in reach]),)
        return key[v]

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
            self.classes(x, v)
            w, m = self.width, len(x.edges)
            reps = self.reps[v] = tuple([
                DPath(self.a, tuple([int.from_bytes(k[i:i + w], "big") % m
                                     for i in range(0, len(k), w)]))
                for k in self.least(x, v)])
        return reps

    def rows(self, x, outer, rows, v, through=None):
        """Fill ``rows`` from rows[a] = ([alpha],) in topological order up
        to v: per vertex w, the map [q] -> [alpha.m(q)] from C(a, w) to
        C(outer.a, m w), where m sends edge f to ``through[f]`` or
        collapses it at None (the identity without ``through``).  In-edges
        into w agree by lemma 1 of ``equivcheck``; ``outer`` must be glued
        at the images.  Rows already in ``rows`` are kept."""
        return self.rows_at(x, outer, rows, self._todo(x, v, rows), through)

    def rows_at(self, x, outer, rows, todo, through=None):
        """Fill ``rows`` at the vertices ``todo``, in topological order, as
        ``rows`` does.  An in-neighbour in the reach without a row has the
        constant row 0."""
        ext, theirs, edges, reach, count = self.ext, outer.ext, x.edges, self.reach, self.count
        for w in todo:
            row = [0] * count[w]
            for f in x.in_edges(w):
                u = edges[f][0]
                up = rows.get(u)
                if up is None and u in reach:
                    up = (0,) * count[u]
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
    """The cached table of a, made anew when the path cap has changed
    since it was made."""
    t = x._class_cache.get(a)
    if t is None or t.cap != cubecore.DEFAULT_PATH_CAP:
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


def one_class_sources(x: PrecubicalSet):
    """(ANC, ONE): per vertex v, the bitset of the sources that reach v,
    v included, and of those a for which the lemma below certifies that
    (a, v) has one class.  One pass in topological order.

    Lemma.  Take a source a and a vertex v != a whose in-neighbours
    reached from a have one class each.  By the glue rule, C(a, v) is
    then one class exactly when the in-edges of v from the reach of a
    are connected by the squares (b, r, l, t) ending at v whose corner
    src b is reached from a, each joining r and t.  So a is in ONE[v]
    when a == v, or when a is in ONE[src f] for every in-edge f of v
    from its reach and those in-edges are so connected.  By induction in
    topological order, every pair has one class exactly when ONE == ANC;
    on its own, ONE only certifies, as an in-neighbour with two classes
    may still leave one at v.

    With J[r, t] the union of ANC[src b] over the squares (b, r, l, t)
    with r != t, connection is checked on bitsets at each vertex with two
    in-edges or more: each source starts at its first in-edge from its
    reach, spreads along J for at most one round per in-edge, and must
    reach every in-edge f with its bit in ANC[src f].  With two in-edges
    f and g this is ANC[src f] & ANC[src g] & ~J[f, g] == 0."""
    edges, ins_of = x.edges, x._in
    anc = [0] * x.n_vertices
    one = [0] * x.n_vertices
    ends = x._ends
    for v in x._order:
        ins = ins_of[v]
        if len(ins) < 2:
            if ins:
                u = edges[ins[0]][0]
                anc[v], one[v] = anc[u] | 1 << v, one[u] | 1 << v
            else:
                anc[v] = one[v] = 1 << v
            continue
        seen = bad = 0
        for f in ins:
            u = edges[f][0]
            seen |= anc[u]
            bad |= anc[u] & ~one[u]
        links = [(r, t, anc[edges[b][0]]) for b, r, l, t in ends.get(v, ()) if r != t]
        if len(ins) == 2:
            f, g = ins
            joined = 0
            for r, t, bits in links:
                joined |= bits
            bad |= anc[edges[f][0]] & anc[edges[g][0]] & ~joined
        else:
            reached, first = {}, 0  # each source starts at its first in-edge
            for f in ins:
                bits = anc[edges[f][0]]
                reached[f] = bits & ~first
                first |= bits
            for _ in ins:
                grown = False
                for r, t, bits in links:
                    to_t, to_r = reached[r] & bits, reached[t] & bits
                    if to_t & ~reached[t] or to_r & ~reached[r]:
                        reached[t] |= to_t
                        reached[r] |= to_r
                        grown = True
                if not grown:
                    break
            for f in ins:
                bad |= anc[edges[f][0]] & ~reached[f]
        anc[v] = seen | 1 << v
        one[v] = anc[v] & ~bad
    return anc, one


def whole_tables(x: PrecubicalSet):
    """Per vertex a: its class table filled over its whole reach, or None
    when every pair from a is certified by ``one_class_sources`` and no
    prefix row needs it; and (s, prefix rows) of each in-edge s -> a,
    where a vertex without a row maps into a certified pair (s, w), so
    its row is constant 0.  Only the open pairs are glued, source by
    source in order, so a refusal names the least source with a vertex
    over the path cap and the first such vertex in ``x._order``.  Each
    table reads its reach off the bitsets of ``gamma``."""
    anc, one = one_class_sources(x)
    opened = [[] for _ in anc]  # a -> the vertices v with (a, v) open
    for v in x._order:
        bits = anc[v] & ~one[v]
        while bits:
            low = bits & -bits
            opened[low.bit_length() - 1].append(v)
            bits ^= low
    tables = [_table(x, a) if vs else None for a, vs in enumerate(opened)]
    for t in tables:
        if t:
            t.fill(x, opened[t.a])
    whole = []
    for a, t in enumerate(tables):
        in_rows = []
        for e in x.in_edges(a):
            s = x.edges[e][0]
            outer = tables[s]
            rows = {a: outer.ext[e][:1] if outer else _ONE}
            todo = [w for w in opened[s] if anc[w] >> a & 1 and w != a]
            if todo:
                if t is None:
                    t = tables[a] = _table(x, a)
                    t.fill(x, ())
                t.rows_at(x, outer, rows, todo)
            in_rows.append((s, rows))
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
