"""Dihomotopy classes of dipaths and the extension action.

Two dipaths between the same endpoints are dihomotopic when they are
connected by elementary square flips: replacing two consecutive edges
across a 2-square by the opposite two.  Classes per endpoint pair are
computed by a union-find quotient over the full path list and memoized
on the complex.  Every ``cap`` parameter bounds the paths enumerated per
pair and defaults to ``cubecore.DEFAULT_PATH_CAP``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubecore import DEFAULT_PATH_CAP, DPath, PrecubicalSet, concat, enumerate_dpaths
from .errors import ModelError, PathCapExceeded


@dataclass(frozen=True)
class ClassSet:
    """Dihomotopy classes of dipaths for one endpoint pair.

    Class ids are assigned by lexicographically least representative;
    ``representatives[i]`` is that path for class ``i``.
    """

    pair: tuple[int, int]
    representatives: tuple[DPath, ...]
    membership: dict  # path edge tuple -> class id

    @property
    def count(self):
        return len(self.representatives)


@dataclass(frozen=True)
class ExtensionArrow:
    """An extension (alpha, beta) from pair (x, y) to (x', y'):
    alpha runs x' -> x and beta runs y -> y'."""

    source: tuple[int, int]
    target: tuple[int, int]
    alpha: DPath
    beta: DPath


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def trace_classes(x: PrecubicalSet, a: int, b: int, cap=None) -> ClassSet:
    """Quotient of all dipaths a -> b by elementary square flips."""
    if cap is None:
        cap = DEFAULT_PATH_CAP
    key = (a, b)
    cached = x._class_cache.get(key)
    if cached is not None:
        # a set cached under a larger cap must not bypass this one
        if len(cached.membership) > cap:
            raise PathCapExceeded(key, cap)
        return cached
    paths = enumerate_dpaths(x, a, b, cap=cap)
    index = {p.edges: i for i, p in enumerate(paths)}
    uf = _UnionFind(len(paths))
    for i, p in enumerate(paths):
        e = p.edges
        for k in range(len(e) - 1):
            alt = x.flip(e[k], e[k + 1])
            if alt is not None:
                uf.union(i, index[e[:k] + alt + e[k + 2 :]])
    # lex enumeration order makes min-index roots the lex-least members
    roots = sorted({uf.find(i) for i in range(len(paths))})
    class_id = {root: c for c, root in enumerate(roots)}
    membership = {p.edges: class_id[uf.find(i)] for i, p in enumerate(paths)}
    result = ClassSet(key, tuple(paths[r] for r in roots), membership)
    x._class_cache[key] = result
    return result


def class_of(x: PrecubicalSet, p: DPath, cap=None) -> int:
    """Class id of a path within trace_classes(start, end)."""
    end = x.check_path(p)
    cs = trace_classes(x, p.start, end, cap=cap)
    try:
        return cs.membership[p.edges]
    except KeyError:
        raise ModelError(f"path {p} not produced by enumeration") from None


def extend_class(x: PrecubicalSet, arrow: ExtensionArrow, c: int, cap=None) -> int:
    """Class of alpha * rep(c) * beta at the target pair."""
    sx, sy = arrow.source
    tx, ty = arrow.target
    if x.path_end(arrow.alpha) != sx or arrow.alpha.start != tx:
        raise ModelError("arrow prefix does not run target-start -> source-start")
    if arrow.beta.start != sy or x.path_end(arrow.beta) != ty:
        raise ModelError("arrow suffix does not run source-end -> target-end")
    cs = trace_classes(x, sx, sy, cap=cap)
    if not (0 <= c < cs.count):
        raise ModelError(f"class {c} not valid at pair {arrow.source}")
    extended = concat(x, concat(x, arrow.alpha, cs.representatives[c]), arrow.beta)
    return class_of(x, extended, cap=cap)


def arrow_action(x: PrecubicalSet, arrow: ExtensionArrow, cap=None) -> tuple:
    """The action of an arrow, tabulated over the classes of its source."""
    n = trace_classes(x, *arrow.source, cap=cap).count
    return tuple(extend_class(x, arrow, c, cap=cap) for c in range(n))


def identity_arrow(pair) -> ExtensionArrow:
    x, y = pair
    return ExtensionArrow(pair, pair, DPath(x), DPath(y))


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


def compose_arrows(x: PrecubicalSet, first: ExtensionArrow, second: ExtensionArrow) -> ExtensionArrow:
    """Composite extension: apply ``first`` then ``second``."""
    if first.target != second.source:
        raise ModelError("arrows do not compose")
    return ExtensionArrow(
        first.source,
        second.target,
        concat(x, second.alpha, first.alpha),
        concat(x, first.beta, second.beta),
    )
