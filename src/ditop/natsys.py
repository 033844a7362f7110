"""Natural class systems and their bisimilarity.

The natural class system of a complex assigns to every reachable pair
its set of dihomotopy classes and records how elementary extensions act
on class ids.  Two systems are bisimilar when a relation of object
triples with value bijections transfers every elementary extension in
both directions with commuting squares: an arrow of one object is
matched by an arrow of the other, or by the other staying put with the
identity.  That is one elementary arrow, not any extension, so the
answer is sensitive to path length and is not yet the paper's relation:
the 4x4 grid with box ((1,2),(1,2)) and its last axis-0 layer collapsed
have a dihomotopy equivalence that ``check_dihomotopy_equivalence``
accepts, yet they are not bisimilar here, at left object (24, 24).

``build_natural_system`` reads counts and actions off the class tables
of ``traceclass.whole_tables``, which glues only the pairs that its
one-class bitsets leave open.  A source whose pairs are all certified
has no table unless a prefix row needs one: its counts are 1 and its
suffix actions (0,).  A prefix row into a certified pair is the
constant 0 and is not stored.  Each distinct action tuple is stored
once.

``bisimilar`` decides this on the disjoint union S + T.  A bisimulation
of S + T with itself restricted to S x T is a bisimulation between S
and T, and one between S and T is one of S + T, so the greatest
bisimulation between S and T is the restriction of the greatest one on
S + T.  That one is a groupoid: the identities form a bisimulation,
bisimulations compose (an arrow matched by staying put stays put again
on the far side) and invert, so the greatest one holds all of them.  It
is therefore an equivalence on objects, each block has a representative
r with a group Aut(r) of class bijections, each member u has one
bijection phi_u from its classes to r's, and the bijections between
members u and v are exactly phi_v^-1 . Aut(r) . phi_u.  It is computed
in that form, never as a table of object pairs:

* The first blocks are the colours of a partition refinement that
  ignores actions (``_refinement_colors``), each with the full symmetric
  group; every bisimilar pair has one colour.
* Checking a block keeps those bijections of each member that transfer
  every arrow against the current groupoid.  The result is again a
  groupoid (the same composition argument), so it is again blocks with
  groups; a block is checked again only when a block its members' moves
  reach has changed, found from predecessor lists made in one pass over
  S + T and shared with the colouring.  A check memoises what a member
  keeps on its coset and the moves of it and of the representative, for
  that check only: the groups those moves reach change between checks.
* A block with objects on one side only becomes singletons with the
  identity group.  This is exact.  In the greatest bisimulation, an
  object with a partner on the other side has each arrow matched by a
  move of that partner, which stays on the other side, so its arrow
  targets have partners too.  The pairs of its blocks with both sides,
  plus the identities, therefore form a bisimulation; it lies below
  every groupoid the refinement passes through, splits included, so the
  restriction to S x T comes out unchanged.  The split objects are
  uncovered anyway, and no group is built for them, so the bijection
  cap only refuses objects with a same-colour partner.

The relation's size is the sum over blocks of |B & S| * |B & T|; its
triples are listed only when read.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .cubecore import PrecubicalSet, gamma
from .errors import BudgetExceeded
from .traceclass import _ONE, whole_tables

BIJECTION_CAP = 6


@dataclass(frozen=True)
class NaturalClassSystem:
    """Objects are reachable pairs; ``counts[i]`` is the class count of
    object ``i``; ``arrows[i]`` lists ``(target index, action)`` with the
    action tabulated as a tuple over source class ids."""

    objects: tuple
    counts: tuple
    arrows: tuple

    @property
    def n_objects(self):
        return len(self.objects)


@dataclass(frozen=True)
class BisimRelation:
    """The greatest bisimulation between S and T: ``size`` object pairs,
    and ``triples`` (object of S, class bijection, object of T) in pair
    order with the least bijection of each pair, built when first read."""

    size: int
    _build: Callable[[], tuple] = field(repr=False, compare=False)

    @functools.cached_property
    def triples(self):
        return self._build()


@dataclass(frozen=True)
class BisimCounterexample:
    """An object eliminated from coverage, with the side it lives on.

    Among all uncovered objects the one with the fewest outgoing arrows
    (ties broken by object order) is reported: the failure with the
    fewest obligations is the sharpest witness.
    """

    side: str  # "left" or "right"
    obj: tuple


def build_natural_system(x: PrecubicalSet) -> NaturalClassSystem:
    """The natural class system of x.  Objects are the reachable pairs in
    ``gamma`` order; the arrows of (a, b) follow ``elementary_arrows``:
    to (s, b) per in-edge s -> a, then to (a, t) per out-edge b -> t.
    A refusal names (a, w) for the least source a with a vertex over the
    path cap, and the first such vertex w in ``x._order``."""
    objects = gamma(x).pairs
    tables = whole_tables(x)
    index = [{} for _ in tables]  # a -> b -> the index of object (a, b)
    for i, (a, b) in enumerate(objects):
        index[a][b] = i
    out, edges = x._out, x.edges
    share = {}.setdefault  # each distinct action is stored once
    counts, arrows = [], []
    for a, (t, in_rows) in enumerate(tables):
        # without a table, every pair from a has one class and every
        # edge from its reach the action (0,)
        mine, count, ext = index[a], t.count if t else {}, t.ext if t else {}
        ins = [(index[s], rows) for s, rows in in_rows]
        for b in mine:  # in gamma order
            k = count.get(b, 1)
            counts.append(k)
            arr = []
            for theirs, rows in ins:
                act = rows.get(b) or (0,) * k
                arr.append((theirs[b], share(act, act)))
            for e in out[b]:
                act = ext.get(e, _ONE)
                arr.append((mine[edges[e][1]], share(act, act)))
            arrows.append(tuple(arr))
    return NaturalClassSystem(objects, tuple(counts), tuple(arrows))


def trivial_system() -> NaturalClassSystem:
    """One object, one class, no non-identity arrows."""
    return NaturalClassSystem((("*", "*"),), (1,), ((),))


def _refinement_colors(counts, preds):
    """Joint partition refinement ignoring actions: a sound pre-filter.

    Takes the class counts of one system (two systems side by side are
    one system) and, per object, the objects with an arrow into it, and
    returns its colour classes, each a sorted list of objects.  Objects
    of different colours cannot be bisimilar; the converse is settled by
    the exact refinement afterwards.  The object itself counts among its
    successors: arrows may be matched by staying put, so refinement must
    run on the reflexive closure to stay sound.  The colouring is the
    coarsest stable one below the class counts: same-coloured objects
    have equal reflexive successor colour sets, which ``bisimilar``
    relies on.

    Each class is used as a splitter once after it is made or shrinks:
    every other class splits into its objects with an arrow into the
    splitter and the rest.  A class's own objects reach it by staying
    put, so it never splits itself.  Only the classes a split touches
    are visited again, where rounds over every object would take as many
    rounds as the longest chain of splits.
    """
    by_count = {}
    for u, k in enumerate(counts):
        by_count.setdefault(k, []).append(u)
    classes = list(by_count.values())
    color = [0] * len(counts)
    for c, members in enumerate(classes):
        for u in members:
            color[u] = c
    queue = list(range(len(classes)))
    queued = [True] * len(classes)
    while queue:
        c = queue.pop()
        queued[c] = False
        hit = {}
        for v in classes[c]:
            for u in preds[v]:
                if color[u] != c:
                    hit.setdefault(color[u], set()).add(u)
        for b, marked in hit.items():
            if len(marked) == len(classes[b]):
                continue
            nb = len(classes)
            classes.append([u for u in classes[b] if u in marked])
            classes[b] = [u for u in classes[b] if u not in marked]
            for u in classes[nb]:
                color[u] = nb
            queue.append(nb)
            queued.append(True)
            if not queued[b]:
                queued[b] = True
                queue.append(b)
    return classes


@functools.cache
def _identity(k):
    return tuple(range(k))


@functools.cache
def _symmetric(k):
    return frozenset(itertools.permutations(range(k)))


def _bijections(k):
    if k > BIJECTION_CAP:
        raise BudgetExceeded(
            f"class set of size {k} exceeds the bijection cap {BIJECTION_CAP}"
        )
    return _symmetric(k)


def _compose(p, q):
    """p . q on class ids: ``q`` first, then ``p``."""
    return tuple([p[c] for c in q])


def _inverse(p):
    inv = [0] * len(p)
    for c, d in enumerate(p):
        inv[d] = c
    return tuple(inv)


def bisimilar(s: NaturalClassSystem, t: NaturalClassSystem):
    """Decide bisimilarity; returns (verdict, BisimRelation or
    BisimCounterexample).

    The greatest bisimulation on S + T is refined as a groupoid of blocks
    (see the module docstring), with a worklist: a block is checked when
    it may fail, and checked again only when a block that its members'
    moves reach has changed.
    """
    n_s = s.n_objects
    counts = s.counts + t.counts
    arrows = s.arrows + t.arrows  # T's targets are read with the offset n_s
    n = len(counts)
    phi = [_identity(k) for k in counts]
    # who reaches whom on S + T, for the colours and for the re-checks
    preds = [[] for _ in counts]
    for offset, system in ((0, s), (n_s, t)):
        for u, arr in enumerate(system.arrows, offset):
            for v, _ in arr:
                preds[offset + v].append(u)

    # the colours with objects on both sides are the first blocks; every
    # other object is a singleton with the identity group
    block = [0] * n
    members = []
    aut = []
    for group in _refinement_colors(counts, preds):
        for part in [group] if group[0] < n_s <= group[-1] else [[u] for u in group]:
            for u in part:
                block[u] = len(members)
            members.append(part)
            aut.append(frozenset((phi[part[0]],)) if len(part) == 1 else None)
    # full groups in left object order: the cap is hit at the first left
    # object with a same-colour object on the right
    for u in range(n_s):
        if aut[block[u]] is None:
            aut[block[u]] = _bijections(counts[u])

    # A block needs checking when its objects or their arrow targets have
    # two or more classes.  Any other block is stable: _refinement_colors
    # returns a stable colouring, so its members have equal reflexive
    # successor colour sets, every arrow of one meets a same-coloured move
    # of another, and with one class on every side any bijection commutes.
    # (Those colours have both sides too, as members on both sides reach
    # them, so none was split into singletons.)  These are colour
    # properties, so the first member decides, and it is on the left.
    queue = [
        b for b, m in enumerate(members)
        if len(m) > 1 and (counts[m[0]] > 1 or any(counts[v] > 1 for v, _ in arrows[m[0]]))
    ]
    if queue:
        _refine(queue, n_s, counts, arrows, preds, block, members, aut, phi)

    for side, system, offset in (("left", s, 0), ("right", t, n_s)):
        missing = [o for o in range(system.n_objects)
                   if len(members[block[offset + o]]) == 1]
        if missing:
            o = min(missing, key=lambda o: (len(system.arrows[o]), system.objects[o]))
            return False, BisimCounterexample(side, system.objects[o])
    blocks = [(m, bisect.bisect_left(m, n_s), aut[b])
              for b, m in enumerate(members) if len(m) > 1]

    def triples():
        out = []
        for m, split, group in blocks:
            invs = [(v, _inverse(phi[v])) for v in m[split:]]
            for u in m[:split]:
                coset = [_compose(g, phi[u]) for g in group]
                for v, inv in invs:
                    out.append((u, v, min(_compose(inv, c) for c in coset)))
        out.sort()
        return tuple((s.objects[u], bij, t.objects[v - n_s]) for u, v, bij in out)

    size = sum(split * (len(m) - split) for m, split, _ in blocks)
    return True, BisimRelation(size, triples)


def _refine(queue, n_s, counts, arrows, preds, block, members, aut, phi):
    """Refine the groupoid (block, members, aut, phi) in place to the
    greatest bisimulation below it, checking the blocks in ``queue`` and
    then every block that a change may affect: the new blocks and those
    of their members' predecessors ``preds``.

    A block's first member r is its representative, with phi[r] the
    identity.  A member u passes with the bijections b in aut . phi[u]
    that transfer every arrow of u against the moves of r and every arrow
    of r against the moves of u.  Those form a coset of the new group,
    which is what r keeps for itself, and phi[u] becomes its least
    element.  The members that keep nothing are checked in the same way
    against the first of them, and so on.  A part with objects on one
    side only becomes singletons.  Arrows of T in ``arrows`` name their
    targets without the offset ``n_s``.
    """
    split = {}  # checked object -> its one-class targets and multi-class arrows
    groups = {}  # one object per distinct group keeps the memo keys cheap
    commuting = {}
    cosets = {}
    memo = {}  # per check: (coset, moves of u, moves of r) -> kept

    def transfers(group, act, act2):
        """The bijections b with g . act == act2 . b for some g in
        ``group``, memoised on the values."""
        key = (group, act, act2)
        good = commuting.get(key)
        if good is None:
            images = {_compose(g, act) for g in group}
            good = commuting[key] = frozenset(
                b for b in _symmetric(len(act)) if _compose(act2, b) in images)
        return good

    def moves(u):
        """u's moves as read from the blocks: the blocks of the one-class
        objects they reach, the set of its arrows into multi-class objects
        as (block, phi . act), which is act where phi is the identity, and
        its own block and phi if it has several classes.  Sets, so that
        members whose arrows come in another order share a memo entry."""
        got = split.get(u)
        if got is None:
            off = n_s if u >= n_s else 0
            got = split[u] = ([off + v for v, _ in arrows[u] if counts[off + v] == 1],
                              [(off + v, act) for v, act in arrows[u] if counts[off + v] > 1])
        one, many = got
        out = frozenset([(block[v], act if phi[v] == _identity(counts[v]) else _compose(phi[v], act))
                         for v, act in many])
        if counts[u] > 1:
            return frozenset([block[v] for v in one]), out, (block[u], phi[u])
        return frozenset([block[u]] + [block[v] for v in one]), out, None

    def by_block(mu):
        ones, out, own = mu
        found = {own[0]: [own[1]]} if own else {}
        for b, act in out:
            found.setdefault(b, []).append(act)
        return found

    def kept(cand, mu, mr):
        """The bijections of ``cand`` that transfer every arrow of u
        against the moves of r and every arrow of r against the moves of
        u, given the ``moves`` of u and r as mu and mr."""
        # an arrow into a one-class object is matched by any move of the
        # other object into its block, whatever the bijection
        if mu[0] != mr[0]:
            return ()
        keep = cand
        # the arrows of u against the moves of r, then the other way round:
        # ``transfers`` takes u's action first
        for arrows, against, swap in ((mu[1], by_block(mr), False), (mr[1], by_block(mu), True)):
            for b, act in arrows:
                good = set()
                for act2 in against.get(b, ()):
                    good |= transfers(aut[b], act2, act) if swap else transfers(aut[b], act, act2)
                keep = keep & good
                if not keep:
                    return keep
        return keep

    queued = set(queue)
    while queue:
        b = queue.pop()
        queued.discard(b)
        old = members[b]
        group = aut[b]
        seen = {u: moves(u) for u in old}
        memo.clear()  # kept reads aut, which may have changed since the last check
        parts = []
        rest = old
        while rest:
            r = rest[0]
            inv = _inverse(phi[r])
            passed, failed = [], []
            for u in rest:
                key = (group, inv, phi[u])
                cand = cosets.get(key)
                if cand is None:
                    cand = cosets[key] = frozenset(
                        _compose(_compose(inv, g), phi[u]) for g in group)
                key = (cand, seen[u], seen[r])
                keep = memo.get(key)
                if keep is None:
                    keep = memo[key] = kept(cand, seen[u], seen[r])
                if keep:
                    passed.append((u, keep))
                else:
                    failed.append(u)
            parts.append(passed)
            rest = failed
        if len(parts) == 1 and all(len(keep) == len(group) for _, keep in parts[0]):
            continue
        new = []  # (members, group, phi of each member)
        for passed in parts:
            us = [u for u, _ in passed]
            if us[0] < n_s <= us[-1]:
                new.append((us, passed[0][1], [min(keep) for _, keep in passed]))
            else:
                for u in us:
                    ident = _identity(counts[u])
                    new.append(([u], frozenset((ident,)), [ident]))
        for i, (us, new_group, new_phi) in enumerate(new):
            if i == 0:
                nb = b
            else:
                nb = len(members)
                members.append(None)
                aut.append(None)
            members[nb] = us
            aut[nb] = groups.setdefault(new_group, new_group)
            for u, p in zip(us, new_phi):
                block[u] = nb
                phi[u] = p
        for u in old:
            for p in (u, *preds[u]):
                pb = block[p]
                if len(members[pb]) > 1 and pb not in queued:
                    queued.add(pb)
                    queue.append(pb)


def is_weakly_dicontractible(x: PrecubicalSet) -> bool:
    """Natural class system bisimilar to the trivial one-object system.

    It does not see connectedness: two isolated vertices are weakly
    dicontractible, where ``zhom.is_dicontractible`` answers no.  On 134
    disconnected random grids the two differed on 124."""
    verdict, _ = bisimilar(build_natural_system(x), trivial_system())
    return verdict
