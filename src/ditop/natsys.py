"""Natural class systems and their bisimilarity.

The natural class system of a complex assigns to every reachable pair
its set of dihomotopy classes and records how elementary extensions act
on class ids.  Two systems are bisimilar when a relation of object
triples with value bijections transfers every elementary extension in
both directions with commuting squares.

The decision procedure is a greatest fixed point over candidates: every
pair of objects with the same colour under a joint partition refinement
that ignores actions, with every bijection of their classes (one shared
set per class count).  A worklist checks only the hot pairs, where an
object or one of its arrow targets has two or more classes; a stable
colouring already guarantees every other pair.  An arrow into a
one-class object is matched by a set test on live partners.  When a
pair loses bijections, only the pairs whose moves reach it are checked
again, found through reverse-arrow indexes on both sides.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cubecore import PrecubicalSet, gamma
from .errors import BudgetExceeded
from .traceclass import elementary_actions, trace_classes

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
    """Triples (object of S, class bijection, object of T)."""

    triples: tuple


@dataclass(frozen=True)
class BisimCounterexample:
    """An object eliminated from coverage, with the side it lives on.

    Among all uncovered objects the one with the fewest outgoing arrows
    (ties broken by object order) is reported: the failure with the
    fewest obligations is the sharpest witness.
    """

    side: str  # "left" or "right"
    obj: tuple


def build_natural_system(x: PrecubicalSet, cap=None) -> NaturalClassSystem:
    objects = tuple(gamma(x))
    index = {pair: i for i, pair in enumerate(objects)}
    counts = []
    arrows = []
    for pair in objects:
        counts.append(trace_classes(x, *pair, cap=cap).count)
        arrows.append(tuple((index[t], act) for t, act in elementary_actions(x, pair, cap)))
    return NaturalClassSystem(objects, tuple(counts), tuple(arrows))


def trivial_system() -> NaturalClassSystem:
    """One object, one class, no non-identity arrows."""
    return NaturalClassSystem((("*", "*"),), (1,), ((),))


def _refinement_colors(systems):
    """Joint partition refinement ignoring actions: a sound pre-filter.

    Objects that end up with different colors cannot be bisimilar; the
    converse is settled by the exact fixed point afterwards.  The object
    itself counts among its successors: arrows may be matched by staying
    put, so refinement must run on the reflexive closure to stay sound.
    The colouring returned is stable: same-coloured objects have equal
    reflexive successor colour sets, which ``bisimilar`` relies on.
    """
    all_objs = [(si, oi) for si, s in enumerate(systems) for oi in range(s.n_objects)]
    color = {(si, oi): systems[si].counts[oi] for si, oi in all_objs}
    while True:
        palette = {}
        nxt = {}
        for si, oi in all_objs:
            succ = frozenset(color[(si, ti)] for ti, _ in systems[si].arrows[oi])
            succ |= {color[(si, oi)]}
            key = (color[(si, oi)], succ)
            nxt[(si, oi)] = palette.setdefault(key, len(palette))
        if len(set(nxt.values())) == len(set(color.values())):
            return nxt
        color = nxt


def _bijections(k):
    if k > BIJECTION_CAP:
        raise BudgetExceeded(
            f"class set of size {k} exceeds the bijection cap {BIJECTION_CAP}"
        )
    return frozenset(itertools.permutations(range(k)))


class _Side:
    """Per-object tables of one system for the fixed point: its moves
    (every arrow, plus staying put with the identity), the objects those
    moves reach, the objects whose moves reach it, and its arrows split
    by whether the target has one class or more."""

    def __init__(self, system: NaturalClassSystem):
        counts = system.counts
        self.moves = [
            arrows + ((o, tuple(range(counts[o]))),)
            for o, arrows in enumerate(system.arrows)
        ]
        self.reach = [frozenset(o for o, _ in moves) for moves in self.moves]
        self.back = [set() for _ in counts]
        for o, reach in enumerate(self.reach):
            for target in reach:
                self.back[target].add(o)
        self.one = [[o for o, _ in arrows if counts[o] == 1] for arrows in system.arrows]
        self.many = [[(o, act) for o, act in arrows if counts[o] > 1]
                     for arrows in system.arrows]
        self.hot = [counts[o] > 1 or bool(many) for o, many in enumerate(self.many)]
        self.partners = [set() for _ in counts]  # live partners on the other side


def bisimilar(s: NaturalClassSystem, t: NaturalClassSystem):
    """Decide bisimilarity; returns (verdict, BisimRelation or
    BisimCounterexample).

    The relation is the greatest fixed point below the candidates, every
    same-colour object pair with every bijection of its classes, found
    with a worklist: a pair is checked when it may fail and checked again
    only when a pair its moves reach has lost a bijection.
    """
    color = _refinement_colors([s, t])
    left, right = _Side(s), _Side(t)

    # candidates per same-colour object pair (colours refine class counts),
    # sharing one bijection set per class count
    cands = {}
    bijections = {}
    by_color_t = {}
    for oj in range(t.n_objects):
        by_color_t.setdefault(color[(1, oj)], []).append(oj)
    for oi in range(s.n_objects):
        k = s.counts[oi]
        for oj in by_color_t.get(color[(0, oi)], ()):
            bijs = bijections.get(k)
            if bijs is None:
                bijs = bijections[k] = _bijections(k)
            cands[(oi, oj)] = bijs
            left.partners[oi].add(oj)
            right.partners[oj].add(oi)

    commuting = {}

    def transfers(live, act, act2):
        """The bijections bij with bij2 . act == act2 . bij for some bij2
        in ``live``, memoised on the values."""
        key = (live, act, act2)
        good = commuting.get(key)
        if good is None:
            images = {tuple([bij2[a] for a in act]) for bij2 in live}
            good = commuting[key] = frozenset(
                bij for bij in bijections[len(act)]
                if tuple([act2[b] for b in bij]) in images)
        return good

    def matched(moves):
        """The bijections that transfer one arrow through some of its
        candidate moves, given as (pair, act, act2)."""
        good = set()
        for pair, act, act2 in moves:
            live = cands.get(pair)
            if live:
                good |= transfers(live, act, act2)
        return good

    def surviving(oi, oj, bijs):
        """The bijections of (oi, oj) that transfer every arrow both ways
        against the current candidates."""
        # an arrow into a one-class object is matched by any live partner
        # of that object among the other side's move targets, whatever the
        # bijection
        if (any(left.partners[ti].isdisjoint(right.reach[oj]) for ti in left.one[oi])
                or any(right.partners[tj].isdisjoint(left.reach[oi]) for tj in right.one[oj])):
            return ()
        # otherwise bij transfers an arrow when some move of the other
        # object reaches a live pair whose transfers hold bij
        keep = bijs
        for ti, act in left.many[oi]:
            keep = keep & matched(((ti, tj), act, act2) for tj, act2 in right.moves[oj])
        for tj, act2 in right.many[oj]:
            keep = keep & matched(((ti, tj), act, act2) for ti, act in left.moves[oi])
        return keep

    # Only hot pairs are seeded: those where an object of the pair or one
    # of its arrow targets has two or more classes.  Any other pair passes
    # against the initial candidates: _refinement_colors returns a stable
    # colouring, so same-coloured objects have equal reflexive successor
    # colour sets, every arrow of one object meets a same-coloured move of
    # the other, and with one class on every side any bijection commutes.
    # Such a pair can only fail once a pair it reads shrinks, which queues it.
    queue = [pair for pair in cands if left.hot[pair[0]] or right.hot[pair[1]]]
    queued = set(queue)
    while queue:
        pair = queue.pop()
        queued.discard(pair)
        bijs = cands[pair]
        keep = surviving(*pair, bijs)
        if len(keep) == len(bijs):
            continue
        oi, oj = pair
        if keep:
            cands[pair] = keep
        else:
            del cands[pair]
            left.partners[oi].discard(oj)
            right.partners[oj].discard(oi)
        # the fixed point is unique, so re-checking the pairs whose moves
        # reach this one, in any order, gives the same result
        for pi in left.back[oi]:
            for pj in right.back[oj]:
                other = (pi, pj)
                if other in cands and other not in queued:
                    queued.add(other)
                    queue.append(other)

    missing_s = [oi for oi in range(s.n_objects) if not left.partners[oi]]
    if missing_s:
        oi = min(missing_s, key=lambda o: (len(s.arrows[o]), s.objects[o]))
        return False, BisimCounterexample("left", s.objects[oi])
    missing_t = [oj for oj in range(t.n_objects) if not right.partners[oj]]
    if missing_t:
        oj = min(missing_t, key=lambda o: (len(t.arrows[o]), t.objects[o]))
        return False, BisimCounterexample("right", t.objects[oj])
    triples = tuple(
        (s.objects[oi], min(bijs), t.objects[oj])
        for (oi, oj), bijs in sorted(cands.items())
    )
    return True, BisimRelation(triples)


def is_weakly_dicontractible(x: PrecubicalSet, cap=None) -> bool:
    """Natural class system bisimilar to the trivial one-object system."""
    verdict, _ = bisimilar(build_natural_system(x, cap=cap), trivial_system())
    return verdict
