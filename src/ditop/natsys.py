"""Natural class systems and their bisimilarity.

The natural class system of a complex assigns to every reachable pair
its set of dihomotopy classes and records how elementary extensions act
on class ids.  Two systems are bisimilar when a relation of object
triples with value bijections transfers every elementary extension in
both directions with commuting squares; the decision procedure is a
greatest fixed point seeded by a plain partition-refinement pass.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cubecore import PrecubicalSet, gamma
from .errors import BudgetExceeded
from .traceclass import arrow_action, elementary_arrows, trace_classes

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
        arrows.append(tuple(
            (index[arrow.target], arrow_action(x, arrow, cap=cap))
            for arrow in elementary_arrows(x, pair)
        ))
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
    return [tuple(p) for p in itertools.permutations(range(k))]


def bisimilar(s: NaturalClassSystem, t: NaturalClassSystem):
    """Decide bisimilarity; returns (verdict, BisimRelation or
    BisimCounterexample)."""
    color = _refinement_colors([s, t])

    # candidate bijection sets per same-color object pair
    cands = {}
    by_color_t = {}
    for oj in range(t.n_objects):
        by_color_t.setdefault(color[(1, oj)], []).append(oj)
    for oi in range(s.n_objects):
        for oj in by_color_t.get(color[(0, oi)], ()):
            if s.counts[oi] == t.counts[oj]:
                cands[(oi, oj)] = set(_bijections(s.counts[oi]))

    def transfer_ok(oi, oj, bij):
        # every S-arrow matched by a T-arrow (or identity) and conversely
        t_moves = list(t.arrows[oj]) + [(oj, tuple(range(t.counts[oj])))]
        s_moves = list(s.arrows[oi]) + [(oi, tuple(range(s.counts[oi])))]
        for ti, act in s.arrows[oi]:
            if not any(
                self_match(ti, tj, act, act2, bij) for tj, act2 in t_moves
            ):
                return False
        for tj, act2 in t.arrows[oj]:
            if not any(
                self_match(ti, tj, act, act2, bij) for ti, act in s_moves
            ):
                return False
        return True

    def self_match(ti, tj, act, act2, bij):
        live = cands.get((ti, tj))
        if not live:
            return False
        for bij2 in live:
            if all(bij2[act[c]] == act2[bij[c]] for c in range(len(bij))):
                return True
        return False

    # greatest fixed point: prune bijections until stable
    changed = True
    while changed:
        changed = False
        for (oi, oj), bijs in list(cands.items()):
            keep = {b for b in bijs if transfer_ok(oi, oj, b)}
            if keep != bijs:
                changed = True
                if keep:
                    cands[(oi, oj)] = keep
                else:
                    del cands[(oi, oj)]

    covered_s = {oi for oi, _ in cands}
    covered_t = {oj for _, oj in cands}
    missing_s = [oi for oi in range(s.n_objects) if oi not in covered_s]
    if missing_s:
        oi = min(missing_s, key=lambda o: (len(s.arrows[o]), s.objects[o]))
        return False, BisimCounterexample("left", s.objects[oi])
    missing_t = [oj for oj in range(t.n_objects) if oj not in covered_t]
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
