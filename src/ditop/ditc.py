"""Directed topological complexity of a complex.

diTC is the minimal number of parts in a partition of the reachable
pairs such that each part admits a choice of one dihomotopy class per
pair, compatible with every elementary extension arrow internal to the
part.  A single part exists exactly when every pair has a unique class.

The search reads ``build_natural_system`` as it stands: parts hold
object indices, in ``gamma`` order, and pairs come back only in the
returned ``SectionPartition``.  Only the multi-class core of a part is
ever searched.  A pair with one class always takes class 0, and an arrow
into it always holds.  Within a part, each arrow from a one-class pair
into a multi-class pair just fixes the class of its target, so whether a
part is feasible is a question about its multi-class pairs alone, under
those fixes.  A part under construction keeps a witness choice on its
core.  A new pair that the witness already admits joins at once; the
core is solved again, with an undo trail, only when the witness does not
extend.  The solver decides pairs most classes first, then by pair,
trying the lowest class first, so the choice it returns is the least
compatible one in that order, whichever way the part was found.

The greedy bound is exact when it is at most 2.  A subset of a
feasible part is feasible, so greedy takes every pair into its first
part when the whole set is one feasible part; a greedy value of 2 or
more therefore proves that one part is not enough.  Branch and bound
runs only when greedy needs 3 or more parts, over the same incremental
parts, and stops as soon as it finds 2.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubecore import PrecubicalSet, gamma
from .errors import BudgetExceeded
from .natsys import build_natural_system
from .traceclass import elementary_arrows, extend_class, trace_classes

DEFAULT_PART_CAP = 6
GAMMA_CAP = 2500


@dataclass(frozen=True)
class SectionPartition:
    """Parts of the reachable-pair set with one chosen class per pair."""

    parts: tuple  # tuple of frozensets of pairs
    choices: dict  # pair -> class id

    @property
    def n(self):
        return len(self.parts)


def _arrow_table(x: PrecubicalSet):
    """Pairs, class counts, and per object the arrows into multi-class
    objects by source and by target, the latter with the preimages of
    each class; an arrow into a one-class object always holds."""
    system = build_natural_system(x)
    counts = system.counts
    succ = [[] for _ in counts]
    pred = [[] for _ in counts]
    preimages = {}
    for p, out in enumerate(system.arrows):
        for q, action in out:
            if counts[q] > 1:
                if action not in preimages:
                    preimages[action] = {}
                    for c, d in enumerate(action):
                        preimages[action].setdefault(d, []).append(c)
                succ[p].append((q, action))
                pred[q].append((p, action, preimages[action]))
    return system.objects, counts, succ, pred


class _Part:
    """A feasible part under construction, with a witness class for each
    of its multi-class members, all object indices.  ``add`` takes an
    object only when the part stays feasible.  ``remove`` keeps the
    witness of the other members: a choice compatible on a part is
    compatible on any subset of it."""

    def __init__(self, counts, succ, pred):
        self.counts, self.succ, self.pred = counts, succ, pred
        self.members = set()
        self.witness = {}

    def _extension(self, p):
        """A class for p, not yet a member, that the witness admits, or None."""
        members, witness = self.members, self.witness
        if self.counts[p] == 1:
            candidates = (0,)
        else:
            forced = {action[witness.get(r, 0)] for r, action, _ in self.pred[p] if r in members}
            if len(forced) > 1:
                return None
            candidates = forced or range(self.counts[p])
        for c in candidates:
            if all(witness[q] == action[c] for q, action in self.succ[p] if q in members):
                return c
        return None

    def add(self, p) -> bool:
        c = self._extension(p)
        self.members.add(p)
        if c is not None:
            if self.counts[p] > 1:
                self.witness[p] = c
            return True
        solved = self.solve()
        if solved is None:
            self.members.discard(p)
            return False
        self.witness = solved
        return True

    def remove(self, p):
        self.members.discard(p)
        self.witness.pop(p, None)

    def solve(self):
        """The least compatible choice on the multi-class members, or None.

        Assigning a class propagates along the arrows both ways: forward
        it fixes each target, backward it fixes a source whose action
        has one preimage of that class, and fails on one with none."""
        counts, succ, pred, members = self.counts, self.succ, self.pred, self.members
        core = [p for p in members if counts[p] > 1]
        choice = {}
        trail = []

        def assign(p, c):
            stack = [(p, c)]
            while stack:
                p, c = stack.pop()
                if p in choice:
                    if choice[p] != c:
                        return False
                    continue
                choice[p] = c
                trail.append(p)
                stack.extend((q, action[c]) for q, action in succ[p] if q in members)
                for r, _, preimage in pred[p]:
                    if r in members and r not in choice and counts[r] > 1:
                        sources = preimage.get(c, ())
                        if not sources:
                            return False
                        if len(sources) == 1:
                            stack.append((r, sources[0]))
            return True

        def undo(mark):
            while len(trail) > mark:
                del choice[trail.pop()]

        for q in core:
            for r, action, _ in pred[q]:
                if counts[r] == 1 and r in members and not assign(q, action[0]):
                    return None
        order = sorted(core, key=lambda p: (-counts[p], p))
        frames = []  # (position, class tried, trail length before it)
        i = c = 0
        while True:
            while i < len(order) and order[i] in choice:
                i += 1
            if i == len(order):
                return choice
            p = order[i]
            mark = len(trail)
            while c < counts[p] and not assign(p, c):
                undo(mark)
                c += 1
            if c < counts[p]:
                frames.append((i, c, mark))
                i, c = i + 1, 0
                continue
            if not frames:
                return None
            i, c, mark = frames.pop()
            undo(mark)
            c += 1

    def choices(self):
        return {p: 0 for p in self.members} | self.solve()


def verify_partition(x: PrecubicalSet, sp: SectionPartition) -> bool:
    pairs = set(gamma(x))
    seen = set()
    for part in sp.parts:
        if part & seen:
            return False
        seen |= part
    if seen != pairs:
        return False
    for part in sp.parts:
        for pair in part:
            choice = sp.choices.get(pair)
            count = trace_classes(x, *pair).count
            if choice is None or not (0 <= choice < count):
                return False
            for ar in elementary_arrows(x, pair):
                # a target without a choice fails here or at its own turn
                if ar.target in part and extend_class(x, ar, choice) != sp.choices.get(ar.target):
                    return False
    return True


def _partition(pairs, parts):
    choices = {pairs[p]: c for part in parts for p, c in part.choices().items()}
    return SectionPartition(
        tuple(frozenset(pairs[p] for p in part.members) for part in parts), choices)


def ditc_upper(x: PrecubicalSet):
    """Greedy bound: repeatedly extract a maximal compatible pair set."""
    return _greedy(*_arrow_table(x))


def _greedy(pairs, counts, succ, pred):
    remaining = range(len(pairs))
    parts = []
    while remaining:
        part = _Part(counts, succ, pred)
        deferred = []
        for p in remaining:
            if not part.add(p):
                deferred.append(p)
        parts.append(part)
        remaining = deferred
    return len(parts), _partition(pairs, parts)


def _branch_and_bound(pairs, counts, succ, pred, cap, best, witness):
    """Improve on an incumbent of 3 or more parts: assign pairs in
    most-constrained-first order to incremental parts, a pair's next
    part only after the search under its previous one is done."""
    order = sorted(range(len(pairs)), key=lambda p: (-counts[p], p))
    parts = [_Part(counts, succ, pred) for _ in range(min(cap, best))]
    placed = []  # part of order[j] for each placed j
    used = [0]  # parts in use after placing order[:j]
    k = 0  # next part to try for order[len(placed)]
    while best > 2:
        if used[-1] < best:
            if len(placed) == len(order):
                best, witness = used[-1], _partition(pairs, parts[:used[-1]])
            elif k < min(used[-1] + 1, cap):
                if parts[k].add(order[len(placed)]):
                    placed.append(k)
                    used.append(max(used[-1], k + 1))
                    k = 0
                else:
                    k += 1
                continue
        if not placed:
            break
        k = placed.pop()
        used.pop()
        parts[k].remove(order[len(placed)])
        k += 1
    return best, witness


def ditc_exact(x: PrecubicalSet):
    """Minimal partition size with a verifying witness.

    A greedy value of at most 2 is returned as it stands; otherwise
    branch and bound starts from it.  Raises BudgetExceeded when the
    part cap ``DEFAULT_PART_CAP``, read at call time, is below the
    optimum it proves.
    """
    n_pairs = len(gamma(x))
    if n_pairs > GAMMA_CAP:
        raise BudgetExceeded(
            f"{n_pairs} reachable pairs exceed the exact-search cap {GAMMA_CAP}")
    table = _arrow_table(x)
    best, witness = _greedy(*table)
    cap = DEFAULT_PART_CAP
    if best > 2:
        best, witness = _branch_and_bound(*table, cap, best, witness)
    if best > cap:
        raise BudgetExceeded(
            f"no partition within the part cap {cap}; best bound {best}")
    return best, witness
