"""Directed topological complexity of a complex.

diTC is the minimal number of parts in a partition of the reachable
pairs such that each part admits a choice of one dihomotopy class per
pair, compatible with every elementary extension arrow internal to the
part.  A single part exists exactly when every pair has a unique class.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubecore import PrecubicalSet, gamma
from .errors import BudgetExceeded
from .traceclass import arrow_action, elementary_arrows, extend_class, trace_classes

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


def _arrow_table(x: PrecubicalSet, cap=None):
    """Per pair: class count and internal-constraint arrows
    (target pair, action tuple)."""
    pairs = tuple(gamma(x))
    counts = {}
    arrows = {}
    for pair in pairs:
        counts[pair] = trace_classes(x, *pair, cap=cap).count
        arrows[pair] = [
            (ar.target, arrow_action(x, ar, cap=cap))
            for ar in elementary_arrows(x, pair)
        ]
    return pairs, counts, arrows


def _feasible_choice(part, counts, arrows):
    """A compatible class choice on a pair set, or None.

    Constraints are functional (source class determines target class), so
    propagate choices forward and backtrack over free pairs.
    """
    part = set(part)
    choice = {}

    def propagate(stack):
        while stack:
            p = stack.pop()
            for q, action in arrows[p]:
                if q in part:
                    forced = action[choice[p]]
                    if q in choice:
                        if choice[q] != forced:
                            return False
                    else:
                        choice[q] = forced
                        stack.append(q)
        return True

    order = sorted(part, key=lambda p: (-counts[p], p))

    def assign(i):
        while i < len(order) and order[i] in choice:
            i += 1
        if i == len(order):
            return True
        p = order[i]
        saved = dict(choice)
        for c in range(counts[p]):
            choice[p] = c
            if propagate([p]) and assign(i + 1):
                return True
            choice.clear()
            choice.update(saved)
        return False

    if assign(0):
        return dict(choice)
    return None


def verify_partition(x: PrecubicalSet, sp: SectionPartition, cap=None) -> bool:
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
            count = trace_classes(x, *pair, cap=cap).count
            if choice is None or not (0 <= choice < count):
                return False
            for ar in elementary_arrows(x, pair):
                if ar.target in part:
                    if extend_class(x, ar, choice, cap=cap) != sp.choices[ar.target]:
                        return False
    return True


def ditc_upper(x: PrecubicalSet, cap=None):
    """Greedy bound: repeatedly extract a maximal compatible pair set."""
    return _greedy(*_arrow_table(x, cap=cap))


def _greedy(pairs, counts, arrows):
    remaining = list(pairs)
    parts = []
    choices = {}
    while remaining:
        part = []
        deferred = []
        for p in remaining:
            if _feasible_choice(part + [p], counts, arrows) is not None:
                part.append(p)
            else:
                deferred.append(p)
        choice = _feasible_choice(part, counts, arrows)
        parts.append(frozenset(part))
        choices.update(choice)
        remaining = deferred
    return len(parts), SectionPartition(tuple(parts), choices)


def ditc_exact(x: PrecubicalSet, cap=DEFAULT_PART_CAP, path_cap=None):
    """Minimal partition size with a verifying witness.

    Branch and bound over pairs in most-constrained-first order, with the
    greedy bound as incumbent.  Raises BudgetExceeded when the search
    space or the part cap is exhausted before optimality is proved.
    """
    n_pairs = len(gamma(x))
    if n_pairs > GAMMA_CAP:
        raise BudgetExceeded(
            f"{n_pairs} reachable pairs exceed the exact-search cap {GAMMA_CAP}")
    pairs, counts, arrows = _arrow_table(x, cap=path_cap)
    n_upper, sp_upper = _greedy(pairs, counts, arrows)
    if n_upper == 1:
        return 1, sp_upper
    order = sorted(pairs, key=lambda p: (-counts[p], p))

    best = [n_upper, sp_upper]
    assignment = {}

    def feasible(part_id):
        part = [p for p, k in assignment.items() if k == part_id]
        return _feasible_choice(part, counts, arrows) is not None

    def search(i, used):
        if used >= best[0]:
            return
        if i == len(order):
            parts = []
            choices = {}
            for k in range(used):
                members = frozenset(p for p, j in assignment.items() if j == k)
                parts.append(members)
                choices.update(_feasible_choice(members, counts, arrows))
            best[0] = used
            best[1] = SectionPartition(tuple(parts), choices)
            return
        p = order[i]
        for k in range(min(used + 1, cap)):
            assignment[p] = k
            if feasible(k):
                search(i + 1, max(used, k + 1))
            del assignment[p]

    search(0, 0)
    if best[0] > cap:
        raise BudgetExceeded(
            f"no partition within the part cap {cap}; best bound {best[0]}")
    return best[0], best[1]
