"""Directed topological complexity of a complex.

diTC is the minimal number of parts in a partition of the reachable
pairs such that each part admits a choice of one dihomotopy class per
pair, compatible with every elementary extension arrow internal to the
part.  A single part exists exactly when every pair has a unique class.

The search reads ``build_natural_system`` as it stands: parts hold
object indices, in ``gamma`` order, and pairs come back only in the
returned ``SectionPartition``.  Only the multi-class core of a part is
ever searched.  A pair with one class always takes class 0, and an arrow
into it always holds, so whether a part is feasible is a question about
its multi-class pairs alone.

A part under construction keeps the closure of the classes that its
members force, which every compatible choice on the part must take:
- the target of an arrow from a one-class member takes the arrow's
  image of class 0;
- the target of an arrow from a forced member takes the image of the
  forced class;
- a multi-class source of an arrow into a forced member takes the
  preimage of the forced class, when that preimage is unique.
This is unit propagation, the cheap half of arc consistency (Mackworth,
"Consistency in networks of relations", 1977).  A new pair is pushed
into the closure first, with a trail.  If two classes meet at one
member, or a forced class has no preimage under an arrow from a
multi-class member, no compatible choice exists, since every class in
the closure is forced; the pair is refused and the trail undone, with
no search.  Otherwise the part's witness choice on its core is tried:
a new pair that the witness admits joins at once, and the core is
solved again from the closure only when the witness does not extend.
The solver decides pairs most classes first, then by pair, trying the
lowest class first, so the choice it returns is the least compatible
one in that order, whichever way the part was found.

The greedy bound is exact when it is at most 2.  A subset of a
feasible part is feasible, so greedy takes every pair into its first
part when the whole set is one feasible part; a greedy value of 2 or
more therefore proves that one part is not enough.  Branch and bound
runs only when greedy needs 3 or more parts, over the same incremental
parts, and stops as soon as it finds 2.

Two budgets, module constants read at each call, bound the work.
``DEFAULT_SYSTEM_BUDGET`` bounds the natural system, objects plus
arrows, counted off the reach bitsets before any class table is built.
``DEFAULT_NODE_BUDGET`` bounds the search nodes of one call: each class
the solver tries and each placement branch and bound tries.  Its
refusal names the stage, the part and the nodes done.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubecore import PrecubicalSet, gamma
from .errors import BudgetExceeded
from .natsys import build_natural_system

DEFAULT_PART_CAP = 6
DEFAULT_SYSTEM_BUDGET = 1_500_000
DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class SectionPartition:
    """Parts of the reachable-pair set with one chosen class per pair."""

    parts: tuple  # tuple of frozensets of pairs
    choices: dict  # pair -> class id

    @property
    def n(self):
        return len(self.parts)


def check_system_size(x: PrecubicalSet):
    """Refuse x when its natural system has more objects plus arrows
    than ``DEFAULT_SYSTEM_BUDGET``, read at call time.  The objects are
    the reachable pairs, and (a, b) has one arrow per in-edge of a and
    one per out-edge of b, so both counts read the reach bitsets and no
    class table is built."""
    bits = gamma(x).bits
    by_degree = {}  # out-degree -> the vertices with it, as a bitset
    for v in range(x.n_vertices):
        d = len(x.out_edges(v))
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    objects = arrows = 0
    for a, reach in enumerate(bits):
        k = reach.bit_count()
        objects += k
        arrows += k * len(x.in_edges(a)) + sum(
            d * (reach & vs).bit_count() for d, vs in by_degree.items())
    budget = DEFAULT_SYSTEM_BUDGET
    if objects + arrows > budget:
        raise BudgetExceeded(
            f"the natural system has {objects:,} objects and {arrows:,} arrows, "
            f"over the size budget {budget:,}")


def _arrow_table(x: PrecubicalSet):
    """Pairs, class counts, and per object the arrows into multi-class
    objects by source and by target, each with the preimages of every
    class under its action; an arrow into a one-class object always
    holds."""
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
                succ[p].append((q, action, preimages[action]))
                pred[q].append((p, action, preimages[action]))
    return system.objects, counts, succ, pred


def _propagate(stack, choice, trail, members, counts, succ, pred):
    """Give each (object, class) on the stack its class in ``choice``,
    appending the object to ``trail``, and follow the arrows among
    ``members`` both ways: forward each target takes its image, backward
    a multi-class source without a class takes the preimage of its
    target's class when it is unique.  False on a conflict: two classes
    for one object, or a class with no preimage."""
    while stack:
        p, c = stack.pop()
        if p in choice:
            if choice[p] != c:
                return False
            continue
        choice[p] = c
        trail.append(p)
        stack.extend((q, action[c]) for q, action, _ in succ[p] if q in members)
        for r, _, preimage in pred[p]:
            if r in members and r not in choice and counts[r] > 1:
                sources = preimage.get(c, ())
                if not sources:
                    return False
                if len(sources) == 1:
                    stack.append((r, sources[0]))
    return True


class _Nodes:
    """The search nodes of one call, against ``DEFAULT_NODE_BUDGET`` as it
    stood when the call began, with the stage and the part at work."""

    def __init__(self):
        self.budget, self.done = DEFAULT_NODE_BUDGET, 0
        self.stage, self.part = "greedy", 0

    def tick(self):
        if self.done == self.budget:
            raise BudgetExceeded(
                f"{self.stage} stopped at part {self.part} after {self.done:,} search "
                f"nodes, the node budget")
        self.done += 1


class _Part:
    """A feasible part under construction, all object indices: its
    members, the closure of the classes they force, and a witness class
    for each multi-class member.  ``add`` takes an object only when the
    part stays feasible.  ``remove`` keeps the witness of the other
    members, as a choice compatible on a part is compatible on any subset
    of it, and rebuilds the closure from the members."""

    def __init__(self, counts, succ, pred, nodes=None):
        self.counts, self.succ, self.pred = counts, succ, pred
        self.nodes = nodes or _Nodes()
        self.members = set()
        self.witness = {}
        self.forced = {}  # the closure: multi-class member -> its forced class

    def _push(self, stack, trail):
        return _propagate(stack, self.forced, trail, self.members,
                          self.counts, self.succ, self.pred)

    def _seeds(self, p):
        """The classes that the new member p, not yet in the closure, and
        the other members force on each other along the arrows between
        them, or None when a forced member's class has no preimage under
        p's arrow into it."""
        counts, members, forced = self.counts, self.members, self.forced
        if counts[p] == 1:
            return [(q, action[0]) for q, action, _ in self.succ[p] if q in members]
        seeds = [(p, action[forced.get(r, 0)]) for r, action, _ in self.pred[p]
                 if r in members and (counts[r] == 1 or r in forced)]
        for q, _, preimage in self.succ[p]:
            if q in forced:
                sources = preimage.get(forced[q], ())
                if not sources:
                    return None
                if len(sources) == 1:
                    seeds.append((p, sources[0]))
        return seeds

    def _admit(self, p):
        """Give the new member p a witness class: one that the witness of
        the other members admits, or else a solve of the whole core.
        False when no compatible choice exists."""
        members, witness = self.members, self.witness
        if self.counts[p] == 1:
            candidates = (0,)
        else:
            forced = {action[witness.get(r, 0)] for r, action, _ in self.pred[p] if r in members}
            candidates = () if len(forced) > 1 else forced or range(self.counts[p])
        for c in candidates:
            if all(witness[q] == action[c] for q, action, _ in self.succ[p] if q in members):
                if self.counts[p] > 1:
                    witness[p] = c
                return True
        solved = self.solve()
        if solved is not None:
            self.witness = solved
        return solved is not None

    def add(self, p) -> bool:
        self.members.add(p)
        if self.counts[p] == 1 and not self.succ[p]:  # p constrains nothing
            return True
        seeds, trail = self._seeds(p), []
        if seeds is not None and self._push(seeds, trail) and self._admit(p):
            return True
        self.members.discard(p)
        for q in trail:
            del self.forced[q]
        return False

    def remove(self, p):
        self.members.discard(p)
        self.witness.pop(p, None)
        self.forced = {}
        self._push([s for r in self.members if self.counts[r] == 1 for s in self._seeds(r)], [])

    def solve(self):
        """The least compatible choice on the multi-class members, or None.

        The search starts from the closure, and each class it tries is
        propagated by the closure's rules; every try is a search node."""
        counts, succ, pred, members, nodes = (
            self.counts, self.succ, self.pred, self.members, self.nodes)
        choice = dict(self.forced)
        trail = []

        def assign(p, c):
            nodes.tick()
            return _propagate([(p, c)], choice, trail, members, counts, succ, pred)

        def undo(mark):
            while len(trail) > mark:
                del choice[trail.pop()]

        order = sorted((p for p in members if counts[p] > 1 and p not in choice),
                       key=lambda p: (-counts[p], p))
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
    """Do the parts cover the reachable pairs disjointly, each pair with a
    class of its own, and does every arrow of the natural system inside a
    part send the choice at its source to the choice at its target?"""
    reach, seen = gamma(x), set()
    for part in sp.parts:
        if part & seen:
            return False
        seen |= part
    if len(seen) != len(reach) or not all(pair in reach for pair in seen):
        return False
    system = build_natural_system(x)
    objects = system.objects
    index = {pair: p for p, pair in enumerate(objects)}
    for part in sp.parts:
        for pair in part:
            p, choice = index[pair], sp.choices.get(pair)
            if choice is None or not (0 <= choice < system.counts[p]):
                return False
            for q, action in system.arrows[p]:
                # a target without a choice fails here or at its own turn
                if objects[q] in part and action[choice] != sp.choices.get(objects[q]):
                    return False
    return True


def _partition(pairs, parts):
    choices = {}
    for i, part in enumerate(parts):
        part.nodes.part = i
        choices.update((pairs[p], c) for p, c in part.choices().items())
    return SectionPartition(
        tuple(frozenset(pairs[p] for p in part.members) for part in parts), choices)


def ditc_upper(x: PrecubicalSet):
    """Greedy bound: repeatedly extract a maximal compatible pair set."""
    check_system_size(x)
    return _greedy(*_arrow_table(x), _Nodes())


def _greedy(pairs, counts, succ, pred, nodes):
    remaining = range(len(pairs))
    parts = []
    while remaining:
        nodes.part = len(parts)
        part = _Part(counts, succ, pred, nodes)
        deferred = []
        for p in remaining:
            if not part.add(p):
                deferred.append(p)
        parts.append(part)
        remaining = deferred
    return len(parts), _partition(pairs, parts)


def _branch_and_bound(pairs, counts, succ, pred, nodes, cap, best, witness):
    """Improve on an incumbent of 3 or more parts: assign pairs in
    most-constrained-first order to incremental parts, a pair's next
    part only after the search under its previous one is done."""
    nodes.stage = "branch and bound"
    order = sorted(range(len(pairs)), key=lambda p: (-counts[p], p))
    parts = [_Part(counts, succ, pred, nodes) for _ in range(min(cap, best))]
    placed = []  # part of order[j] for each placed j
    used = [0]  # parts in use after placing order[:j]
    k = 0  # next part to try for order[len(placed)]
    while best > 2:
        if used[-1] < best:
            if len(placed) == len(order):
                best, witness = used[-1], _partition(pairs, parts[:used[-1]])
            elif k < min(used[-1] + 1, cap):
                nodes.part = k
                nodes.tick()
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
    optimum it proves, or when a budget of the module docstring runs out.
    """
    check_system_size(x)
    table = _arrow_table(x)
    nodes = _Nodes()
    best, witness = _greedy(*table, nodes)
    cap = DEFAULT_PART_CAP
    if best > 2:
        best, witness = _branch_and_bound(*table, nodes, cap, best, witness)
    if best > cap:
        raise BudgetExceeded(
            f"no partition within the part cap {cap}; best bound {best}")
    return best, witness
