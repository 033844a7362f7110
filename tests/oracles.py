"""Independent reference implementations used to cross-check results.

Everything here is deliberately written with different algorithms and
data layouts than the library: midpoint sampling instead of interval
arithmetic, a cell-by-cell grid build instead of tabulated box
positions, breadth-first closure instead of union-find, boolean matrix
closure instead of DFS, cofactor determinants instead of reduction,
Jacobi sweeps over every same-count pair, or a worklist over every
same-colour pair of Jacobi-refined colours, instead of blocks with a
bijection group, dense Smith normal form instead of sparse unit pivots, a
diTC search that solves every part from scratch over all of its pairs
instead of keeping a witness on its multi-class pairs, an equivalence
check that tries every pair of dipaths as an arrow instead of every pair
of classes, a lifting scan over every arrow and every pair instead of
the neighbours that no edge lifts, and a natural class system built pair
by pair through one-pair queries instead of from whole class tables.
It also holds the extension helpers that only tests use: the identity
arrow of a pair and the composite of two arrows.
"""
from fractions import Fraction
from itertools import permutations, product


def brute_grid_cells(dims, boxes):
    """(vertices, edges, squares) of a grid model, by midpoint sampling.

    A cell is forbidden when the midpoint of its relative interior lies
    in some open forbidden box (closed on full-extent axes).  Returns
    coordinate-level descriptions, not ids.
    """
    n = len(dims)

    def allowed(base, spanned):
        mid = [Fraction(b) + (Fraction(1, 2) if i in spanned else 0)
               for i, b in enumerate(base)]
        for box in boxes:
            inside = True
            for i, (lo, hi) in enumerate(box):
                if lo == 0 and hi == dims[i]:
                    if not (lo <= mid[i] <= hi):
                        inside = False
                        break
                elif not (lo < mid[i] < hi):
                    inside = False
                    break
            if inside:
                return False
        return True

    verts = [p for p in product(*[range(d + 1) for d in dims]) if allowed(p, ())]
    vset = set(verts)
    edges = []
    for p in verts:
        for k in range(n):
            q = tuple(b + (1 if i == k else 0) for i, b in enumerate(p))
            if q in vset and allowed(p, (k,)):
                edges.append((p, k))
    eset = set(edges)
    squares = []
    for p in verts:
        for k in range(n):
            for l in range(k + 1, n):
                pk = tuple(b + (1 if i == k else 0) for i, b in enumerate(p))
                pl = tuple(b + (1 if i == l else 0) for i, b in enumerate(p))
                if (
                    (p, k) in eset and (p, l) in eset
                    and (pk, l) in eset and (pl, k) in eset
                    and allowed(p, (k, l))
                ):
                    squares.append((p, k, l))
    return verts, edges, squares


def _interior_meets_box(base, spanned, box, dims):
    """Does the open unit cell at ``base`` spanning ``spanned`` axes meet
    the forbidden region of ``box``?  Per axis the region is the open
    interval (lo, hi), closed when it spans the whole axis."""
    for i, (lo, hi) in enumerate(box):
        full = lo == 0 and hi == dims[i]
        if i in spanned:
            if not (base[i] < hi and base[i] + 1 > lo):
                return False
        elif full:
            if not (lo <= base[i] <= hi):
                return False
        else:
            if not (lo < base[i] < hi):
                return False
    return True


def grid_reference(dims, forbidden=()):
    """The grid model of ``cubecore.build_grid_complex``, built cell by
    cell: every lattice point, edge and square is tested against every
    box by interval arithmetic, and cells are found by coordinate tuples
    instead of tabulated index sets."""
    from ditop.cubecore import PrecubicalSet

    def blocked(base, spanned):
        return any(_interior_meets_box(base, spanned, box, dims) for box in forbidden)

    points = [p for p in product(*[range(d + 1) for d in dims]) if not blocked(p, ())]
    vid = {p: i for i, p in enumerate(points)}  # row-major: lexicographic
    edges = []
    eid = {}
    for p in points:
        for k in range(len(dims)):
            q = tuple(b + (i == k) for i, b in enumerate(p))
            if q in vid and not blocked(p, (k,)):
                eid[(p, k)] = len(edges)
                edges.append((vid[p], vid[q]))
    squares = []
    for p in points:
        for k in range(len(dims)):
            for l in range(k + 1, len(dims)):
                pk = tuple(b + (i == k) for i, b in enumerate(p))
                pl = tuple(b + (i == l) for i, b in enumerate(p))
                sides = (eid.get((p, k)), eid.get((pk, l)), eid.get((p, l)), eid.get((pl, k)))
                if None not in sides and not blocked(p, (k, l)):
                    squares.append(sides)
    return PrecubicalSet(len(points), edges, squares, coords=points)


def closure_pairs(x):
    """Reachability pairs via boolean matrix closure."""
    n = x.n_vertices
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for s, t in x.edges:
        reach[s][t] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(
                    reach[i][k] and reach[k][j] for k in range(n)
                ):
                    reach[i][j] = True
                    changed = True
    return {(i, j) for i in range(n) for j in range(n) if reach[i][j]}


def all_paths_bfs(x, a, b, limit=None):
    """Edge tuples of every monotone path a -> b, by breadth-first
    extension of partial paths."""
    done = []
    frontier = [(a, ())]
    while frontier:
        nxt = []
        for at, acc in frontier:
            if at == b:
                done.append(acc)
                if limit is not None and len(done) > limit:
                    raise OverflowError("path limit hit")
            for e in x.out_edges(at):
                nxt.append((x.edges[e][1], acc + (e,)))
        frontier = nxt
    return done


def flip_class_count(x, a, b, limit=None):
    """Number of square-flip components among paths a -> b."""
    return len(_flip_components(x, a, b, limit))


def flip_classes(x, a, b, limit=None):
    """Square-flip components among paths a -> b.  Each component is a
    list of edge tuples, least first in the lexicographic order of
    (vertex, edge) sequences, and the components are ordered by their
    least members."""

    def key(p):
        return tuple((x.edges[e][1], e) for e in p)

    components = [sorted(c, key=key) for c in _flip_components(x, a, b, limit)]
    return sorted(components, key=lambda c: key(c[0]))


def _flip_components(x, a, b, limit):
    """Components of the flip graph by BFS (no union-find), with the flip
    relation read from the squares themselves."""
    alts = {}
    for bottom, right, left, top in x.squares:
        alts.setdefault((bottom, right), set()).add((left, top))
        alts.setdefault((left, top), set()).add((bottom, right))
    seen = set()
    components = []
    for start in all_paths_bfs(x, a, b, limit=limit):
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for p in component:
            for i in range(len(p) - 1):
                for alt in alts.get(p[i:i + 2], ()):
                    q = p[:i] + alt + p[i + 2:]
                    if q not in seen:
                        seen.add(q)
                        component.append(q)
        components.append(component)
    return components


def path_count_dp(x, a, b):
    """Number of monotone paths a -> b by dynamic programming in
    topological order."""
    n = x.n_vertices
    indeg = [0] * n
    for _, t in x.edges:
        indeg[t] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for e in x.out_edges(v):
            w = x.edges[e][1]
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    count = [0] * n
    count[a] = 1
    for v in order:
        if count[v]:
            for e in x.out_edges(v):
                count[x.edges[e][1]] += count[v]
    return count[b]


def elementary_actions(x, pair):
    """(target, action) of each elementary arrow out of a pair, in
    ``elementary_arrows`` order, each by ``arrow_action``: a fold of
    alpha.rep.beta per class, with no prefix rows."""
    from ditop.traceclass import arrow_action, elementary_arrows

    for arrow in elementary_arrows(x, pair):
        yield arrow.target, arrow_action(x, arrow)


def identity_arrow(pair):
    """The identity extension of a pair: both paths constant."""
    from ditop.cubecore import DPath
    from ditop.traceclass import ExtensionArrow

    x, y = pair
    return ExtensionArrow(pair, pair, DPath(x), DPath(y))


def compose_arrows(x, first, second):
    """Composite extension: apply ``first`` then ``second``."""
    from ditop.cubecore import concat
    from ditop.errors import ModelError
    from ditop.traceclass import ExtensionArrow

    if first.target != second.source:
        raise ModelError("arrows do not compose")
    return ExtensionArrow(
        first.source,
        second.target,
        concat(x, second.alpha, first.alpha),
        concat(x, first.beta, second.beta),
    )


def natural_system_reference(x):
    """The natural class system built pair by pair: one ``trace_classes``
    per object and one ``arrow_action`` per arrow, each checking the
    path cap of the pairs it traces."""
    from ditop.cubecore import gamma
    from ditop.natsys import NaturalClassSystem
    from ditop.traceclass import trace_classes

    objects = tuple(gamma(x))
    index = {pair: i for i, pair in enumerate(objects)}
    counts = []
    arrows = []
    for pair in objects:
        counts.append(trace_classes(x, *pair).count)
        arrows.append(tuple((index[t], act) for t, act in elementary_actions(x, pair)))
    return NaturalClassSystem(objects, tuple(counts), tuple(arrows))


def _arrow_table_reference(x):
    """Pairs, class counts by pair and arrows (target pair, action) by
    pair, from ``natural_system_reference``."""
    system = natural_system_reference(x)
    pairs = system.objects
    counts = dict(zip(pairs, system.counts))
    arrows = {p: [(pairs[i], act) for i, act in out]
              for p, out in zip(pairs, system.arrows)}
    return pairs, counts, arrows


def bisim_gfp(s, t):
    """Bisimilarity of two natural class systems from the definition,
    without colours or worklists: (True, triples) or (False, (side, object)).

    The relation starts from every pair of objects with equal class counts
    and every bijection between their classes.  A full Jacobi sweep keeps
    a triple (oi, bij, oj) when every arrow of either object is matched by
    an arrow of the other object, or by the other object staying put with
    the identity, into a pair of the previous sweep's relation that holds
    some bij2 with bij2 . act == act2 . bij; sweeps repeat until nothing
    changes.  An object of either side left without a partner is a
    counterexample: on the left first, the one with the fewest arrows,
    then the least object.  Triples list the pairs in index order, each
    with its least remaining bijection.
    """

    def moves(system, o):
        return list(system.arrows[o]) + [(o, tuple(range(system.counts[o])))]

    def commutes(rel, memo, ti, tj, act, act2, bij):
        # some bij2 in rel[(ti, tj)] with bij2[act[c]] == act2[bij[c]] for
        # every c: the values bij2 must take on act's image, looked up
        # among the restrictions of rel[(ti, tj)] to that image
        want = {}
        for c in range(len(bij)):
            if want.setdefault(act[c], act2[bij[c]]) != act2[bij[c]]:
                return False
        image = tuple(sorted(want))
        if (ti, tj, image) not in memo:
            memo[(ti, tj, image)] = {tuple(bij2[v] for v in image)
                                     for bij2 in rel.get((ti, tj), ())}
        return tuple(want[v] for v in image) in memo[(ti, tj, image)]

    rel = {
        (oi, oj): set(permutations(range(s.counts[oi])))
        for oi in range(s.n_objects) for oj in range(t.n_objects)
        if s.counts[oi] == t.counts[oj]
    }
    while True:
        nxt = {}
        memo = {}
        for (oi, oj), bijs in rel.items():
            keep = {
                bij for bij in bijs
                if all(any(commutes(rel, memo, ti, tj, act, act2, bij)
                           for tj, act2 in moves(t, oj))
                       for ti, act in s.arrows[oi])
                and all(any(commutes(rel, memo, ti, tj, act, act2, bij)
                            for ti, act in moves(s, oi))
                        for tj, act2 in t.arrows[oj])
            }
            if keep:
                nxt[(oi, oj)] = keep
        if nxt == rel:
            break
        rel = nxt
    for side, system, k in (("left", s, 0), ("right", t, 1)):
        missing = set(range(system.n_objects)) - {pair[k] for pair in rel}
        if missing:
            o = min(missing, key=lambda o: (len(system.arrows[o]), system.objects[o]))
            return False, (side, system.objects[o])
    return True, tuple((s.objects[oi], min(rel[(oi, oj)]), t.objects[oj])
                       for oi, oj in sorted(rel))


def _refinement_colors(systems):
    """Joint partition refinement ignoring actions: a sound pre-filter.

    Objects that end up with different colors cannot be bisimilar; the
    converse is settled by the exact fixed point afterwards.  The object
    itself counts among its successors: arrows may be matched by staying
    put, so refinement must run on the reflexive closure to stay sound.
    The colouring returned is stable: same-coloured objects have equal
    reflexive successor colour sets, which ``bisim_pairs_reference``
    relies on.  Full Jacobi rounds over every object, until the number
    of colours stops growing.
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


class _Side:
    """Per-object tables of one system for ``bisim_pairs_reference``: its
    moves (every arrow, plus staying put with the identity), the objects
    those moves reach, the objects whose moves reach it, and its arrows
    split by whether the target has one class or more."""

    def __init__(self, system):
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


def bisim_pairs_reference(s, t):
    """Bisimilarity by a worklist over object pairs of S x T: (True,
    triples) or (False, (side, object)), like ``bisim_gfp``.

    The relation keeps every same-colour object pair (colours from
    Jacobi rounds, ``_refinement_colors`` here) with its own set of bijections, one
    shared set per class count, built in pair order so that the bijection
    cap raises at the first left object with a partner.  A worklist checks
    only the hot pairs, where an object or one of its arrow targets has
    two or more classes, and re-checks a pair only when a pair its moves
    reach has lost a bijection.  Unlike ``bisim_gfp`` it has no size
    limit beyond memory, so it serves models with tens of thousands of
    object pairs.
    """
    from ditop.errors import BudgetExceeded
    from ditop.natsys import BIJECTION_CAP

    def _bijections(k):
        if k > BIJECTION_CAP:
            raise BudgetExceeded(
                f"class set of size {k} exceeds the bijection cap {BIJECTION_CAP}"
            )
        return frozenset(permutations(range(k)))

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
        return False, ("left", s.objects[oi])
    missing_t = [oj for oj in range(t.n_objects) if not right.partners[oj]]
    if missing_t:
        oj = min(missing_t, key=lambda o: (len(t.arrows[o]), t.objects[o]))
        return False, ("right", t.objects[oj])
    return True, tuple(
        (s.objects[oi], min(bijs), t.objects[oj])
        for (oi, oj), bijs in sorted(cands.items())
    )


class _PathClasses:
    """The classes of one model from listed dipaths: per pair, each path
    (an edge tuple) -> its flip component's index, which is its class
    id, and the least member of each component."""

    def __init__(self, x):
        self.x = x
        self.pairs = sorted(closure_pairs(x))
        self.pair_set = set(self.pairs)
        self._classes = {}

    def _of(self, a, b):
        if (a, b) not in self._classes:
            comps = flip_classes(self.x, a, b)
            self._classes[(a, b)] = (
                {p: i for i, comp in enumerate(comps) for p in comp},
                [comp[0] for comp in comps])
        return self._classes[(a, b)]

    def cls(self, a, b, p):
        return self._of(a, b)[0][p]

    def least(self, a, b):
        return self._of(a, b)[1]

    def paths(self, a, b):
        return list(self._of(a, b)[0])

    def action(self, src, tgt, alpha, beta):
        """[q] -> [alpha.q.beta] by concatenation and look-up."""
        return tuple(self.cls(*tgt, alpha + q + beta) for q in self.least(*src))

    def arrows(self, pair):
        """(target, alpha, beta) of each elementary arrow out of a pair:
        the in-edges of its start by source vertex, then the out-edges of
        its end by target vertex."""
        x, (a, b) = self.x, pair
        ins = sorted((s, e) for e, (s, t) in enumerate(x.edges) if t == a)
        outs = sorted((t, e) for e, (s, t) in enumerate(x.edges) if s == b)
        return ([((s, b), (e,), ()) for s, e in ins]
                + [((a, t), (), (e,)) for t, e in outs])


def _map_edges(m, p):
    return tuple(i for tag, i in (m.edge_map[e] for e in p) if tag == "e")


def connection_commutes_by_paths(x, maps, forward, classes=None):
    """Stage 3 of ``equiv_by_paths``, for the composite h of ``maps``
    (dmaps x -> ... -> x, applied in order): do dipaths w_v from each v
    to h(v) (forward) or from h(v) to v (backward) exist, and do the
    first of them give [p.w_b] = [w_a.h(p)] forward, [h(p).w_b] = [w_a.p]
    backward, for every dipath p: a -> b?  ``classes`` is a
    ``_PathClasses`` of x to reuse."""
    w = classes or _PathClasses(x)
    hv = list(range(x.n_vertices))
    for m in maps:
        hv = [m.vertex_map[v] for v in hv]
    ends = [(v, hv[v]) if forward else (hv[v], v) for v in range(x.n_vertices)]
    if not all(end in w.pair_set for end in ends):
        return False
    # the first connecting dipath in (target vertex, edge) order
    conn = [min(w.paths(s, t), key=lambda p: [(x.edges[e][1], e) for e in p])
            for s, t in ends]
    for a, b in w.pairs:
        start, end = (a, hv[b]) if forward else (hv[a], b)
        for p0 in w.paths(a, b):
            hp = p0
            for m in maps:
                hp = _map_edges(m, hp)
            p, q = (p0, hp) if forward else (hp, p0)
            if w.cls(start, end, p + conn[b]) != w.cls(start, end, conn[a] + q):
                return False
    return True


def unlifted_reference(own, other, vm):
    """The first lifting diagram of ``equivcheck._unlifted`` with no
    preimage under the vertex map ``vm``, or None, by a full scan: every
    pair of ``closure_pairs`` in sorted order, every elementary arrow of
    ``other`` out of its image (sources of in-edges, then targets of
    out-edges, each in sorted order), and every pair as a preimage."""
    pairs = sorted(closure_pairs(own))
    members = set(pairs)
    for c, d in pairs:
        a, b = vm[c], vm[d]
        for target in ([(s, b) for s, t in sorted(other.edges) if t == a]
                       + [(a, t) for s, t in sorted(other.edges) if s == b]):
            pre = [(c2, d2) for c2, d2 in pairs if (vm[c2], vm[d2]) == target]
            if pre and not any((c2, c) in members and (d, d2) in members for c2, d2 in pre):
                return (c, d), target
    return None


def equiv_by_paths(x, y, f, g):
    """Dihomotopy equivalence of valid dmaps f: x -> y and g: y -> x from
    the definition, with every pair of dipaths tried as an arrow:
    (True, None) or (False, (stage, location)).

    Paths come from ``all_paths_bfs`` and classes from ``flip_classes``;
    every action is computed by concatenating paths and looking the
    result up.  Stages, pairs and arrows are visited in the order of
    ``check_dihomotopy_equivalence``, so the first failure is the same.
    """
    X, Y = _PathClasses(x), _PathClasses(y)
    sides = {}
    for name, own, other, m in (("f", X, Y, f), ("g", Y, X, g)):
        vm = m.vertex_map
        fwd, inv = {}, {}
        for a, b in own.pairs:
            img = tuple(other.cls(vm[a], vm[b], _map_edges(m, p)) for p in own.least(a, b))
            n = len(other.least(vm[a], vm[b]))
            if sorted(img) != list(range(n)):
                return False, (f"{name}-class-bijection", (a, b))
            fwd[(a, b)] = img
            inv[(a, b)] = tuple(img.index(i) for i in range(n))
        sides[name] = (own, other, m, fwd, inv)

    for stage, w, first, then in (("gf-homotopy", X, f, g), ("fg-homotopy", Y, g, f)):
        hv = [then.vertex_map[first.vertex_map[v]] for v in range(w.x.n_vertices)]
        if hv != list(range(w.x.n_vertices)) and not any(
                connection_commutes_by_paths(w.x, [first, then], forward, w)
                for forward in (True, False)):
            return False, (stage, ())

    def commutes(fwd, inv, src, tgt, act_own, act_other):
        return (all(fwd[tgt][act_own[c]] == act_other[fwd[src][c]]
                    for c in range(len(act_own)))
                and all(inv[tgt][act_other[w]] == act_own[inv[src][w]]
                        for w in range(len(act_other))))

    for label, name, lifting in (("A", "f", False), ("B", "g", True),
                                 ("C", "f", True), ("D", "g", False)):
        own, other, m, fwd, inv = sides[name]
        vm = m.vertex_map
        if not lifting:
            # each own arrow needs some commuting arrow between the images
            for a, b in own.pairs:
                for (a2, b2), alpha, beta in own.arrows((a, b)):
                    act = own.action((a, b), (a2, b2), alpha, beta)
                    src, tgt = (vm[a], vm[b]), (vm[a2], vm[b2])
                    if not any(
                        commutes(fwd, inv, (a, b), (a2, b2), act,
                                 other.action(src, tgt, al, be))
                        for al in other.paths(tgt[0], src[0])
                        for be in other.paths(src[1], tgt[1])
                    ):
                        return False, (f"diagram-{label}", ((a, b), (a2, b2)))
            continue
        # each other arrow from an image into an image needs some
        # commuting own arrow into a preimage
        image = {}
        for a, b in own.pairs:
            image.setdefault((vm[a], vm[b]), []).append((a, b))
        for c, d in own.pairs:
            for target, alpha, beta in other.arrows((vm[c], vm[d])):
                if target not in image:
                    continue
                act = other.action((vm[c], vm[d]), target, alpha, beta)
                if not any(
                    commutes(fwd, inv, (c, d), (c2, d2),
                             own.action((c, d), (c2, d2), al, be), act)
                    for c2, d2 in image[target]
                    if (c2, c) in own.pair_set and (d, d2) in own.pair_set
                    for al in own.paths(c2, c)
                    for be in own.paths(d, d2)
                ):
                    return False, (f"diagram-{label}", ((c, d), target))
    return True, None


def det(m):
    """Integer determinant by cofactor expansion with memoized minors."""
    n = len(m)
    cols = tuple(range(n))
    memo = {}

    def minor(rows_done, colset):
        if not colset:
            return 1
        key = colset
        if key in memo:
            return memo[key]
        row = m[rows_done]
        total = 0
        sign = 1
        for idx, c in enumerate(colset):
            if row[c]:
                rest = colset[:idx] + colset[idx + 1:]
                total += sign * row[c] * minor(rows_done + 1, rest)
            sign = -sign
        memo[key] = total
        return total

    return minor(0, cols)


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    return [
        [sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for ra in a
    ]


def boundary_dense(x):
    """Dense boundary matrices d1: edges -> vertices and d2: squares ->
    edges, built from the cells (columns index the higher cells)."""
    d1 = [[0] * len(x.edges) for _ in range(x.n_vertices)]
    for j, (s, t) in enumerate(x.edges):
        d1[s][j] -= 1
        d1[t][j] += 1
    d2 = [[0] * len(x.squares) for _ in x.edges]
    for j, square in enumerate(x.squares):
        for e, sign in zip(square, (1, 1, -1, -1)):
            d2[e][j] += sign
    return d1, d2


def homology_dense(x):
    """(betti_0, betti_1, torsion of H1) from ``boundary_dense``, ranked
    by the library's Smith normal form (whose invariants the algebra
    criterion checks)."""
    from ditop.zhom import smith_normal_form

    d1, d2 = boundary_dense(x)
    rank1 = len(smith_normal_form(d1).diagonal()) if x.edges else 0
    diag2 = smith_normal_form(d2).diagonal() if x.squares else []
    return (x.n_vertices - rank1, len(x.edges) - rank1 - len(diag2),
            sorted(d for d in diag2 if d > 1))


def relabel_complex(x, perm):
    """Isomorphic copy with permuted vertex ids, plus the dmaps both
    ways (edge and square indices are preserved)."""
    from ditop.cubecore import PrecubicalSet
    from ditop.equivcheck import DMapData

    y = PrecubicalSet(
        x.n_vertices,
        [(perm[s], perm[t]) for s, t in x.edges],
        x.squares,
    )
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    eids = tuple(("e", i) for i in range(len(x.edges)))
    sids = tuple(("s", i) for i in range(len(x.squares)))
    f = DMapData(tuple(perm), eids, sids)
    g = DMapData(tuple(inv), eids, sids)
    return y, f, g


def feasible_choice(part, counts, arrows):
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


def greedy_reference(pairs, counts, arrows):
    """Greedy partition that solves the whole part with
    ``feasible_choice`` for every candidate pair."""
    from ditop.ditc import SectionPartition

    remaining = list(pairs)
    parts = []
    choices = {}
    while remaining:
        part = []
        deferred = []
        for p in remaining:
            if feasible_choice(part + [p], counts, arrows) is not None:
                part.append(p)
            else:
                deferred.append(p)
        choice = feasible_choice(part, counts, arrows)
        parts.append(frozenset(part))
        choices.update(choice)
        remaining = deferred
    return len(parts), SectionPartition(tuple(parts), choices)


def ditc_reference(x, upper=False, cap=6):
    """diTC with every part solved from scratch: ``(n, SectionPartition)``
    of the greedy bound when ``upper``, else of branch and bound over all
    pairs, with the greedy bound as incumbent and ``feasible_choice`` on
    the whole part at every node."""
    from ditop.cubecore import gamma
    from ditop.ditc import GAMMA_CAP, SectionPartition
    from ditop.errors import BudgetExceeded

    if upper:
        return greedy_reference(*_arrow_table_reference(x))
    n_pairs = len(gamma(x))
    if n_pairs > GAMMA_CAP:
        raise BudgetExceeded(
            f"{n_pairs} reachable pairs exceed the exact-search cap {GAMMA_CAP}")
    pairs, counts, arrows = _arrow_table_reference(x)
    n_upper, sp_upper = greedy_reference(pairs, counts, arrows)
    if n_upper == 1:
        return 1, sp_upper
    order = sorted(pairs, key=lambda p: (-counts[p], p))

    best = [n_upper, sp_upper]
    assignment = {}

    def feasible(part_id):
        part = [p for p, k in assignment.items() if k == part_id]
        return feasible_choice(part, counts, arrows) is not None

    def search(i, used):
        if used >= best[0]:
            return
        if i == len(order):
            parts = []
            choices = {}
            for k in range(used):
                members = frozenset(p for p, j in assignment.items() if j == k)
                parts.append(members)
                choices.update(feasible_choice(members, counts, arrows))
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
