"""Directed maps between complexes and equivalence checking.

A dmap sends vertices to vertices, edges to edges or collapses them to
vertices, and squares to squares or collapses them to edges or vertices.
``check_dihomotopy_equivalence`` decides, at the level of dihomotopy
classes, whether a pair of dmaps (f, g) is a directed homotopy
equivalence: induced class maps must be bijections, the composites must
be directed-homotopic to identities, and four families of extension
diagrams must admit matching arrows.  ``check_strong`` states the
stronger pointwise conditions (a)-(d) that imply the diagrammatic ones.

Both checks read the class tables of ``traceclass`` and list no dipaths.
The action of an arrow (alpha, beta) depends only on the classes of
alpha and beta, and three lemmas leave no arrow to search for:

1. A dmap m maps dipaths edge by edge and sends each flip to a flip or
   to a single path, so m(alpha.q.beta) ~ m(alpha).m(q).m(beta): the
   image of an arrow commutes with the induced class maps, and families
   A and D and strong conditions (a) and (b) hold for every valid dmap.
2. Once stage 1 has made the class maps bijective, with inverses F,
   take an arrow of the other model from (m c, m d), of classes (k, l),
   into the image of a pair that extends (c, d).  The own arrow into
   any such preimage with classes (F k, F l) maps onto one of classes
   (k, l), which acts as the given arrow, so it commutes by lemma 1:
   B, C, (c) and (d) fail only where no preimage extends (c, d).
3. For an own edge c' -> c, an arrow of the other model from (m c, m d)
   into (m c', m d) ends at the image of (c', d), which extends (c, d),
   and so for the out-edges of d: only neighbours of m c and m d that no
   own edge at c or d reaches can lack a preimage, and a relabelling has
   none.

So both checks run stages 1-3 and then one reachability test per side,
B with the roles of (x, f) and (y, g) swapped from C, and they agree.
In the paper, an equivalence also carries inverse maps F and G on the
dipaths between image pairs.  At class level they are the inverses of
the bijections that f and g induce, so f and g fix them: a certificate
keeps x, y, f and g only, and ``induced_class_map`` gives the class map
of a pair on demand.  No stage keeps anything per pair.
Stage 1 reads the class maps of m at a source a off rows filled in
topological order over its reach, as far as the pairs read need: the
row of w, C(a, w) -> C(m a, m w), follows from the row of u through
each in-edge u -> w, whose image acts by its ``ext`` (or not at all
where m collapses it), and by lemma 1 all in-edges give the same row.
A pair that ``traceclass.one_class_sources`` certifies, with its image
certified in the other model, maps bijectively with the row (0,) and
reads no table; a source gets its two tables at its first other pair.
Stage 3 reads rows too and skips every pair whose target pair the same
bitsets certify; it decodes no representative but a connecting
dipath, and that only where a pair reads it.  The diagram scan reads
the reach bitsets and the preimages of each vertex as a bitset.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

from .cubecore import DPath, PrecubicalSet, bit_indices, gamma
from .errors import ModelError
from .traceclass import _ONE, _table, one_class_sources, trace_classes


@dataclass(frozen=True)
class DMapData:
    """Cellular map between two complexes.

    ``edge_map`` entries are ("e", j) for an edge image or ("v", k) for a
    collapse; ``square_map`` entries are ("s", j), ("e", j) or ("v", k).
    """

    vertex_map: tuple
    edge_map: tuple
    square_map: tuple

    def to_json(self) -> str:
        doc = {
            "vertex_map": list(self.vertex_map),
            "edge_map": [list(e) for e in self.edge_map],
            "square_map": [list(s) for s in self.square_map],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DMapData":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to read
            raise ModelError(f"invalid dmap file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ModelError("dmap file must hold a JSON object")
        for key in ("vertex_map", "edge_map", "square_map"):
            if key not in doc:
                raise ModelError(f"dmap file needs '{key}'")
        vm = doc["vertex_map"]
        if not (isinstance(vm, list) and set(map(type, vm)) <= {int}):
            raise ModelError("'vertex_map' must be a list of integers")
        for key in ("edge_map", "square_map"):
            rows = doc[key]
            if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
                    and set(map(len, rows)) <= {2}
                    and set(map(type, map(itemgetter(0), rows))) <= {str}
                    and set(map(type, map(itemgetter(1), rows))) <= {int}):
                raise ModelError(f"'{key}' must be a list of [tag, integer] pairs")
        return cls(tuple(vm), tuple(map(tuple, doc["edge_map"])),
                   tuple(map(tuple, doc["square_map"])))


def dmap_violations(x: PrecubicalSet, y: PrecubicalSet, f: DMapData):
    """All structural violations of f as a map x -> y, as messages."""
    out = []
    vm, em, sm = f.vertex_map, f.edge_map, f.square_map
    for name, entries, n in (("vertex", vm, x.n_vertices), ("edge", em, len(x.edges)),
                             ("square", sm, len(x.squares))):
        if len(entries) != n:
            return [f"{name} map has {len(entries)} entries, expected {n}"]
    for v, w in enumerate(vm):
        if not (0 <= w < y.n_vertices):
            out.append(f"vertex {v} maps to unknown vertex {w}")
    if out:
        return out
    for e, (s, t) in enumerate(x.edges):
        tag, i = em[e]
        if tag == "v":
            if not (vm[s] == vm[t] == i):
                out.append(f"edge {e} collapses to {i} but endpoints map to "
                           f"({vm[s]},{vm[t]})")
        elif tag == "e":
            if not (0 <= i < len(y.edges)):
                out.append(f"edge {e} maps to unknown edge {i}")
            elif y.edges[i] != (vm[s], vm[t]):
                out.append(f"edge {e} maps to edge {i} with endpoints "
                           f"{y.edges[i]}, expected ({vm[s]},{vm[t]})")
        else:
            out.append(f"edge {e}: bad tag {tag!r}")
    if out:
        return out
    for si, (b, r, l, t) in enumerate(x.squares):
        tag, i = sm[si]
        images = [em[b], em[r], em[l], em[t]]
        if tag == "s":
            if not (0 <= i < len(y.squares)):
                out.append(f"square {si} maps to unknown square {i}")
                continue
            want = tuple(("e", e) for e in y.squares[i])
            if tuple(images) != want:
                out.append(f"square {si} maps to square {i} but its boundary "
                           f"images are {images}")
        elif tag == "e":
            horiz = images[0] == images[3] == ("e", i) and images[1][0] == images[2][0] == "v"
            vert = images[2] == images[1] == ("e", i) and images[0][0] == images[3][0] == "v"
            if not (horiz or vert):
                out.append(f"square {si} collapses to edge {i} but its "
                           f"boundary images are {images}")
        elif tag == "v":
            if any(img != ("v", i) for img in images):
                out.append(f"square {si} collapses to vertex {i} but its "
                           f"boundary images are {images}")
        else:
            out.append(f"square {si}: bad tag {tag!r}")
    return out


def validate_dmap(x: PrecubicalSet, y: PrecubicalSet, f: DMapData) -> bool:
    return not dmap_violations(x, y, f)


def identity_dmap(x: PrecubicalSet) -> DMapData:
    return DMapData(
        tuple(range(x.n_vertices)),
        tuple(("e", i) for i in range(len(x.edges))),
        tuple(("s", i) for i in range(len(x.squares))),
    )


def dmap_from_vertex_map(x: PrecubicalSet, y: PrecubicalSet, vm) -> DMapData:
    """Lift a vertex map to a full dmap, inferring edge and square images
    (collapsing cells whose image is degenerate).  Raises ModelError when
    an entry is not a vertex of y or some cell has no valid image."""
    vm = tuple(vm)
    if len(vm) != x.n_vertices:
        raise ModelError("vertex map length mismatch")
    for v in vm:
        if type(v) is not int or not 0 <= v < y.n_vertices:
            raise ModelError(f"vertex map entry {v!r} is not a vertex of the target")
    edge_index = {e: i for i, e in enumerate(y.edges)}
    em = []
    for s, t in x.edges:
        a, b = vm[s], vm[t]
        if a == b:
            em.append(("v", a))
        elif (a, b) in edge_index:
            em.append(("e", edge_index[(a, b)]))
        else:
            raise ModelError(f"no image edge for ({s},{t}) -> ({a},{b})")
    square_index = {sq: i for i, sq in enumerate(y.squares)}
    sm = []
    for b, r, l, t in x.squares:
        ib, ir, il, it = em[b], em[r], em[l], em[t]
        tags = {ib[0], ir[0], il[0], it[0]}
        if tags == {"v"}:
            sm.append(("v", ib[1]))
        elif "v" == ib[0] == it[0] or "v" == il[0] == ir[0]:
            # collapsed along one axis: the two edges across it must agree
            e1, e2 = (il, ir) if "v" == ib[0] == it[0] else (ib, it)
            if e1 != e2:
                raise ModelError(f"square ({b},{r},{l},{t}) has no image")
            sm.append(("e", e1[1]))
        else:
            key = (ib[1], ir[1], il[1], it[1])
            if "v" in tags or key not in square_index:
                raise ModelError(f"square ({b},{r},{l},{t}) has no image")
            sm.append(("s", square_index[key]))
    return DMapData(vm, tuple(em), tuple(sm))


def compose_dmaps(f: DMapData, g: DMapData) -> DMapData:
    """g after f."""
    vm = tuple(g.vertex_map[v] for v in f.vertex_map)

    def push_edge(entry):
        tag, i = entry
        if tag == "v":
            return ("v", g.vertex_map[i])
        return g.edge_map[i]

    em = tuple(push_edge(entry) for entry in f.edge_map)
    # a square collapsed to a vertex or an edge pushes forward like one
    sm = tuple(
        g.square_map[i] if tag == "s" else push_edge((tag, i))
        for tag, i in f.square_map
    )
    return DMapData(vm, em, sm)


def map_path(f: DMapData, p: DPath) -> DPath:
    edges = tuple(
        f.edge_map[e][1] for e in p.edges if f.edge_map[e][0] == "e"
    )
    return DPath(f.vertex_map[p.start], edges)


def _through(m: DMapData):
    """Per edge, its image edge under m, or None where m collapses it."""
    return [i if tag == "e" else None for tag, i in m.edge_map]


def induced_class_map(x, y, f, a, b):
    """Tuple sending each class id at (a,b) in x to a class id at
    (f(a),f(b)) in y, for a valid dmap f: x -> y, by one row pass."""
    trace_classes(x, a, b)
    fa = f.vertex_map[a]
    trace_classes(y, fa, f.vertex_map[b])
    return _table(x, a).rows(x, _table(y, fa), {a: (0,)}, b, _through(f))[b]


# -- equivalence checking ----------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Accepted equivalence data: the two models and the dmaps.  The
    inverse maps F and G of the paper are, at class level, the inverses
    of the class bijections that f and g induce, which
    ``induced_class_map`` gives pair by pair, so they are not stored."""

    x: PrecubicalSet
    y: PrecubicalSet
    f: DMapData
    g: DMapData


@dataclass(frozen=True)
class EquivFailure:
    """Failed check: the stage, its location and a detail.  A diagram
    failure is exact: no arrow of any length makes that diagram commute."""

    stage: str
    location: tuple
    detail: str


def _connection_commutes(w, h, forward):
    """Do the first dipaths w_v from each v to h(v) (forward) or back
    commute with h on every class [p] at every pair (a, b)?  Forward,
    [p.w_b] against [w_a.h(p)], both a -> h(b); backward, [h(p).w_b]
    against [w_a.p], both h(a) -> b.  The first dipath of a pair is its
    class 0, so rows from (0,) at a, source by source, give both sides
    before the fold along w_b: forward [p] and, by the row pass of h into
    the table of a, [w_a.h(p)]; backward, by the row passes of h and of
    the identity into the table of h(a), [h(p)] and [w_a.p].  A pair
    whose target pair, (a, h(b)) or (h(a), b), ``one_class_sources``
    certifies has one class there and is skipped; a source gets its
    tables at its first other pair, and w_b is decoded only when a pair
    reads it.  Every table is glued up to a pair of w that stage 1
    passed, so none is refused.  Only the first connecting dipaths are
    tried, so a refusal is conservative where some pair has two classes
    or more.

    The tests barely see w_b: a variant that drops the fold along w_b
    passes ``tests/test_equivcheck.py`` and ``tests/test_acceptance.py``
    and agrees with this check on thousands of random self-dmaps and
    collapse composites.  Nothing here shows that w_b can be dropped."""
    vm, reach = h.vertex_map, gamma(w)
    ends = [(v, vm[v]) if forward else (vm[v], v) for v in range(w.n_vertices)]
    if not all(end in reach for end in ends):
        return False
    one, through = one_class_sources(w)[1], _through(h)
    for a, bits in enumerate(reach.bits):
        own, mapped, plain = None, {a: _ONE}, {a: _ONE}
        for b in bit_indices(bits):
            start, end = (a, vm[b]) if forward else (vm[a], b)
            if one[end] >> start & 1:
                continue
            if own is None:
                own, outer = _table(w, a), _table(w, start)
            outer.classes(w, end)
            own.classes(w, b)
            conn = _table(w, ends[b][0]).representatives(w, ends[b][1])[0].edges
            hp = own.rows(w, outer, mapped, b, through)[b]
            left, right = (range(len(hp)), hp) if forward else (hp, own.rows(w, outer, plain, b)[b])
            if any(outer.fold(c, conn) != d for c, d in zip(left, right)):
                return False
    return True


def _stages_1_to_3(x, y, f, g):
    """Stages 1-3 of both checks: dmap validation, class bijections of f
    then g, homotopies of g*f then f*g to the identities.  Returns the
    first EquivFailure, or None.  Stage 1 reads the pairs of each side in
    ``gamma`` order, the own pair then its image, and skips those that
    are certified on both sides, which have one class at every vertex
    on their dipaths and so are never refused.  It refuses where a scan
    of that order through ``trace_classes`` does, and stage 3 reads only
    pairs that it has passed.  The pairs are read off the reach bitsets
    of ``gamma``, as every table reads its reach."""
    for name, src, tgt, m in (("f", x, y, f), ("g", y, x, g)):
        bad = dmap_violations(src, tgt, m)
        if bad:
            raise ModelError(f"invalid dmap {name}: {bad[0]}")
    ones = one_class_sources(x)[1], one_class_sources(y)[1]
    for name, own, other, m, one, theirs in (("f", x, y, f, *ones), ("g", y, x, g, *ones[::-1])):
        vm, through = m.vertex_map, _through(m)
        for a, reach in enumerate(gamma(own).bits):
            t, ma, rows = None, vm[a], {a: _ONE}
            for b in bit_indices(reach):
                if one[b] >> a & 1 and theirs[vm[b]] >> ma & 1:
                    rows[b] = _ONE  # one class on both sides
                    continue
                if t is None:
                    t, u = _table(own, a), _table(other, ma)
                # own pair, then image; a one-class pair maps bijectively
                # exactly when its image has one class
                n, n_target = t.classes(own, b), u.classes(other, vm[b])
                img = t.rows(own, u, rows, b, through)[b] if n > 1 else (0,)
                if len(set(img)) != n or n != n_target:
                    return EquivFailure(
                        f"{name}-class-bijection", (a, b),
                        f"{n} classes map onto {len(set(img))} of {n_target}")
    for stage, name, w, first, then in (
        ("gf-homotopy", "g*f", x, f, g), ("fg-homotopy", "f*g", y, g, f)
    ):
        # directed-homotopic to the identity: equal to it on vertices, or
        # joined to it by connecting dipaths that commute with extension
        h = compose_dmaps(first, then)
        if any(h.vertex_map[v] != v for v in range(w.n_vertices)) and not any(
                _connection_commutes(w, h, forward) for forward in (True, False)):
            return EquivFailure(stage, (), f"{name} admits no directed homotopy to id")
    return None


def _unlifted(own, other, mv):
    """The first lifting diagram with no preimage under the vertex map
    ``mv``, as (source, target): a pair (c, d) of ``own`` and the target
    of an elementary arrow of ``other`` from (mv c, mv d) into an image
    pair, none of whose preimages (c2, d2) has (c2, c) and (d, d2)
    reachable; or None.  Pairs go in ``gamma`` order, and the arrows of
    each along the in-edges of mv c, then the out-edges of mv d, skipping
    by lemma 3 the neighbours that an own edge at c or d reaches and
    those with no preimage.  Pairs are read off the reach bitsets, and
    with each preimage set as a bitset, the target (s, t) is an image
    pair when some preimage of s reaches one of t, and lifted when some
    preimage of s reaches c and d reaches one of t: then c2 -> c -> d ->
    d2 makes (c2, d2) a pair."""
    own_e, other_e, reach = own.edges, other.edges, gamma(own).bits
    pre = [0] * other.n_vertices  # per vertex of other: its preimages
    for v, image in enumerate(mv):
        pre[image] |= 1 << v

    def unlifted(own_adj, other_adj, end):
        """Per vertex c of own: the ``end`` vertices of other's edges at
        mv c that have a preimage and are not the image of the ``end`` of
        an own edge at c."""
        rows = []
        for c, adj in enumerate(own_adj):
            lifted = {mv[own_e[e][end]] for e in adj}
            ends = (other_e[e][end] for e in other_adj[mv[c]])
            rows.append([v for v in ends if pre[v] and v not in lifted])
        return rows

    ins, outs = unlifted(own._in, other._in, 0), unlifted(own._out, other._out, 1)
    # a pair (c, d) has a target only when ins[c] or outs[d] is not empty
    with_outs = sum(1 << d for d, ts in enumerate(outs) if ts)
    for c, bits in enumerate(reach):
        for d in bit_indices(bits if ins[c] else bits & with_outs):
            a, b = mv[c], mv[d]
            for s, t in [(s, b) for s in ins[c]] + [(a, t) for t in outs[d]]:
                firsts = list(bit_indices(pre[s]))
                if any(reach[c2] & pre[t] for c2 in firsts) and not (
                        reach[d] & pre[t] and any(reach[c2] >> c & 1 for c2 in firsts)):
                    return (c, d), (s, t)
    return None


def check_dihomotopy_equivalence(x, y, f, g):
    """Class-level equivalence check for the pair (f: x->y, g: y->x).

    Returns (True, EquivalenceCertificate) or (False, EquivFailure).
    Stages, in order: bijectivity of the class maps of f on all pairs of
    x; same for g on y; directed homotopy of g*f and f*g to identities;
    then diagram families B and C, which by the two lemmas fail exactly
    where a lifting diagram has no preimage.  Families A and D hold.
    """
    failure = _stages_1_to_3(x, y, f, g)
    if failure is not None:
        return False, failure
    for label, own, other, m in (("B", y, x, g), ("C", x, y, f)):
        miss = _unlifted(own, other, m.vertex_map)
        if miss is not None:
            return False, EquivFailure(
                f"diagram-{label}", miss, "no preimage pair extends the source")
    return True, EquivalenceCertificate(x, y, f, g)


def check_strong(x, y, f, g) -> bool:
    """Pointwise naturality conditions (a)-(d) on (f, g, F, G).

    F and G are the inverses of the induced class maps, so f and g fix
    them; a non-bijective induced map or a failed homotopy to the
    identity fails the check.
    Conditions (a) and (b) hold by lemma 1, and (c) and (d) fail exactly
    where B and C do by lemma 2, so the verdict is the class-level one.
    """
    return check_dihomotopy_equivalence(x, y, f, g)[0]


def compose_equivalences(e1: EquivalenceCertificate, e2: EquivalenceCertificate):
    """Certificate for the composite equivalence, re-verified."""
    a, b = e1.y, e2.x
    if a is not b and (a.n_vertices, a.edges, a.squares) != (b.n_vertices, b.edges, b.squares):
        raise ModelError("certificates do not compose: middle models differ")
    f = compose_dmaps(e1.f, e2.f)
    g = compose_dmaps(e2.g, e1.g)
    ok, res = check_dihomotopy_equivalence(e1.x, e2.y, f, g)
    if not ok:
        raise ModelError(f"composite fails re-verification: {res}")
    return res


def check_two_of_three_surjective(e1, e21, f2: DMapData):
    """Given certificates for f1: x->y and for the composite f2*f1: x->z,
    with both vertex-surjective, build candidate inverse data for
    f2: y->z from the composite's and re-verify."""
    y, z = e1.y, e21.y
    for name, cert in (("f1", e1), ("f2*f1", e21)):
        if set(cert.f.vertex_map) != set(range(cert.y.n_vertices)):
            raise ModelError(f"{name} is not vertex-surjective")
    if compose_dmaps(e1.f, f2).vertex_map != e21.f.vertex_map:
        raise ModelError("f2*f1 does not match the composite certificate")
    g2 = compose_dmaps(e21.g, e1.f)  # z -> x -> y
    return check_dihomotopy_equivalence(y, z, f2, g2)
