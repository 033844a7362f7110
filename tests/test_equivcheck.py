import heapq
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ditop import cubecore, equivcheck
from ditop.cubecore import DPath, PrecubicalSet, build_grid_complex, gamma
from ditop.equivcheck import (
    DMapData,
    EquivFailure,
    check_dihomotopy_equivalence,
    check_strong,
    check_two_of_three_surjective,
    compose_dmaps,
    compose_equivalences,
    dmap_from_vertex_map,
    dmap_violations,
    identity_dmap,
    induced_class_map,
    map_path,
    validate_dmap,
)
from ditop.errors import ModelError, PathCapExceeded
from ditop.fixtures import get_fixture, matchbox_maps, sf_hs_maps
from ditop.natsys import bisimilar, build_natural_system
from ditop.traceclass import class_of, trace_classes
from ditop.zhom import section_exists

from conftest import dag_models, grid_models
from oracles import (
    _PathClasses, _map_edges, connection_commutes_by_paths, equiv_by_paths, relabel_complex,
    unlifted_reference)


def test_identity_validates(any_fixture):
    _, x = any_fixture
    assert validate_dmap(x, x, identity_dmap(x))


def test_reversed_segment_rejected(seg):
    # orientation reversal is not a dmap
    f = DMapData((1, 0), (("e", 0),), ())
    msgs = dmap_violations(seg, seg, f)
    assert msgs


def test_collapse_to_point(seg):
    point = build_grid_complex((1,))  # two vertices, one edge
    f = DMapData((0, 0), (("v", 0),), ())
    assert validate_dmap(seg, point, f)


def test_dmap_from_vertex_map_roundtrip(pv1):
    f = dmap_from_vertex_map(pv1, pv1, range(pv1.n_vertices))
    assert f == identity_dmap(pv1)


def test_dmap_from_vertex_map_rejects_nonmonotone(seg):
    with pytest.raises(ModelError):
        dmap_from_vertex_map(seg, seg, (1, 0))


def test_dmap_json_roundtrip(matchbox, topface):
    f, g = matchbox_maps()
    assert DMapData.from_json(f.to_json()) == f
    assert DMapData.from_json(g.to_json()) == g


def test_map_path_collapses_edges(matchbox, topface):
    f, _ = matchbox_maps()
    p = DPath(0, (0,))  # first edge out of the origin
    q = map_path(f, p)
    assert q.start == f.vertex_map[0]


def test_compose_dmaps_identity(pv1):
    i = identity_dmap(pv1)
    assert compose_dmaps(i, i) == i


def test_induced_class_map_identity(pv1):
    m = induced_class_map(pv1, pv1, identity_dmap(pv1), 0, pv1.n_vertices - 1)
    assert m == (0, 1)


def test_identity_is_equivalence(any_fixture):
    _, x = any_fixture
    i = identity_dmap(x)
    ok, cert = check_dihomotopy_equivalence(x, x, i, i)
    assert ok, cert
    assert check_strong(x, x, i, i)


def test_relabeling_is_equivalence(any_fixture):
    _, x = any_fixture
    rng = random.Random(3)
    perm = list(range(x.n_vertices))
    rng.shuffle(perm)
    y, f, g = relabel_complex(x, perm)
    ok, cert = check_dihomotopy_equivalence(x, y, f, g)
    assert ok, cert
    assert check_strong(x, y, f, g)


def test_grid_to_point_is_equivalence():
    x = build_grid_complex((2, 2))
    y = build_grid_complex((1,))
    # collapse everything to vertex 0 of the segment
    f = dmap_from_vertex_map(x, y, [0] * x.n_vertices)
    g = dmap_from_vertex_map(y, x, [0, 0])
    ok, cert = check_dihomotopy_equivalence(x, y, f, g)
    assert ok, cert
    assert check_strong(x, y, f, g)


def test_matchbox_projection_refuted(matchbox, topface):
    f, g = matchbox_maps()
    assert validate_dmap(matchbox, topface, f)
    assert validate_dmap(topface, matchbox, g)
    ok, failure = check_dihomotopy_equivalence(matchbox, topface, f, g)
    assert not ok
    assert isinstance(failure, EquivFailure)
    assert failure.stage == "f-class-bijection"
    assert failure.location == (0, 6)


def test_sf_hs_refuted(sf, hs):
    f, g = sf_hs_maps()
    assert validate_dmap(sf, hs, f)
    assert validate_dmap(hs, sf, g)
    ok, failure = check_dihomotopy_equivalence(sf, hs, f, g)
    assert not ok
    assert failure.stage == "f-class-bijection"


def test_accepted_implies_bisimilar(any_fixture):
    # sanity: an accepted self-equivalence never contradicts bisimilarity
    _, x = any_fixture
    i = identity_dmap(x)
    ok, _ = check_dihomotopy_equivalence(x, x, i, i)
    assert ok
    s = build_natural_system(x)
    assert bisimilar(s, s)[0]


def test_strong_implies_accepted():
    x = build_grid_complex((2, 2))
    y = build_grid_complex((1,))
    f = dmap_from_vertex_map(x, y, [0] * x.n_vertices)
    g = dmap_from_vertex_map(y, x, [0, 0])
    assert check_strong(x, y, f, g)
    ok, _ = check_dihomotopy_equivalence(x, y, f, g)
    assert ok


def test_compose_equivalences():
    x = build_grid_complex((2, 2))
    y = build_grid_complex((1,))
    f1 = dmap_from_vertex_map(x, y, [0] * x.n_vertices)
    g1 = dmap_from_vertex_map(y, x, [0, 0])
    ok1, e1 = check_dihomotopy_equivalence(x, y, f1, g1)
    i = identity_dmap(y)
    ok2, e2 = check_dihomotopy_equivalence(y, y, i, i)
    assert ok1 and ok2
    e = compose_equivalences(e1, e2)
    assert e.x is x and e.y is y


def test_compose_mismatched_middle_rejected(seg, pv1):
    i1 = identity_dmap(seg)
    i2 = identity_dmap(pv1)
    ok1, e1 = check_dihomotopy_equivalence(seg, seg, i1, i1)
    ok2, e2 = check_dihomotopy_equivalence(pv1, pv1, i2, i2)
    with pytest.raises(ModelError, match="compose"):
        compose_equivalences(e1, e2)


def test_compose_rejects_middle_models_that_differ_in_squares():
    # same vertices and edges, but only the first middle model has the square
    sq = build_grid_complex((1, 1))
    flat = PrecubicalSet(sq.n_vertices, sq.edges)
    _, e1 = check_dihomotopy_equivalence(sq, sq, identity_dmap(sq), identity_dmap(sq))
    _, e2 = check_dihomotopy_equivalence(
        flat, flat, identity_dmap(flat), identity_dmap(flat))
    with pytest.raises(ModelError, match="do not compose"):
        compose_equivalences(e1, e2)


def test_two_of_three_surjective():
    from ditop.cubecore import PrecubicalSet

    x = build_grid_complex((2, 2))
    point = PrecubicalSet(1, [])
    i = identity_dmap(x)
    ok1, e1 = check_dihomotopy_equivalence(x, x, i, i)
    f2 = dmap_from_vertex_map(x, point, [0] * x.n_vertices)
    g21 = dmap_from_vertex_map(point, x, [0])
    ok21, e21 = check_dihomotopy_equivalence(x, point, f2, g21)
    assert ok1 and ok21
    ok, cert = check_two_of_three_surjective(e1, e21, f2)
    assert ok, cert


def _random_dmap(rng, x, y):
    """A random dmap x -> y, or None.  Vertices are visited in a
    topological order, least id first (id order when ids run in one), so
    each vertex can pick an image that equals, or is one edge on from,
    the image of each in-neighbour; a square without an image gives None."""
    y_edges = set(y.edges)
    indeg = [len(x.in_edges(v)) for v in range(x.n_vertices)]
    ready = [v for v in range(x.n_vertices) if not indeg[v]]
    vm = {}
    while ready:
        v = heapq.heappop(ready)
        sources = [vm[x.edges[e][0]] for e in x.in_edges(v)]
        cands = [w for w in range(y.n_vertices)
                 if all(s == w or (s, w) in y_edges for s in sources)]
        if not cands:
            return None
        vm[v] = rng.choice(cands)
        for e in x.out_edges(v):
            t = x.edges[e][1]
            indeg[t] -= 1
            if not indeg[t]:
                heapq.heappush(ready, t)
    try:
        return dmap_from_vertex_map(x, y, [vm[v] for v in range(x.n_vertices)])
    except ModelError:
        return None


SWAP_MODELS = [
    PrecubicalSet(1, []),
    build_grid_complex((1,)),
    build_grid_complex((2,)),
    build_grid_complex((1, 1)),
    build_grid_complex((2, 1)),
    build_grid_complex((2, 2)),
    build_grid_complex((1, 1, 1)),
    build_grid_complex((3, 3), [((1, 2), (1, 2))]),
    get_fixture("wedge"),
    get_fixture("matchbox"),
    get_fixture("topface"),
]


def test_role_swap_keeps_verdicts():
    # (x, y, f, g) and (y, x, g, f) state the same conditions with the
    # roles swapped, so a wrong swap inside a check shows as a verdict
    # that depends on the order of the arguments
    rng = random.Random(7)
    checked = 0
    while checked < 400:
        x, y = rng.choice(SWAP_MODELS), rng.choice(SWAP_MODELS)
        f, g = _random_dmap(rng, x, y), _random_dmap(rng, y, x)
        if f is None or g is None:
            continue
        ok, res = check_dihomotopy_equivalence(x, y, f, g)
        ok_swapped, res_swapped = check_dihomotopy_equivalence(y, x, g, f)
        assert ok == ok_swapped, (f, g, res, res_swapped)
        assert check_strong(x, y, f, g) == check_strong(y, x, g, f), (f, g)
        checked += 1


@pytest.mark.parametrize("x, y, f_vm, g_vm, stage, location", [
    pytest.param(build_grid_complex((1,)), get_fixture("wedge"), [0, 0], [0, 0, 1],
                 "diagram-B", ((0, 1), (0, 1)), id="interval-wedge-B"),
    pytest.param(get_fixture("wedge"), get_fixture("wedge"), [0, 1, 0], [0, 1, 2],
                 "diagram-C", ((0, 2), (0, 1)), id="wedge-wedge-C"),
])
def test_diagram_failures_pinned(x, y, f_vm, g_vm, stage, location):
    # exact refutations: no arrow of any length makes the diagram commute
    f = dmap_from_vertex_map(x, y, f_vm)
    g = dmap_from_vertex_map(y, x, g_vm)
    ok, failure = check_dihomotopy_equivalence(x, y, f, g)
    assert not ok
    assert failure == EquivFailure(
        stage, location, "no preimage pair extends the source")
    assert (False, (stage, location)) == equiv_by_paths(x, y, f, g)


def test_family_b_is_reported_before_c():
    # on the fork 0 -> 1 <- 2 with f = g sending 0 to 2 and 1, 2 to 1, the
    # edge 2 -> 1 leads from the image (1, 1) of (2, 1) into (2, 1), whose
    # only preimage (0, 1) does not extend (2, 1): B and C both fail
    x = PrecubicalSet(3, [(0, 1), (2, 1)])
    f = dmap_from_vertex_map(x, x, [2, 1, 1])
    ok, failure = check_dihomotopy_equivalence(x, x, f, f)
    assert not ok
    assert failure == EquivFailure(
        "diagram-B", ((2, 1), (2, 1)), "no preimage pair extends the source")
    assert (False, ("diagram-B", ((2, 1), (2, 1)))) == equiv_by_paths(x, x, f, f)


EQUIV_MODELS = st.one_of(st.sampled_from(SWAP_MODELS), grid_models(), dag_models())


def _collapse_last_layer(x, axis):
    """The grid x without its last layer along ``axis``, the dmap that
    pushes that layer onto the one before and the inclusion back, or
    None when some cell has no image."""
    top = max(c[axis] for c in x.coords)
    keep = [v for v in range(x.n_vertices) if x.coords[v][axis] < top]
    index = {v: i for i, v in enumerate(keep)}
    edges = [(s, t) for s, t in x.edges if s in index and t in index]
    edge_index = {e: i for i, e in enumerate(edges)}
    squares = [tuple(edge_index[x.edges[e]] for e in sq) for sq in x.squares
               if all(x.edges[e] in edge_index for e in sq)]
    y = PrecubicalSet(len(keep), [(index[s], index[t]) for s, t in edges], squares)
    at = {x.coords[v]: index[v] for v in keep}
    pushed = [at.get(c[:axis] + (min(c[axis], top - 1),) + c[axis + 1:]) for c in x.coords]
    if None in pushed:
        return None
    try:
        return y, dmap_from_vertex_map(x, y, pushed), dmap_from_vertex_map(y, x, keep)
    except ModelError:
        return None


@st.composite
def certificates(draw):
    """(x, y, f, g), or None when the drawn maps are not dmaps: random
    dmaps between two models, a relabelled copy, or a grid's last layer
    collapsed along one axis with the inclusion back."""
    kind = draw(st.sampled_from(["random", "relabel", "collapse"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "random":
        x, y = draw(EQUIV_MODELS), draw(EQUIV_MODELS)
        f, g = _random_dmap(rng, x, y), _random_dmap(rng, y, x)
        return None if f is None or g is None else (x, y, f, g)
    if kind == "relabel":
        x = draw(EQUIV_MODELS)
        perm = list(range(x.n_vertices))
        rng.shuffle(perm)
        return (x, *relabel_complex(x, perm))
    x = draw(grid_models())
    axes = [i for i in range(len(x.coords[0])) if max(c[i] for c in x.coords) > 1]
    if not axes:
        return None
    collapsed = _collapse_last_layer(x, draw(st.sampled_from(axes)))
    return None if collapsed is None else (x, *collapsed)


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_equivalence_matches_the_path_oracle(cert):
    # the class-pair search against every pair of dipaths as an arrow
    assume(cert is not None)
    x, y, f, g = cert
    ok, res = check_dihomotopy_equivalence(x, y, f, g)
    assert (ok, None if ok else (res.stage, res.location)) == equiv_by_paths(x, y, f, g)
    assert ok or not check_strong(x, y, f, g)


def _induced_by_paths(own, other, m):
    """Per pair of ``own``, the class map of the dmap m into ``other``
    (both ``_PathClasses``), from the image of each least member."""
    vm = m.vertex_map
    return {(a, b): tuple(other.cls(vm[a], vm[b], _map_edges(m, p)) for p in own.least(a, b))
            for a, b in own.pairs}


@settings(max_examples=150, deadline=None)
@given(EQUIV_MODELS, EQUIV_MODELS, st.randoms(use_true_random=False))
def test_induced_class_maps_match_the_listed_dipaths(x, y, rng):
    # the row pass, collapsed edges included, against the class of the
    # image of each least member
    m = _random_dmap(rng, x, y)
    assume(m is not None)
    for (a, b), img in _induced_by_paths(_PathClasses(x), _PathClasses(y), m).items():
        assert induced_class_map(x, y, m, a, b) == img, (a, b)


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_unlifted_matches_the_full_scan(cert):
    # lemma 3: skipping the neighbours that an own edge lifts keeps the
    # first miss, on random dmaps, relabellings and layer collapses with
    # their inclusions
    assume(cert is not None)
    x, y, f, g = cert
    for own, other, m in ((x, y, f), (y, x, g)):
        vm = m.vertex_map
        assert equivcheck._unlifted(own, other, vm) == unlifted_reference(own, other, vm)


@settings(max_examples=150, deadline=None)
@given(EQUIV_MODELS, EQUIV_MODELS, st.randoms(use_true_random=False))
def test_image_arrows_commute_with_induced_maps(x, y, rng):
    # lemma 1 from listed dipaths, with no bijectivity: the image of each
    # elementary arrow commutes with the induced class maps, so diagram
    # families A and D and strong conditions (a) and (b) cannot fail
    m = _random_dmap(rng, x, y)
    assume(m is not None)
    X, Y, vm = _PathClasses(x), _PathClasses(y), m.vertex_map
    induced = _induced_by_paths(X, Y, m)
    for a, b in X.pairs:
        for (a2, b2), alpha, beta in X.arrows((a, b)):
            act = X.action((a, b), (a2, b2), alpha, beta)
            image = Y.action((vm[a], vm[b]), (vm[a2], vm[b2]),
                             _map_edges(m, alpha), _map_edges(m, beta))
            assert ([induced[(a2, b2)][k] for k in act]
                    == [image[k] for k in induced[(a, b)]])


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_inverse_class_arrows_commute_into_every_preimage(cert):
    # lemma 2 from listed dipaths, on each map whose class maps are all
    # bijective: for an elementary arrow of the other model, of classes
    # (k, l), from the image of (c, d) into the image of (c2, d2), the own
    # arrow (c, d) -> (c2, d2) of the inverse classes commutes with it
    # whenever (c2, d2) extends (c, d)
    assume(cert is not None)
    x, y, f, g = cert
    X, Y = _PathClasses(x), _PathClasses(y)
    for own, other, m in ((X, Y, f), (Y, X, g)):
        induced, vm = _induced_by_paths(own, other, m), m.vertex_map
        if any(sorted(img) != list(range(len(other.least(vm[a], vm[b]))))
               for (a, b), img in induced.items()):
            continue
        for c, d in own.pairs:
            src = (vm[c], vm[d])
            for target, alpha, beta in other.arrows(src):
                act = other.action(src, target, alpha, beta)
                k = other.cls(target[0], src[0], alpha)
                l = other.cls(src[1], target[1], beta)
                for c2, d2 in own.pairs:
                    if ((vm[c2], vm[d2]) != target or (c2, c) not in own.pair_set
                            or (d, d2) not in own.pair_set):
                        continue
                    own_act = own.action(
                        (c, d), (c2, d2), own.least(c2, c)[induced[(c2, c)].index(k)],
                        own.least(d, d2)[induced[(d, d2)].index(l)])
                    assert ([induced[(c2, d2)][j] for j in own_act]
                            == [act[j] for j in induced[(c, d)]])


@settings(max_examples=150, deadline=None)
@given(EQUIV_MODELS, st.randoms(use_true_random=False))
def test_connection_commutes_matches_the_path_oracle(x, rng):
    # stage 3 alone, on a random self-dmap h, against every dipath
    h = _random_dmap(rng, x, x)
    assume(h is not None)
    for a, b in gamma(x):
        trace_classes(x, a, b)
    for forward in (True, False):
        assert equivcheck._connection_commutes(x, h, forward) == \
            connection_commutes_by_paths(x, [h], forward)


def test_connection_commutes_pinned(matchbox):
    # h sends every vertex to the top 7: forward, w_v runs v -> 7 and
    # every pair (a, 7) has one class; backward, nothing runs 7 -> 0
    h = dmap_from_vertex_map(matchbox, matchbox, [7] * matchbox.n_vertices)
    for a, b in gamma(matchbox):
        trace_classes(matchbox, a, b)
    for forward, want in ((True, True), (False, False)):
        assert equivcheck._connection_commutes(matchbox, h, forward) is want
        assert connection_commutes_by_paths(matchbox, [h], forward) is want


def test_strong_lift_failure_pinned():
    # stages 1-3 and strong conditions (a)/(b) pass, and (d) fails: the
    # arrow of x from g(1, 1) = (0, 0) into (0, 1) needs a preimage of
    # (0, 1) under g that extends (1, 1), and (0, 2) does not
    x = build_grid_complex((1,))
    y = get_fixture("wedge")
    f = dmap_from_vertex_map(x, y, [0, 0])
    g = dmap_from_vertex_map(y, x, [0, 0, 1])
    failure, _ = equivcheck._stages_1_to_3(x, y, f, g)
    assert failure is None
    assert not check_strong(x, y, f, g)
    assert not check_strong(y, x, g, f)


def test_strong_lift_reads_the_suffix_class():
    # in a triangle the edge 0->2 is class 1 of its pair, behind the
    # path 0->1->2; lifting it as the class of the (empty) prefix would
    # break condition (c) for the identity
    t = PrecubicalSet(3, [(0, 1), (1, 2), (0, 2)])
    assert class_of(t, DPath(0, (2,))) == 1
    i = identity_dmap(t)
    assert check_strong(t, t, i, i)


def _section_obstruction(x):
    ok, found = section_exists(x)
    return None if ok else found


def _obstruction_by_scan(x):
    """The obstruction of section_exists by one trace_classes per pair,
    in gamma order."""
    for a, b in gamma(x):
        if trace_classes(x, a, b).count != 1:
            return a, b
    return None


def _equivalence_by_scan(x, y, f, g):
    """Stage 1 of the check by trace_classes, in its reading order: per
    pair of each side in gamma order, the own pair, then its image.  It
    scans certificates that are equivalences, so it accepts once the
    scan passes."""
    for own, other, m in ((x, y, f), (y, x, g)):
        for a, b in gamma(own):
            trace_classes(own, a, b)
            trace_classes(other, m.vertex_map[a], m.vertex_map[b])
    return True


def _at_cap(k, call, *models):
    """``call`` on cold copies of ``models`` with the path cap at k, or
    the pair and cap of its refusal."""
    cold = [PrecubicalSet.from_json(w.to_json()) for w in models]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubecore, "DEFAULT_PATH_CAP", k)
        try:
            return call(*cold)
        except PathCapExceeded as exc:
            return exc.pair, exc.cap


@settings(max_examples=150, deadline=None)
@given(st.one_of(grid_models(), dag_models()), st.integers(0, 30), st.data())
def test_per_pair_readers_stop_and_refuse_as_the_gamma_scan(x, k, data):
    # the section criterion stops at its first two-class pair and the
    # equivalence check reads own pair then image pair, so each refuses
    # at the first pair over the cap that a scan through trace_classes
    # reaches, and at no pair past an early stop
    assert _at_cap(k, _section_obstruction, x) == _at_cap(k, _obstruction_by_scan, x)
    i = identity_dmap(x)
    relabelled = relabel_complex(x, data.draw(st.permutations(range(x.n_vertices))))
    for y, f, g in ((x, i, i), relabelled):
        assert (_at_cap(k, lambda v, w: check_dihomotopy_equivalence(v, w, f, g)[0], x, y)
                == _at_cap(k, lambda v, w: _equivalence_by_scan(v, w, f, g), x, y))
