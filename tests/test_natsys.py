import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ditop import cubecore
from ditop.cubecore import PrecubicalSet, build_grid_complex, gamma
from ditop.errors import BudgetExceeded, PathCapExceeded
from ditop.fixtures import get_fixture
from ditop.natsys import (
    BIJECTION_CAP,
    BisimCounterexample,
    BisimRelation,
    _refinement_colors,
    bisimilar,
    build_natural_system,
    is_weakly_dicontractible,
    trivial_system,
)
from ditop.traceclass import elementary_arrows, trace_classes
from ditop.zhom import is_dicontractible

from conftest import ALL_FIXTURES, collapse_pairs, dag_models, grid_models, larger_grid_models
from oracles import _refinement_colors as jacobi_colors
from oracles import (
    bisim_gfp, bisim_pairs_reference, closure_pairs, flip_class_count, flip_classes,
    natural_system_reference, path_count_dp, relabel_complex)


def test_seg_system_shape(seg):
    s = build_natural_system(seg)
    assert s.objects == ((0, 0), (0, 1), (1, 1))
    assert s.counts == (1, 1, 1)


def test_hs_has_two_class_objects(hs):
    s = build_natural_system(hs)
    assert max(s.counts) == 2
    assert 2 in s.counts


def test_arrow_targets_in_range(any_fixture):
    _, x = any_fixture
    s = build_natural_system(x)
    for i, arrs in enumerate(s.arrows):
        for j, action in arrs:
            assert 0 <= j < s.n_objects
            assert len(action) == s.counts[i]
            assert all(0 <= c < s.counts[j] for c in action)


def test_bisimilar_reflexive(any_fixture):
    _, x = any_fixture
    s = build_natural_system(x)
    ok, rel = bisimilar(s, s)
    assert ok
    assert isinstance(rel, BisimRelation)
    # the identity pairing is among the witnesses
    pairs = {(a, b) for a, _, b in rel.triples}
    assert all((o, o) in pairs for o in s.objects)


def test_bisimilar_symmetric(any_fixture):
    _, x = any_fixture
    s = build_natural_system(x)
    t = trivial_system()
    assert bisimilar(s, t)[0] == bisimilar(t, s)[0]


def test_relabeling_invariance(any_fixture):
    import random

    _, x = any_fixture
    rng = random.Random(7)
    perm = list(range(x.n_vertices))
    rng.shuffle(perm)
    y, _, _ = relabel_complex(x, perm)
    ok, _ = bisimilar(build_natural_system(x), build_natural_system(y))
    assert ok


WEAKLY_DICONTRACTIBLE = {
    "seg": True,
    "wedge": True,
    "topface": True,
    "pv1": False,
    "sf": False,
    "hs": False,
    "matchbox": False,
}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_weak_dicontractibility_table(name):
    assert is_weakly_dicontractible(get_fixture(name)) == WEAKLY_DICONTRACTIBLE[name]


def test_two_isolated_vertices_are_weakly_but_not_dicontractible():
    x = PrecubicalSet(2, [])
    assert is_weakly_dicontractible(x)
    assert not is_dicontractible(x)


def test_sf_hs_not_bisimilar_counterexample(sf, hs):
    ok, witness = bisimilar(build_natural_system(sf), build_natural_system(hs))
    assert not ok
    assert isinstance(witness, BisimCounterexample)
    # the reported object involves the deadlock vertex of the left system
    assert witness.side == "left"
    assert 14 in witness.obj


def test_bijection_cap():
    from ditop.cubecore import PrecubicalSet, gamma

    x = PrecubicalSet(2, [(0, 1)] * 7)  # 7 parallel edges, 7 classes
    s = build_natural_system(x)
    with pytest.raises(BudgetExceeded, match="bijection cap"):
        bisimilar(s, s)


@pytest.mark.parametrize("swap", [False, True])
def test_object_over_the_cap_without_partner_is_uncovered(seg, swap):
    # the 7-class object (0, 1) has no same-colour partner in seg, so no
    # bijection set is built for it: the answer is "not bisimilar", not a
    # refusal, in both orders
    x = PrecubicalSet(2, [(0, 1)] * 7)
    s, t = build_natural_system(x), build_natural_system(seg)
    if swap:
        s, t = t, s
    ok, witness = bisimilar(s, t)
    assert not ok
    assert (witness.side, witness.obj) == ("left", (0, 1))


def test_trivial_self_bisimilar():
    ok, rel = bisimilar(trivial_system(), trivial_system())
    assert ok
    assert rel.size == 1
    assert rel.triples == ((("*", "*"), (0,), ("*", "*")),)


def _hole_box(n):
    """The central hole of the benchmark grids: 3 cells wide (n - 2 below 5)."""
    k = min(3, n - 2)
    lo = (n - k) // 2
    return ((lo, lo + k), (lo, lo + k))


def _holed(n):
    return build_grid_complex((n, n), [_hole_box(n)])


# relation sizes of one-hole n x n grids against themselves, from the
# object-pair worklist (now oracles.bisim_pairs_reference); 9 x 9 from the
# block refinement alone
@pytest.mark.parametrize("n, size", [
    (3, 2576), (4, 7200), (5, 14752), (6, 48907), (7, 139945), (9, 768864)])
def test_self_relation_size_pinned(n, size):
    s = build_natural_system(_holed(n))
    ok, rel = bisimilar(s, s)
    assert ok and rel.size == size
    if n <= 4:
        assert len(rel.triples) == size


def test_hole_moved_relation_size_pinned():
    (lo, hi), _ = _hole_box(6)
    moved = build_grid_complex((6, 6), [((lo + 1, hi + 1), (lo, hi))])
    ok, rel = bisimilar(build_natural_system(_holed(6)), build_natural_system(moved))
    assert ok and rel.size == 49245


def _two_holes(n):
    return build_grid_complex((n, n), [((1, 3), (n - 3, n - 1)), ((n - 3, n - 1), (1, 3))])


@pytest.mark.parametrize("left, right, obj", [
    (lambda: get_fixture("sf"), lambda: get_fixture("hs"), (0, 14)),
    (lambda: _holed(6), lambda: build_grid_complex((6, 6)), (0, 44)),
    (lambda: _two_holes(6), lambda: _holed(6), (0, 46)),
], ids=["sf-hs", "H6-F6", "T6-H6"])
def test_counterexample_pinned(left, right, obj):
    ok, witness = bisimilar(build_natural_system(left()), build_natural_system(right()))
    assert not ok
    assert (witness.side, witness.obj) == ("left", obj)


MODELS = st.one_of(grid_models(), dag_models())
ORACLE_PAIRS = 2500  # object pairs the definition-level oracle checks per example


def _as_oracle(result):
    verdict, detail = result
    return verdict, detail.triples if verdict else (detail.side, detail.obj)


def _check_against_oracle(x, y):
    # the objects are the reachable pairs: filter on them before any class work
    assume(len(gamma(x)) * len(gamma(y)) <= ORACLE_PAIRS)
    s, t = build_natural_system(x), build_natural_system(y)
    assume(max(s.counts + t.counts, default=0) <= BIJECTION_CAP)
    got = bisimilar(s, t)
    assert _as_oracle(got) == bisim_gfp(s, t)
    assert bisimilar(t, s)[0] == got[0]


@settings(max_examples=150, deadline=None)
@given(MODELS, MODELS)
@example(PrecubicalSet(0, []), build_grid_complex((1,)))
def test_bisimilar_matches_the_definition(x, y):
    _check_against_oracle(x, y)


@settings(max_examples=150, deadline=None)
@given(MODELS, st.data())
def test_bisimilar_to_a_relabelled_copy_matches_the_definition(x, data):
    perm = data.draw(st.permutations(range(x.n_vertices)))
    y, _, _ = relabel_complex(x, perm)
    _check_against_oracle(x, y)


# Found by random search: parallel edges give two-class objects whose
# actions the colours ignore, so the fixed point prunes same-colour pairs,
# some only after a pair they reach has lost its bijections.  A fixed
# point that never re-checks predecessors keeps 24 and 48 pairs; one that
# skips the right object's arrows into one-class objects keeps 35 in the
# second complex.
PRUNING = [
    # vertices, edges, squares, surviving object pairs (of 35 and 53)
    (4, [(0, 1), (2, 0), (3, 1), (2, 0), (2, 3), (2, 3)],
     [(4, 2, 3, 0), (3, 0, 5, 2)], 17),
    (6, [(1, 2), (3, 2), (1, 2), (5, 1), (5, 3), (2, 0), (3, 0)],
     [(4, 1, 3, 2), (4, 1, 3, 0), (3, 2, 4, 1), (3, 0, 4, 1)], 31),
]


@pytest.mark.parametrize("n, edges, squares, size", PRUNING)
def test_fixed_point_prunes_pairs_the_colours_keep(n, edges, squares, size):
    s = build_natural_system(PrecubicalSet(n, edges, squares))
    ok, rel = bisimilar(s, s)
    assert ok
    assert len(rel.triples) == size
    assert (True, rel.triples) == bisim_gfp(s, s)


# Found by random search: a block check memoises what each member keeps on
# its coset and the moves of the member and of the representative, but what
# they keep also depends on the groups of the blocks those moves reach.  Here
# a block is checked again after one of those groups has shrunk; a memo kept
# from the earlier check answers for the larger group and keeps 38 pairs.
RECHECK = (6, [(1, 2), (1, 3), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)],
           [(0, 5, 1, 7), (0, 5, 2, 7)])


def test_block_checked_again_after_a_group_it_reaches_shrank():
    s = build_natural_system(PrecubicalSet(*RECHECK))
    ok, rel = bisimilar(s, s)
    assert ok
    assert len(rel.triples) == 34
    assert (True, rel.triples) == bisim_gfp(s, s)


REFERENCE_PAIRS = 40_000  # object pairs per example for the pair worklist


def _outcome(fn, s, t):
    try:
        verdict, detail = fn(s, t)
    except BudgetExceeded as exc:
        return "refused", str(exc)
    if isinstance(detail, BisimRelation):
        assert detail.size == len(detail.triples)
        detail = detail.triples
    elif isinstance(detail, BisimCounterexample):
        detail = (detail.side, detail.obj)
    return verdict, detail


@st.composite
def reference_inputs(draw):
    """Two models: independent draws, a model and a relabelled copy, or a
    grid and the same grid with its last row collapsed."""
    kind = draw(st.sampled_from(["independent", "relabelled", "collapse"]))
    if kind == "collapse":
        return draw(collapse_pairs())
    x = draw(st.one_of(larger_grid_models(), dag_models()))
    if kind == "relabelled":
        y, _, _ = relabel_complex(x, draw(st.permutations(range(x.n_vertices))))
    else:
        y = draw(st.one_of(larger_grid_models(), dag_models()))
    return x, y


# The 2x2 grid without its diagonal cells: a colour class that shrinks
# after it split others must split them again (a splitter colouring that
# skips that keeps 218 pairs, not 194).
ANTI_DIAGONAL = build_grid_complex((2, 2), [((0, 1), (0, 1)), ((1, 2), (1, 2))])
# A grid against parallel edges: the refinement leaves a part of several
# left objects and no right one, which must become singletons; kept as a
# block it would count as covered and hide the reported left (0, 2).
ONE_SIDED = (build_grid_complex((2, 2), [((0, 1), (0, 1)), ((0, 1), (1, 2))]),
             PrecubicalSet(4, [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2)],
                           [(0, 3, 1, 4), (0, 4, 1, 3), (0, 3, 2, 4)]))


@settings(max_examples=120, deadline=None)
@given(reference_inputs(), st.booleans())
@example((ANTI_DIAGONAL, ANTI_DIAGONAL), False)
@example(ONE_SIDED, False)
def test_bisimilar_matches_the_pair_reference(models, swap):
    x, y = reversed(models) if swap else models
    assume(len(gamma(x)) * len(gamma(y)) <= REFERENCE_PAIRS)
    s, t = build_natural_system(x), build_natural_system(y)
    assert _outcome(bisimilar, s, t) == _outcome(bisim_pairs_reference, s, t)


@settings(max_examples=120, deadline=None)
@given(reference_inputs())
@example((ANTI_DIAGONAL, ANTI_DIAGONAL))
def test_colours_match_the_jacobi_refinement(models):
    s, t = (build_natural_system(x) for x in models)
    n_s = s.n_objects
    arrows = s.arrows + tuple(tuple((n_s + o, act) for o, act in arr) for arr in t.arrows)
    preds = [[] for _ in arrows]
    for u, arr in enumerate(arrows):
        for v, _ in arr:
            preds[v].append(u)
    got = {frozenset(c) for c in _refinement_colors(s.counts + t.counts, preds)}
    jacobi = jacobi_colors([s, t])
    want = {}
    for (side, o), c in jacobi.items():
        want.setdefault(c, set()).add(o + side * n_s)
    assert got == {frozenset(c) for c in want.values()}


def _under_cap(cap, call, *args):
    """``call(*args)`` with the path cap lowered to ``cap`` (None keeps
    the default), or the pair and cap of its refusal."""
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(cubecore, "DEFAULT_PATH_CAP", cap)
        try:
            return call(*args)
        except PathCapExceeded as exc:
            return exc.pair, exc.cap


def _system_or_refusal(build, x, cap):
    return _under_cap(cap, lambda: repr(build(x)))


def _expected_system(x, cap):
    """The first pair in gamma order with more dipaths than the cap, and
    the cap; else the pair-by-pair reference system on a cold copy."""
    limit = cubecore.DEFAULT_PATH_CAP if cap is None else cap
    for a, b in sorted(closure_pairs(x)):
        if path_count_dp(x, a, b) > limit:
            return (a, b), limit
    return _system_or_refusal(natural_system_reference, PrecubicalSet.from_json(x.to_json()), cap)


@settings(max_examples=200, deadline=None)
@given(st.one_of(grid_models(), dag_models()), st.data())
def test_natural_system_matches_the_pair_reference(x, data):
    # whole tables against one trace_classes per object and arrow target:
    # the same system, or a refusal at the first pair over the cap, on a
    # cold copy and on one whose tables some one-pair queries already started
    if data.draw(st.booleans()):
        x, _, _ = relabel_complex(x, data.draw(st.permutations(range(x.n_vertices))))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 30)))
    want = _expected_system(x, cap)
    # drawn without gamma, so these tables find their reach by search
    for a, b in data.draw(st.lists(st.sampled_from(sorted(closure_pairs(x))), max_size=3)
                          if x.n_vertices else st.just([])):
        _under_cap(data.draw(st.one_of(st.none(), st.integers(0, 30))), trace_classes, x, a, b)
    assert _system_or_refusal(build_natural_system, x, cap) == want


def test_refusal_names_the_first_pair_over_the_cap_in_gamma_order():
    # (1, 2) and (0, 3) both have two dipaths; (0, 3) comes first in
    # gamma order, though the in-edge arrow of object (0, 2) reaches (1, 2)
    x = PrecubicalSet(4, [(1, 0), (0, 2), (1, 2), (2, 3), (2, 3)])
    assert _system_or_refusal(build_natural_system, x, 1) == _expected_system(x, 1) == ((0, 3), 1)


def _reversed(x):
    """x with every edge reversed: a square (b, r, l, t) becomes (r, b, t, l)."""
    return PrecubicalSet(x.n_vertices, [(v, u) for u, v in x.edges],
                         [(r, b, t, l) for b, r, l, t in x.squares])


# The prefix arrow (6, 0) -> (7, 0) of the reversed matchbox maps two
# classes into one, with action (0, 0); the fixtures have no such prefix
# arrow, only suffix ones like matchbox's (0, 6) -> (0, 7).
@settings(max_examples=100, deadline=None)
@given(st.one_of(grid_models(), dag_models()))
@example(_reversed(get_fixture("matchbox")))
def test_natural_system_matches_the_flip_oracle(x):
    s = build_natural_system(x)
    assert s.objects == tuple(sorted(closure_pairs(x)))
    classes = {pair: flip_classes(x, *pair) for pair in s.objects}

    def oracle_class(pair, edges):
        return next(i for i, c in enumerate(classes[pair]) if edges in c)

    for pair, count, arrows in zip(s.objects, s.counts, s.arrows):
        assert count == flip_class_count(x, *pair)
        reps = [c[0] for c in classes[pair]]
        want = [(s.objects.index(ar.target),
                 tuple(oracle_class(ar.target, ar.alpha.edges + rep + ar.beta.edges)
                       for rep in reps))
                for ar in elementary_arrows(x, pair)]
        assert list(arrows) == want
