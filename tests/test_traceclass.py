import pytest
from hypothesis import given, settings, strategies as st

from ditop import cubecore
from ditop.cubecore import (
    DPath, PrecubicalSet, build_grid_complex, enumerate_dpaths, gamma, grid_vertex)
from ditop.errors import ModelError, PathCapExceeded
from ditop.traceclass import (
    _table,
    arrow_action,
    class_of,
    elementary_arrows,
    extend_class,
    trace_classes,
)

from conftest import dag_models, grid_models
from oracles import (
    closure_pairs, compose_arrows, flip_class_count, flip_classes, identity_arrow, path_count_dp)

MODELS = st.one_of(grid_models(), dag_models())


def test_pv1_two_classes_min_to_max(pv1):
    cs = trace_classes(pv1, 0, pv1.n_vertices - 1)
    assert cs.count == 2


def test_full_grid_single_class():
    x = build_grid_complex((3, 3))
    assert trace_classes(x, 0, x.n_vertices - 1).count == 1


def test_matchbox_class_counts(matchbox):
    assert trace_classes(matchbox, 0, 6).count == 2  # around the open face
    assert trace_classes(matchbox, 0, 7).count == 1  # over the lid


def test_hs_straddling_pair(hs):
    a = grid_vertex(hs, (0, 0))
    b = grid_vertex(hs, (5, 5))
    assert trace_classes(hs, a, b).count == 2


def test_counts_match_flip_closure_oracle(pv1):
    for a, b in gamma(pv1):
        assert trace_classes(pv1, a, b).count == flip_class_count(pv1, a, b)


def test_squares_sharing_edge_pairs_all_glue():
    # four paths 0 -> 3 through 1, 2, 4 and 5; the first square shares its
    # edge pair (0, 1) with the second and (2, 3) with the third, and all
    # three squares together join the four paths into one class
    x = PrecubicalSet(6, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 3), (0, 5), (5, 3)],
                      [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 6, 7)])
    assert trace_classes(x, 0, 3).count == 1
    assert flip_class_count(x, 0, 3) == 1


def test_representatives_are_lex_least(pv1):
    # least in the enumeration order: lexicographic on vertex sequences
    def vkey(edges):
        return tuple(pv1.edges[e][1] for e in edges)

    top = pv1.n_vertices - 1
    cs = trace_classes(pv1, 0, top)
    for i, rep in enumerate(cs.representatives):
        members = [p.edges for p in enumerate_dpaths(pv1, 0, top) if class_of(pv1, p) == i]
        assert vkey(rep.edges) == min(vkey(m) for m in members)


def test_class_of_consistent(pv1):
    for cid, component in enumerate(flip_classes(pv1, 0, pv1.n_vertices - 1)):
        for edges in component:
            assert class_of(pv1, DPath(0, edges)) == cid


def test_class_of_rejects_foreign_path(pv1):
    with pytest.raises(ModelError):
        class_of(pv1, DPath(0, (999,)))


def test_extend_class_identity(pv1):
    pair = (0, pv1.n_vertices - 1)
    ident = identity_arrow(pair)
    for c in range(trace_classes(pv1, *pair).count):
        assert extend_class(pv1, ident, c) == c


def test_extend_class_validates_arrow(pv1):
    from ditop.traceclass import ExtensionArrow

    bad = ExtensionArrow((0, 5), (1, 5), DPath(1), DPath(5))
    with pytest.raises(ModelError):
        extend_class(pv1, bad, 0)


def test_elementary_arrows_shape(pv1):
    pair = (5, 10)
    for ar in elementary_arrows(pv1, pair):
        assert ar.source == pair
        assert len(ar.alpha.edges) + len(ar.beta.edges) == 1
        # prefix runs into the source start, suffix out of the source end
        assert pv1.check_path(ar.alpha) == ar.target[0] or ar.alpha.start == ar.target[0]


def test_extend_class_functorial(pv1):
    # acting by a composite equals acting in two steps
    for pair in gamma(pv1):
        for a1 in elementary_arrows(pv1, pair):
            for a2 in elementary_arrows(pv1, a1.target):
                comp = compose_arrows(pv1, a1, a2)
                for c in range(trace_classes(pv1, *pair).count):
                    assert extend_class(pv1, comp, c) == \
                        extend_class(pv1, a2, extend_class(pv1, a1, c))


def test_compose_arrows_endpoint_check(pv1):
    arrows = list(elementary_arrows(pv1, (0, 5)))
    with pytest.raises(ModelError, match="compose"):
        compose_arrows(pv1, arrows[0], arrows[0])


def test_cached_classes_respect_a_smaller_cap():
    # the cached set holds 70 paths; a cap lowered to 10 must refuse it
    # as a cold model would, not return the cached answer
    x = build_grid_complex((4, 4))
    top = x.n_vertices - 1
    assert trace_classes(x, 0, top).count == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubecore, "DEFAULT_PATH_CAP", 10)
        with pytest.raises(PathCapExceeded) as exc:
            trace_classes(x, 0, top)
        assert exc.value.pair == (0, top)
        mp.setattr(cubecore, "DEFAULT_PATH_CAP", 70)
        assert trace_classes(x, 0, top).count == 1


@settings(max_examples=150, deadline=None)
@given(MODELS)
def test_classes_match_the_flip_oracle(x):
    # counts, representatives and so class ids, and class_of on every path
    for a, b in gamma(x):
        want = flip_classes(x, a, b)
        cs = trace_classes(x, a, b)
        assert cs.count == len(want)
        assert [rep.edges for rep in cs.representatives] == [c[0] for c in want]
        for cid, component in enumerate(want):
            for edges in component:
                assert class_of(x, DPath(a, edges)) == cid


@settings(max_examples=100, deadline=None)
@given(MODELS)
def test_actions_match_the_flip_oracle_and_compose(x):
    def oracle_class(pair, edges):
        return next(i for i, c in enumerate(flip_classes(x, *pair)) if edges in c)

    for pair in gamma(x):
        reps = trace_classes(x, *pair).representatives
        for a1 in elementary_arrows(x, pair):
            assert arrow_action(x, a1) == tuple(
                oracle_class(a1.target, a1.alpha.edges + rep.edges + a1.beta.edges)
                for rep in reps)
            for a2 in elementary_arrows(x, a1.target):
                comp = compose_arrows(x, a1, a2)
                assert arrow_action(x, comp) == tuple(
                    extend_class(x, a2, extend_class(x, a1, c)) for c in range(len(reps)))


@settings(max_examples=100, deadline=None)
@given(MODELS, st.integers(0, 30))
def test_cap_refuses_exactly_above_the_path_count(x, k):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerate_dpaths called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubecore, "enumerate_dpaths", no_enumeration)
        mp.setattr(cubecore, "DEFAULT_PATH_CAP", k)
        for a, b in gamma(x):
            if path_count_dp(x, a, b) > k:
                with pytest.raises(PathCapExceeded) as exc:
                    trace_classes(x, a, b)
                assert (exc.value.pair, exc.value.cap) == ((a, b), k)
            else:
                assert trace_classes(x, a, b).count >= 1


@settings(max_examples=100, deadline=None)
@given(MODELS, st.data())
def test_a_table_counts_the_dipaths_to_its_whole_reach(x, data):
    # on a cold copy, and after one-pair queries glued part of the tables
    def check(w, sources):
        for a in sources:
            t = _table(w, a)
            assert set(t.paths) == t.reach
            assert all(t.paths[v] == path_count_dp(w, a, v) for v in t.reach)

    sources = st.lists(st.integers(0, x.n_vertices - 1), min_size=1, max_size=3)
    check(PrecubicalSet.from_json(x.to_json()), data.draw(sources))
    queries = data.draw(st.lists(st.sampled_from(sorted(closure_pairs(x))), max_size=3))
    for a, b in queries:
        trace_classes(x, a, b)
    check(x, [a for a, _ in queries] + data.draw(sources))


def test_classes_of_a_long_chain():
    x = PrecubicalSet(3001, [(i, i + 1) for i in range(3000)])
    cs = trace_classes(x, 0, 3000)
    assert cs.count == 1
    assert cs.representatives[0].edges == tuple(range(3000))
    assert class_of(x, DPath(1000, tuple(range(1000, 3000)))) == 0


def test_one_pair_builds_only_the_vertices_between_it():
    x = build_grid_complex((6, 6))
    a, b = grid_vertex(x, (1, 1)), grid_vertex(x, (2, 3))
    assert trace_classes(x, a, b).count == 1
    assert sorted(x._class_cache) == [a]
    between = {v for v in range(x.n_vertices)
               if all(p <= c <= q for p, c, q in zip((1, 1), x.coords[v], (2, 3)))}
    assert set(x._class_cache[a].count) == between
