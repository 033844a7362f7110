import pytest
from hypothesis import example, given, settings, strategies as st

from ditop import cubecore
from ditop.cubecore import (
    DPath, PrecubicalSet, build_grid_complex, enumerate_dpaths, gamma, grid_vertex)
from ditop.errors import ModelError, PathCapExceeded
from ditop.pvlang import compile_pv, parse_pv
from ditop.traceclass import (
    arrow_action,
    class_of,
    elementary_arrows,
    extend_class,
    one_class_sources,
    trace_classes,
)

from conftest import dag_models, grid_models
from oracles import (
    cap_refusals, closure_pairs, compose_arrows, flip_class_count, flip_classes, identity_arrow,
    relabel_complex)

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


def test_two_in_edges_join_only_by_a_corner_in_the_reach():
    # v = 5 has in-edges from p = 2 and q = 3, and one from w = 7; two
    # squares on p -> v, q -> v, with corners c2 = 6 (listed first) and
    # c1 = 1.  From a = 0 only c1 is in the reach, from c2 only c2, and
    # from s = 4, which reaches p and q, neither: two classes there
    x = PrecubicalSet(8, [(0, 1), (1, 2), (1, 3), (6, 2), (6, 3), (2, 5), (3, 5), (7, 5),
                          (4, 2), (4, 3)],
                      [(3, 5, 4, 6), (1, 5, 2, 6)])
    assert [trace_classes(x, a, 5).count for a in (0, 1, 6, 4)] == [1, 1, 1, 2]
    for a, b in gamma(x):
        want = flip_classes(x, a, b)
        assert trace_classes(x, a, b).count == len(want)
        for cid, component in enumerate(want):
            for edges in component:
                assert class_of(x, DPath(a, edges)) == cid


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
@given(MODELS, st.integers(1, 6))
def test_cap_refuses_exactly_above_the_class_count(x, k):
    # pairs are read in gamma order on one copy, so later pairs find
    # tables that earlier ones glued, or left as a refusal left them
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerate_dpaths called")

    refusals = cap_refusals(x, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubecore, "enumerate_dpaths", no_enumeration)
        mp.setattr(cubecore, "DEFAULT_PATH_CAP", k)
        for a, b in gamma(x):
            if refusals[a, b]:
                with pytest.raises(PathCapExceeded) as exc:
                    trace_classes(x, a, b)
                assert (exc.value.pair, exc.value.cap) == (refusals[a, b], k)
            else:
                assert trace_classes(x, a, b).count == flip_class_count(x, a, b)


# two 2 x 2 holes off the diagonal of a 6 x 6 grid: 3 classes from 0 to top
TWO_HOLES = ((6, 6), [((1, 3), (3, 5)), ((3, 5), (1, 3))])


def _refusal(x, a, b):
    with pytest.raises(PathCapExceeded) as exc:
        trace_classes(x, a, b)
    return exc.value.pair, str(exc.value)


def test_tables_glued_under_another_cap_are_made_anew(monkeypatch):
    x, y, fresh = (build_grid_complex(*TWO_HOLES) for _ in range(3))
    top = x.n_vertices - 1
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 2)
    want = _refusal(fresh, 0, top)
    assert want == ((0, 38), "pair (0, 38) is over the path cap 2")
    # cap 3, then cap 2: refused as on a fresh copy, also when a class
    # set made at cap 3 decodes its representatives
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 3)
    old = trace_classes(x, 0, top)
    assert old.count == 3
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 2)
    with pytest.raises(PathCapExceeded):
        old.representatives
    assert _refusal(x, 0, top) == want
    # cap 2, then cap 3: the refused table is not kept
    assert _refusal(y, 0, top) == want
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 3)
    cs = trace_classes(y, 0, top)
    assert cs.count == len(cs.representatives) == 3


def test_one_pair_query_lists_no_pairs():
    x = build_grid_complex(*TWO_HOLES)
    assert trace_classes(x, 0, x.n_vertices - 1).count == 3
    assert "pairs" not in vars(x._gamma)


@pytest.mark.parametrize("n", [12, 20])
def test_one_hole_grids_past_the_old_dipath_cap(n):
    # two classes around the central hole, and from 12 x 12 on more
    # dipaths from corner to corner than the 100,000 of the path cap
    k = min(3, n - 2)
    lo = (n - k) // 2
    x = build_grid_complex((n, n), [((lo, lo + k), (lo, lo + k))])
    assert trace_classes(x, 0, x.n_vertices - 1).count == 2


def test_three_process_program_with_seventeen_classes():
    # 17 classes from 0 to top, the flip oracle's count over all its
    # dipaths (``CAP3_TOP_CLASSES`` of perfbench/workloads.py, from
    # perfbench/offline.py): too slow to recompute here
    x = build_grid_complex(*compile_pv(parse_pv("Pa Va Pb Vb | Pb Vb Pa Va | Pa Pb Vb Va")))
    assert x.n_vertices - 1 == 215
    assert trace_classes(x, 0, 215).count == 17


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


# Vertex 4 has the in-edges 3, 4 and 5, joined by the squares 5-4 and 3-5
# in that order: source 0 starts at edge 3 and reaches edge 4 only in a
# second round of spreading.
SPREADS_TWICE = PrecubicalSet(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
                              [(2, 5, 1, 4), (0, 3, 2, 5)])


@st.composite
def relabelled(draw, models):
    x = draw(models)
    return relabel_complex(x, draw(st.permutations(range(x.n_vertices))))[0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(MODELS, relabelled(MODELS)))
@example(SPREADS_TWICE)
def test_one_class_sources_match_the_flip_oracle(x):
    anc, one = one_class_sources(x)
    pairs = closure_pairs(x)
    single = {(a, v) for a, v in pairs if flip_class_count(x, a, v) == 1}
    for v in range(x.n_vertices):
        assert anc[v] == sum(1 << a for a in range(x.n_vertices) if (a, v) in pairs)
        for a in range(x.n_vertices):
            if not anc[v] >> a & 1:
                continue
            # certified only with one class; and exactly then, once every
            # in-neighbour that a reaches is certified (the lemma)
            if one[v] >> a & 1:
                assert (a, v) in single
            ins = [u for u, w in x.edges if w == v and anc[u] >> a & 1]
            if all(one[u] >> a & 1 for u in ins):
                assert bool(one[v] >> a & 1) == ((a, v) in single)
    assert (anc == one) == (single == pairs)
