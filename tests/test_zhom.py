import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ditop import cubecore, zhom
from ditop.cubecore import PrecubicalSet, build_grid_complex, gamma, grid_vertex
from ditop.errors import PathCapExceeded
from ditop.fixtures import get_fixture
from ditop.traceclass import one_class_sources, trace_classes
from ditop.zhom import (
    homology_ranks,
    is_contractible_surrogate,
    is_dicontractible,
    section_exists,
    smith_normal_form,
)

from conftest import ALL_FIXTURES, dag_models, grid_models, larger_grid_models
from oracles import (
    boundary_dense, det, flip_class_count, homology_dense, mat_mul, path_count_dp, relabel_complex)


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [
        [draw(st.integers(-9, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_invariants(m):
    res = smith_normal_form(m)
    # U M V = D
    assert mat_mul(mat_mul(res.U, m), res.V) == res.D
    # D diagonal with divisibility
    diag = res.diagonal()
    for i, row in enumerate(res.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # U and V unimodular
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1


def test_boundary_composition_zero(any_fixture):
    # d1 . d2 = 0
    _, x = any_fixture
    d1, d2 = boundary_dense(x)
    if x.squares:
        prod = mat_mul(d1, d2)
        assert all(v == 0 for row in prod for v in row)


HOMOLOGY = {
    "seg": (1, 0, []),
    "wedge": (1, 0, []),
    "topface": (1, 0, []),
    "matchbox": (1, 0, []),
    "pv1": (1, 1, []),
    "hs": (1, 1, []),
    "sf": (1, 1, []),
}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_homology_table(name):
    assert homology_ranks(get_fixture(name)) == HOMOLOGY[name]


def _two_path_squares(edges):
    """Every square that glues two distinct 2-edge paths with the same
    ends."""
    paths = [(a, b) for a, (_, m) in enumerate(edges)
             for b, (m2, _) in enumerate(edges) if m2 == m]
    return [(b, r, l, t) for b, r in paths for l, t in paths
            if (b, r) != (l, t) and edges[b][0] == edges[l][0]
            and edges[r][1] == edges[t][1]]


def _twisted(edges, square):
    """The square with right and top swapped, when both paths go through
    one middle vertex: the two differ by 2*(right - top), which can
    make 2-torsion."""
    bottom, right, left, top = square
    if edges[right][0] == edges[top][0]:
        return [(bottom, top, left, right)]
    return []


@st.composite
def parallel_edge_models(draw):
    """A chain of up to 4 vertices with parallel edges between
    neighbours, and squares glued onto its 2-edge paths."""
    n = draw(st.integers(2, 4))
    edges = draw(st.lists(st.sampled_from([(i, i + 1) for i in range(n - 1)]),
                          max_size=8))
    quads = _two_path_squares(edges)
    squares = draw(st.lists(st.sampled_from(quads), max_size=6)) if quads else []
    for sq in squares[:draw(st.integers(0, len(squares)))]:
        squares += _twisted(edges, sq)
    return PrecubicalSet(n, edges, squares)


@settings(max_examples=150, deadline=None)
@given(st.one_of(grid_models(), dag_models(), parallel_edge_models()))
@example(PrecubicalSet(0, []))
def test_homology_matches_dense_oracle(x):
    assert homology_ranks(x) == homology_dense(x)


def test_homology_matches_dense_oracle_with_torsion():
    # a seeded sweep that is sure to meet torsion, which hypothesis
    # draws only now and then
    rng = random.Random(5)
    torsion = 0
    for _ in range(1000):
        n = rng.randint(2, 5)
        forward = [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n]
        edges = rng.choices(forward, k=rng.randint(0, 12))
        quads = _two_path_squares(edges)
        squares = rng.sample(quads, min(len(quads), rng.randint(0, 6)))
        for sq in squares[:rng.randint(0, len(squares))]:
            squares += _twisted(edges, sq)
        x = PrecubicalSet(n, edges, squares)
        ranks = homology_ranks(x)
        assert ranks == homology_dense(x), (x.edges, x.squares)
        torsion += bool(ranks[2])
    assert torsion >= 20


def test_torsion_reaches_the_residual_snf(monkeypatch):
    # H1 = Z + Z/2: after one unit pivot the second column is
    # 2*e0 - 2*e2, which has no unit entry left
    x = PrecubicalSet(3, [(1, 2), (0, 1), (1, 2), (0, 1), (0, 1)],
                      [(3, 2, 1, 0), (3, 0, 1, 2)])
    assert homology_dense(x) == (1, 1, [2])
    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(zhom, "smith_normal_form", counted)
    assert homology_ranks(x) == (1, 1, [2])
    assert len(calls) == 1
    assert sorted(v for row in calls[0] for v in row) == [-2, 2]


@pytest.mark.parametrize("n", [5, 10, 20, 30])
def test_grid_homology_needs_no_dense_step(n, monkeypatch):
    def no_snf(m):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(zhom, "smith_normal_form", no_snf)
    hole = (n // 2 - 1, n // 2 + 1)
    assert homology_ranks(build_grid_complex((n, n), [[hole, hole]])) == (1, 1, [])


DICONTRACTIBLE = {
    "seg": True,
    "wedge": True,
    "topface": True,
    "matchbox": False,
    "pv1": False,
    "hs": False,
    "sf": False,
}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_dicontractibility_table(name):
    assert is_dicontractible(get_fixture(name)) == DICONTRACTIBLE[name]


def test_surrogate_alone_misses_directed_obstruction(matchbox):
    # trivial homology but two classes around the missing face
    assert is_contractible_surrogate(matchbox)
    ok, obstruction = section_exists(matchbox)
    assert not ok
    assert obstruction == (0, 6)


def test_pv1_obstruction_pair(pv1):
    ok, obstruction = section_exists(pv1)
    assert not ok
    assert obstruction == (0, 10)


def test_section_stops_at_the_first_two_class_pair_before_the_cap():
    # (0, top) has 2,695,444 dipaths and three classes, but the section
    # criterion stops at (0, 49), the first pair with two classes
    x = build_grid_complex((12, 12), [((1, 3), (9, 11)), ((9, 11), (1, 3))])
    assert path_count_dp(x, 0, x.n_vertices - 1) == 2_695_444
    assert section_exists(x) == (False, (0, 49))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_section_check_agrees_with_the_table_scan(name):
    x = get_fixture(name)
    first = next((p for p in gamma(x) if trace_classes(x, *p).count > 1), None)
    anc, one = one_class_sources(x)
    assert (anc == one) == (first is None)
    ok, found = section_exists(x)
    assert (ok, None if ok else found) == (first is None, first)


@settings(max_examples=150, deadline=None)
@given(st.one_of(grid_models(), larger_grid_models(), dag_models()), st.data())
def test_section_criterion_matches_the_flip_oracle(x, data):
    # the bitset check decides every model, so a True answer glues no
    # class table
    y, _, _ = relabel_complex(x, data.draw(st.permutations(range(x.n_vertices))))
    for z in (x, y):
        ok, _ = section_exists(z)
        assert ok == all(flip_class_count(z, a, b) == 1 for a, b in gamma(z))
        assert (z._class_cache == {}) == ok


def test_three_in_edges_joined_through_the_third():
    # the xy-square ending at (2, 2, 2) is cut, so its x and y in-edges
    # are joined only through the z in-edge: by its xz- and yz-squares
    # for a source that reaches (2, 2, 1), by nothing for one that does not
    x = build_grid_complex((3, 3, 3), [[(1, 2), (1, 2), (1, 3)]])
    v = grid_vertex(x, (2, 2, 2))
    assert len(x.in_edges(v)) == 3
    assert trace_classes(x, 0, v).count == 1
    assert trace_classes(x, grid_vertex(x, (0, 0, 2)), v).count == 2
    assert section_exists(x) == (False, (grid_vertex(x, (0, 0, 2)), v))


def test_three_in_edges_disconnected_for_a_source():
    # cutting the xz-square as well leaves the x in-edge of (2, 2, 2) on
    # its own, for the least corner too
    x = build_grid_complex((3, 3, 3), [[(1, 2), (1, 2), (1, 3)], [(1, 2), (1, 3), (1, 2)]])
    v = grid_vertex(x, (2, 2, 2))
    assert len(x.in_edges(v)) == 3
    assert trace_classes(x, 0, v).count == 2
    assert section_exists(x) == (False, (0, v))


def test_a_one_class_model_is_decided_without_a_class_table():
    x = build_grid_complex((7, 7))
    assert section_exists(x) == (True, None)
    assert x._class_cache == {}
    assert "pairs" not in vars(gamma(x))


def test_the_section_scan_lists_no_pairs():
    # the scan reads the reach bitsets source by source and skips the
    # certified pairs; the first pair with two classes runs from 0 to the
    # top corner of the hole
    x = build_grid_complex((10, 10), [((3, 6), (3, 6))])
    assert section_exists(x) == (False, (0, grid_vertex(x, (6, 6))))
    assert "pairs" not in vars(gamma(x))


@pytest.mark.parametrize("n", [10, 30])
def test_large_hole_free_grids_are_decided_without_a_class_table(n):
    # C(2n, n) dipaths from corner to corner, far more than the path cap,
    # and one class for every pair
    x = build_grid_complex((n, n))
    assert section_exists(x)[0]
    assert x._class_cache == {}


def test_the_path_cap_is_read_at_each_call(monkeypatch):
    # two holes off the diagonal leave three classes from corner to
    # corner; each call reads the cap as it stands, and a refusal stores
    # nothing, so a retry under a larger cap decides
    x = build_grid_complex((6, 6), [((1, 3), (3, 5)), ((3, 5), (1, 3))])
    top = x.n_vertices - 1
    first = next(w for w in x._order if flip_class_count(x, 0, w) == 3)
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 2)
    with pytest.raises(PathCapExceeded) as exc:
        trace_classes(x, 0, top)
    assert (exc.value.pair, exc.value.cap) == ((0, first), 2)
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 3)
    assert trace_classes(x, 0, top).count == 3
    # the section scan is refused at its first two-class pair under a cap
    # of 1, and finds it as the obstruction under a cap of 2
    y = PrecubicalSet.from_json(x.to_json())
    ok, obstruction = section_exists(x)
    assert not ok
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 1)
    with pytest.raises(PathCapExceeded) as exc:
        section_exists(y)
    assert exc.value.pair == obstruction
    monkeypatch.setattr(cubecore, "DEFAULT_PATH_CAP", 2)
    assert section_exists(y) == (False, obstruction)


def test_a_source_spreads_over_more_than_one_round():
    # the in-edges 3, 4, 5 of vertex 4 are joined by the squares 5-4 and
    # 3-5, in that order, so the source 0, which starts at 3, reaches 4
    # only in a second round
    x = PrecubicalSet(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
                      [(2, 5, 1, 4), (0, 3, 2, 5)])
    assert all(flip_class_count(x, a, b) == 1 for a, b in gamma(x))
    assert section_exists(x)[0]
    assert x._class_cache == {}
