import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ditop.cubecore import (
    DPath,
    PrecubicalSet,
    build_grid_complex,
    concat,
    enumerate_dpaths,
    gamma,
    grid_vertex,
    reachable,
)
from ditop.errors import ModelError, PathCapExceeded
from ditop.pvlang import compile_pv, parse_pv

from conftest import dag_models, grid_models
from oracles import (
    all_paths_bfs,
    brute_grid_cells,
    closure_pairs,
    grid_reference,
    path_count_dp,
    relabel_complex,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_edge_endpoint_validation():
    with pytest.raises(ModelError, match="unknown endpoint"):
        PrecubicalSet(2, [(0, 5)])


def test_square_commutation_validation():
    # 0->1->3 and 0->2->3 commute; swapping roles must not
    edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
    PrecubicalSet(4, edges, [(0, 1, 2, 3)])
    with pytest.raises(ModelError, match="commute"):
        PrecubicalSet(4, edges, [(0, 2, 1, 3)])


def test_cycle_rejected():
    with pytest.raises(ModelError, match="cycle"):
        PrecubicalSet(2, [(0, 1), (1, 0)])
    with pytest.raises(ModelError, match="cycle"):
        PrecubicalSet(3, [(0, 1), (1, 1), (1, 2)])


def test_json_roundtrip_byte_stable(any_fixture):
    _, x = any_fixture
    text = x.to_json()
    y = PrecubicalSet.from_json(text)
    assert y.to_json() == text
    assert y.edges == x.edges
    assert y.squares == x.squares


@st.composite
def grids(draw):
    """Dims of 1-3 axes and 0-3 boxes; a box may span every axis in full."""
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 4 if n < 3 else 3)) for _ in range(n))
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        box = []
        for d in dims:
            lo = draw(st.integers(0, d - 1))
            hi = draw(st.integers(lo + 1, d))
            box.append((lo, hi))
        boxes.append(tuple(box))
    return dims, boxes


@settings(max_examples=120, deadline=None)
@given(grids())
def test_grid_matches_midpoint_oracle(case):
    dims, boxes = case
    x = build_grid_complex(dims, boxes)
    verts, edges, squares = brute_grid_cells(dims, boxes)
    assert x.coords == tuple(sorted(verts))
    got_edges = {
        (x.coords[s], tuple(b - a for a, b in zip(x.coords[s], x.coords[t])))
        for s, t in x.edges
    }
    want_edges = {
        (p, tuple(1 if i == k else 0 for i in range(len(dims))))
        for p, k in edges
    }
    assert got_edges == want_edges
    assert len(x.squares) == len(squares)


def test_gamma_matches_closure_oracle(any_fixture):
    _, x = any_fixture
    assert set(gamma(x).pairs) == closure_pairs(x)


@settings(max_examples=150, deadline=None)
@given(dag_models())
def test_gamma_pairs_and_reach_match_the_closure_oracle(x):
    # vertex ids in no topological order, and parallel edges
    g = gamma(x)
    want = sorted(closure_pairs(x))
    assert g.pairs == tuple(want)
    for a in range(x.n_vertices):
        assert g.reach(a) == {b for s, b in want if s == a}


def test_reachable_consistent_with_gamma(sf):
    pairs = set(gamma(sf).pairs)
    for a in range(sf.n_vertices):
        for b in range(sf.n_vertices):
            assert reachable(sf, a, b) == ((a, b) in pairs)


def test_enumeration_counts_match_dp(any_fixture):
    _, x = any_fixture
    for a, b in gamma(x):
        assert len(enumerate_dpaths(x, a, b)) == path_count_dp(x, a, b)


def test_enumeration_lexicographic(pv1):
    paths = enumerate_dpaths(pv1, 0, pv1.n_vertices - 1)
    seqs = [tuple(pv1.edges[e][1] for e in p.edges) for p in paths]
    assert seqs == sorted(seqs)


def test_enumeration_unreachable_rejected(seg):
    with pytest.raises(ModelError, match="not reachable"):
        enumerate_dpaths(seg, 1, 0)


def test_path_cap():
    x = build_grid_complex((4, 4))
    with pytest.raises(PathCapExceeded) as exc:
        enumerate_dpaths(x, 0, x.n_vertices - 1, cap=10)
    assert exc.value.pair == (0, x.n_vertices - 1)


def test_enumeration_of_a_long_chain():
    # 3000 edges: deeper than Python's default recursion limit
    x = PrecubicalSet(3001, [(i, i + 1) for i in range(3000)])
    (p,) = enumerate_dpaths(x, 0, 3000)
    assert p.edges == tuple(range(3000))
    with pytest.raises(PathCapExceeded):
        enumerate_dpaths(x, 0, 3000, cap=0)


@settings(max_examples=100, deadline=None)
@given(st.one_of(grid_models(), dag_models()), st.integers(0, 12))
def test_enumeration_order_and_cap_match_the_bfs_oracle(x, k):
    for a, b in gamma(x):
        want = sorted(all_paths_bfs(x, a, b),
                      key=lambda p: [(x.edges[e][1], e) for e in p])
        if len(want) > k:
            with pytest.raises(PathCapExceeded):
                enumerate_dpaths(x, a, b, cap=k)
        else:
            assert [p.edges for p in enumerate_dpaths(x, a, b, cap=k)] == want


def test_gamma_membership(sf):
    pairs = closure_pairs(sf)
    g = gamma(sf)
    for a in range(sf.n_vertices):
        for b in range(sf.n_vertices):
            assert ((a, b) in g) == ((a, b) in pairs)
    assert "not a pair" not in g


def test_concat_checks_endpoints(seg):
    p = DPath(0, (0,))
    with pytest.raises(ModelError, match="mismatch"):
        concat(seg, p, p)
    q = concat(seg, DPath(0), p)
    assert q == p


@pytest.mark.parametrize("p, q", [
    (DPath(0, (99,)), DPath(3)),
    (DPath(0, (-1,)), DPath(3)),
    (DPath(0, (3,)), DPath(3)),
    (DPath(0, (0,)), DPath(2, (99,))),
    (DPath(0, (0,)), DPath(2, (2,))),
])
def test_concat_rejects_invalid_paths(p, q):
    # on the 1x1 grid, edge 0 runs 0 -> 2, edge 2 runs 1 -> 3 and edge 3
    # runs 2 -> 3: unknown, negative and gapped edges on either side
    x = build_grid_complex((1, 1))
    assert [x.edges[e] for e in (0, 2, 3)] == [(0, 2), (1, 3), (2, 3)]
    with pytest.raises(ModelError):
        concat(x, p, q)


def test_check_path_rejects_gaps(pv1):
    with pytest.raises(ModelError, match="consecutive"):
        bad = DPath(0, (0, 0))
        pv1.check_path(bad)


def test_grid_vertex_lookup(pv1):
    assert grid_vertex(pv1, (0, 0)) == 0
    assert grid_vertex(pv1, (3, 3)) == pv1.n_vertices - 1
    with pytest.raises(ModelError):
        grid_vertex(pv1, (9, 9))


def test_grid_vertex_of_every_point(pv1):
    with pytest.raises(ModelError):
        grid_vertex(pv1, (0, 0, 0))
    x = build_grid_complex((2, 3, 1), [((0, 1), (1, 2), (0, 1))])
    assert [grid_vertex(x, list(p)) for p in x.coords] == list(range(x.n_vertices))
    with pytest.raises(ModelError, match="not a grid"):
        grid_vertex(PrecubicalSet(1, []), (0,))


def _check_square_index(x):
    """``_ends`` maps each vertex that ends a square, and no other, to the
    squares whose right edge ends there, in square order."""
    for v in range(x.n_vertices):
        assert list(x._ends.get(v, ())) == [sq for sq in x.squares if x.edges[sq[1]][1] == v]
    assert set(x._ends) == {x.edges[sq[1]][1] for sq in x.squares}


def test_square_index_by_end_vertex(any_fixture):
    _check_square_index(any_fixture[1])


def test_matchbox_is_the_cube_without_its_bottom_face(matchbox):
    assert (matchbox.n_vertices, len(matchbox.edges)) == (8, 12)
    corners = {(matchbox.coords[matchbox.edges[b][0]], matchbox.coords[matchbox.edges[r][1]])
               for b, r, _, _ in matchbox.squares}
    assert len(matchbox.squares) == 5
    assert corners == {
        ((0, 0, 0), (0, 1, 1)), ((1, 0, 0), (1, 1, 1)),  # x = 0, x = 1
        ((0, 0, 0), (1, 0, 1)), ((0, 1, 0), (1, 1, 1)),  # y = 0, y = 1
        ((0, 0, 1), (1, 1, 1)),  # z = 1
    }


def test_grid_dims_validation():
    with pytest.raises(ModelError):
        build_grid_complex(())
    with pytest.raises(ModelError):
        build_grid_complex((0,))
    with pytest.raises(ModelError, match="out of range"):
        build_grid_complex((2,), [((0, 3),)])


def _workload_programs():
    """The PV programs of the benchmark's workloads (its ``PV2`` and
    ``PV3``), read from its file without running it."""
    programs = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("PV2", "PV3"):
            programs.update(ast.literal_eval(node.value))
    assert len(programs) >= 7
    return programs


PV_GRIDS = [compile_pv(parse_pv(src)) for _, src in sorted(_workload_programs().items())]


def _check_construction(x):
    """Adjacency sorted as documented, a topological ``_rank``, the
    square index, and the same adjacency and index after a JSON round
    trip."""
    for v in range(x.n_vertices):
        assert x.out_edges(v) == sorted(
            (e for e, (s, _) in enumerate(x.edges) if s == v), key=lambda e: (x.edges[e][1], e))
        assert x.in_edges(v) == sorted(
            (e for e, (_, t) in enumerate(x.edges) if t == v), key=lambda e: (x.edges[e][0], e))
    assert sorted(x._rank) == list(range(x.n_vertices))
    assert all(x._rank[s] < x._rank[t] for s, t in x.edges)
    _check_square_index(x)
    y = PrecubicalSet.from_json(x.to_json())
    assert (y._in, y._out, y._ends) == (x._in, x._out, x._ends)
    assert all(y._rank[s] < y._rank[t] for s, t in y.edges)


@settings(max_examples=150, deadline=None)
@given(st.one_of(grids(), st.sampled_from(PV_GRIDS)), st.randoms(use_true_random=False))
def test_grid_build_matches_the_cell_by_cell_reference(case, rnd):
    dims, boxes = case
    x = build_grid_complex(dims, boxes)
    assert x.to_json() == grid_reference(dims, boxes).to_json()
    _check_construction(x)
    # a relabelled copy lists its vertices in no topological order
    perm = list(range(x.n_vertices))
    rnd.shuffle(perm)
    _check_construction(relabel_complex(x, perm)[0])


@settings(max_examples=100, deadline=None)
@given(dag_models())
def test_construction_of_random_dags(x):
    _check_construction(x)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: PrecubicalSet(2, [(0, 1.7)]), r"edge \(0, 1.7\) must be 2 integers",
                 id="float endpoint"),
    pytest.param(lambda: PrecubicalSet(2, [(0, True)]), "must be 2 integers", id="bool endpoint"),
    pytest.param(lambda: PrecubicalSet(2, [(0,)]), "must be 2 integers", id="short edge"),
    pytest.param(lambda: PrecubicalSet(2, [5]), "integer sequences", id="edge an integer"),
    pytest.param(lambda: PrecubicalSet(2.0, [(0, 1)]), "vertex count 2.0", id="float count"),
    pytest.param(lambda: PrecubicalSet(True, []), "vertex count True", id="bool count"),
    pytest.param(lambda: PrecubicalSet(-1, []), "vertex count -1", id="negative count"),
    pytest.param(lambda: PrecubicalSet(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [(0.0, 1, 2, 3)]),
                 "integer edge ids",
                 id="float square edge"),
    pytest.param(lambda: PrecubicalSet(2, [(0, 1)], labels={1.0: "x"}), "unknown vertex 1.0",
                 id="float label key"),
    pytest.param(lambda: build_grid_complex((2.5, 2)), "must be integers", id="float dim"),
    pytest.param(lambda: build_grid_complex((True, 2)), "must be integers", id="bool dim"),
    pytest.param(lambda: build_grid_complex((3, 3), [(1, 2)]), "integer pairs", id="box of ints"),
    pytest.param(lambda: build_grid_complex((3, 3), [((1, 2), (1.5, 2))]), "integer pairs",
                 id="float box end"),
    pytest.param(lambda: build_grid_complex((3, 3), [((1, 2, 3), (1, 2))]), "integer pairs",
                 id="box triple"),
    pytest.param(lambda: build_grid_complex((3, 3), [5]), "integer pairs", id="box an integer"),
])
def test_constructors_refuse_what_is_not_an_integer(make, message):
    # these were truncated by int(), or escaped as TypeError or ValueError
    with pytest.raises(ModelError, match=message):
        make()
