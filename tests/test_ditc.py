import pytest
from hypothesis import given, settings, strategies as st

from ditop import ditc
from ditop.cubecore import PrecubicalSet, build_grid_complex, gamma, grid_vertex
from ditop.ditc import SectionPartition, ditc_exact, ditc_upper, verify_partition
from ditop.errors import BudgetExceeded
from ditop.fixtures import get_fixture
from ditop.natsys import build_natural_system
from ditop.zhom import is_dicontractible, section_exists

from conftest import ALL_FIXTURES, dag_models, grid_models
from oracles import _arrow_table_reference, ditc_reference, feasible_choice, forced_classes

MODELS = st.one_of(grid_models(), dag_models())


EXACT = {
    "seg": 1,
    "wedge": 1,
    "topface": 1,
    "matchbox": 2,
    "pv1": 2,
    "hs": 2,
    "sf": 2,
}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_exact_values(name):
    x = get_fixture(name)
    k, witness = ditc_exact(x)
    assert k == EXACT[name]
    assert verify_partition(x, witness)
    assert witness.n == k


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_exact_at_most_upper(name):
    x = get_fixture(name)
    ku, wu = ditc_upper(x)
    ke, _ = ditc_exact(x)
    assert ke <= ku
    assert verify_partition(x, wu)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_exact_one_iff_section(name):
    x = get_fixture(name)
    assert (ditc_exact(x)[0] == 1) == section_exists(x)[0]


def test_pv1_hand_built_partition(pv1):
    # split off the pairs straddling the hole: starts before it, ends after
    c1 = {grid_vertex(pv1, (i, j)) for i in (0, 1) for j in (0, 1)}
    c4 = {grid_vertex(pv1, (i, j)) for i in (2, 3) for j in (2, 3)}
    straddling = frozenset((a, b) for a, b in gamma(pv1) if a in c1 and b in c4)
    rest = frozenset(gamma(pv1).pairs) - straddling
    choices = {p: 0 for p in gamma(pv1)}
    sp = SectionPartition((rest, straddling), choices)
    assert verify_partition(pv1, sp)


def test_single_part_fails_on_pv1(pv1):
    sp = SectionPartition(
        (frozenset(gamma(pv1).pairs),), {p: 0 for p in gamma(pv1)}
    )
    assert not verify_partition(pv1, sp)


def test_a_missing_choice_is_refused_not_raised(pv1):
    # the arrow check reads a target's choice, which may come before the
    # target's own turn in the part's order
    pairs = frozenset(gamma(pv1).pairs)
    for missing in pairs:
        choices = {p: 0 for p in pairs if p != missing}
        assert not verify_partition(pv1, SectionPartition((pairs,), choices))


def test_partition_must_cover(seg):
    sp = SectionPartition((frozenset({(0, 0)}),), {(0, 0): 0})
    assert not verify_partition(seg, sp)


def test_partition_must_be_disjoint(seg):
    every = frozenset(gamma(seg).pairs)
    sp = SectionPartition((every, every), {p: 0 for p in every})
    assert not verify_partition(seg, sp)


def test_full_grid_is_one():
    x = build_grid_complex((3, 3))
    k, w = ditc_exact(x)
    assert k == 1
    assert verify_partition(x, w)


def test_part_cap_budget(monkeypatch, pv1):
    monkeypatch.setattr(ditc, "DEFAULT_PART_CAP", 1)
    with pytest.raises(BudgetExceeded):
        ditc_exact(pv1)


def test_system_budget_refused_before_any_class_is_built(monkeypatch):
    # a 71-vertex chain: 2,556 reachable pairs, and an arrow per in-edge
    # of a and per out-edge of b for each pair (a, b): 2 x 2,485 arrows
    monkeypatch.setattr(ditc, "DEFAULT_SYSTEM_BUDGET", 2556 + 4970 - 1)
    x = PrecubicalSet(71, [(i, i + 1) for i in range(70)])
    for search in (ditc_exact, ditc_upper):
        with pytest.raises(BudgetExceeded) as exc:
            search(x)
        assert str(exc.value) == (
            "the natural system has 2,556 objects and 4,970 arrows, "
            "over the size budget 7,525")
    assert x._class_cache == {}
    system = build_natural_system(x)
    assert len(system.objects) + sum(map(len, system.arrows)) == 7526
    monkeypatch.setattr(ditc, "DEFAULT_SYSTEM_BUDGET", 7526)
    assert ditc_exact(x)[0] == 1


@pytest.mark.parametrize("budget, message", [
    (0, "greedy stopped at part 1 after 0 search nodes"),
    (9, "branch and bound stopped at part 0 after 9 search nodes"),
])
def test_node_budget_names_the_stage_part_and_nodes(monkeypatch, budget, message):
    # greedy needs 3 parts here, and 9 nodes to find them; branch and
    # bound then finds 2 after 33 more
    x = PrecubicalSet(4, [(2, 0), (0, 1), (3, 1), (3, 1), (3, 2), (0, 1), (3, 2)])
    monkeypatch.setattr(ditc, "DEFAULT_NODE_BUDGET", budget)
    with pytest.raises(BudgetExceeded) as exc:
        ditc_exact(x)
    assert str(exc.value) == message + ", the node budget"
    monkeypatch.setattr(ditc, "DEFAULT_NODE_BUDGET", 42)
    assert ditc_exact(x)[0] == 2


def test_greedy_on_the_9x9_grid_solves_once_per_part(monkeypatch):
    # the closure refuses every pair that greedy defers, so the only
    # solves left are the least choices of the parts
    calls = []
    solve = ditc._Part.solve

    def counting(part):
        calls.append(len(part.members))
        return solve(part)

    monkeypatch.setattr(ditc._Part, "solve", counting)
    x = _one_hole_grid(9)
    n, sp = ditc_upper(x)
    assert n == 2 and len(calls) <= n
    assert verify_partition(x, sp)


def test_exact_builds_the_arrow_table_once(monkeypatch, pv1):
    calls = []
    build = ditc._arrow_table

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ditc, "_arrow_table", counting)
    assert ditc_exact(pv1)[0] == 2
    assert len(calls) == 1


def _outcome(search, x, **kwargs):
    try:
        return search(x, **kwargs)
    except BudgetExceeded as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(MODELS)
def test_search_matches_the_from_scratch_reference(x):
    upper = ditc_upper(x)
    assert upper == ditc_reference(x, upper=True)
    assert verify_partition(x, upper[1])
    for cap in (ditc.DEFAULT_PART_CAP, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ditc, "DEFAULT_PART_CAP", cap)
            exact = _outcome(ditc_exact, x)
        assert exact == _outcome(ditc_reference, x, cap=cap)
        if not isinstance(exact, str):
            assert verify_partition(x, exact[1])


@settings(max_examples=150, deadline=None)
@given(MODELS, st.data())
def test_a_part_agrees_with_a_from_scratch_solve(x, data):
    pairs, counts, succ, pred = ditc._arrow_table(x)
    _, pair_counts, arrows = _arrow_table_reference(x)
    part = ditc._Part(counts, succ, pred)
    members = []
    for p in data.draw(st.permutations(range(len(pairs))))[:30]:
        for _ in range(data.draw(st.integers(0, min(2, len(members))))):
            part.remove(members.pop(data.draw(st.integers(0, len(members) - 1))))
        feasible = feasible_choice([pairs[q] for q in members + [p]],
                                   pair_counts, arrows) is not None
        assert part.add(p) == feasible
        if feasible:
            members.append(p)
        assert part.members == set(members)
        assert {pairs[q]: c for q, c in part.forced.items()} == forced_classes(
            [pairs[q] for q in members], pair_counts, arrows)
        choice = {pairs[q]: c for q, c in part.choices().items()}
        assert choice == feasible_choice([pairs[q] for q in members], pair_counts, arrows)


def test_the_closure_rules_on_a_hand_built_table(monkeypatch):
    # objects: r with one class, q, p, s, t and u with two
    r, q, p, s, t, u = range(6)
    counts = (1, 2, 2, 2, 2, 2)
    succ, pred = [[] for _ in counts], [[] for _ in counts]
    for a, b, action in [(r, q, (1,)), (p, q, (1, 0)), (p, s, (0, 1)),
                         (t, q, (1, 1)), (u, q, (0, 0))]:
        preimage = {}
        for c, d in enumerate(action):
            preimage.setdefault(d, []).append(c)
        succ[a].append((b, action, preimage))
        pred[b].append((a, action, preimage))
    solves = []
    solve = ditc._Part.solve
    monkeypatch.setattr(ditc._Part, "solve", lambda part: solves.append(1) or solve(part))
    part = ditc._Part(counts, succ, pred)
    for v in (r, q, s):
        assert part.add(v)
    assert part.forced == {q: 1}  # the target of a one-class member
    assert part.add(p)
    assert part.forced == {q: 1, p: 0, s: 0}  # the one preimage, then forward
    assert part.add(t)
    assert part.forced == {q: 1, p: 0, s: 0}  # two preimages force nothing
    assert not part.add(u)  # no preimage: refused with no search
    assert solves == [] and part.members == {r, q, s, p, t}
    part.remove(q)
    assert part.forced == {}
    assert part.choices() == {r: 0, s: 0, p: 0, t: 0}


def _one_hole_grid(n):
    k = min(3, n - 2)
    lo = (n - k) // 2
    return build_grid_complex((n, n), [((lo, lo + k), (lo, lo + k))])


@pytest.mark.parametrize("n", range(4, 9))
def test_one_hole_grids_match_the_reference(n):
    x = _one_hole_grid(n)
    # greedy gives 2, which the reference's branch and bound cannot improve
    reference = ditc_reference(x, upper=True)
    assert reference[0] == 2
    assert ditc_upper(x) == reference
    assert ditc_exact(x) == reference


# Found by a random search of 3,000 draws: each is the smallest draw on
# which the wrong search named above it gives a different answer.
SEARCH_CASES = [
    # 2- and 3-class pairs in one part: the least choice depends on
    # deciding the pairs with most classes first
    (7, [(4, 6), (2, 4), (5, 6), (6, 0), (2, 0), (4, 5), (3, 4), (3, 0), (3, 1), (1, 6)],
     [(6, 0, 8, 9), (8, 9, 6, 0)], 2, 2),
    # greedy needs 3 parts, branch and bound finds 2
    (4, [(2, 0), (0, 1), (3, 1), (3, 1), (3, 2), (0, 1), (3, 2)], [], 3, 2),
    # the core solver backtracks over a decided pair
    (6, [(4, 5), (1, 4), (2, 4), (4, 0), (1, 4), (2, 4), (2, 0), (1, 2), (1, 4), (5, 0),
         (1, 0), (2, 0)],
     [(7, 6, 4, 3), (4, 3, 7, 6), (4, 3, 7, 11), (7, 11, 1, 3), (1, 3, 7, 11), (7, 11, 4, 3)],
     3, 2),
    # an action with two preimages of a class: backward propagation may
    # not pick one of them
    (4, [(3, 1), (2, 1), (3, 2), (3, 2), (2, 1), (0, 3), (2, 1), (0, 3), (0, 3), (2, 1), (3, 1),
         (2, 1)],
     [(2, 1, 3, 4), (2, 6, 3, 4), (3, 11, 2, 6), (2, 1, 3, 6)], 3, 3),
]


@pytest.mark.parametrize("n, edges, squares, upper, exact", SEARCH_CASES)
def test_search_cases_match_the_reference(n, edges, squares, upper, exact):
    x = PrecubicalSet(n, edges, squares)
    assert ditc_upper(x) == ditc_reference(x, upper=True)
    assert ditc_exact(x) == ditc_reference(x)
    assert (ditc_upper(x)[0], ditc_exact(x)[0]) == (upper, exact)


@settings(max_examples=200, deadline=None)
@given(MODELS)
def test_ditc_is_one_exactly_when_a_section_exists(x):
    assert (ditc_exact(x)[0] == 1) == section_exists(x)[0]


def test_the_empty_complex():
    # no pairs: no part is needed and a section exists vacuously, but with
    # no component the complex is not contractible, so not dicontractible
    x = PrecubicalSet(0, [])
    empty = (0, SectionPartition((), {}))
    assert ditc_exact(x) == empty
    assert ditc_upper(x) == empty
    assert section_exists(x)[0]
    assert not is_dicontractible(x)


def test_a_greedy_value_of_two_is_returned_without_search(monkeypatch):
    made = []

    class Counted(ditc._Part):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(ditc, "_Part", Counted)
    assert ditc_exact(_one_hole_grid(5))[0] == 2
    assert len(made) == 2  # the two greedy parts
    monkeypatch.setattr(ditc, "DEFAULT_PART_CAP", 1)
    with pytest.raises(BudgetExceeded, match="part cap 1; best bound 2"):
        ditc_exact(_one_hole_grid(5))
