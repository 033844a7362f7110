import pytest

from ditop import ditc
from ditop.cubecore import PrecubicalSet, build_grid_complex, gamma, grid_vertex
from ditop.ditc import SectionPartition, ditc_exact, ditc_upper, verify_partition
from ditop.errors import BudgetExceeded
from ditop.fixtures import get_fixture
from ditop.zhom import section_exists

from conftest import ALL_FIXTURES


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


def test_part_cap_budget(pv1):
    with pytest.raises(BudgetExceeded):
        ditc_exact(pv1, cap=1)


def test_gamma_cap_refused_before_any_class_is_built():
    # a 71-vertex chain has 2,556 reachable pairs, over GAMMA_CAP
    x = PrecubicalSet(71, [(i, i + 1) for i in range(70)])
    with pytest.raises(BudgetExceeded, match="reachable pairs"):
        ditc_exact(x)
    assert x._class_cache == {}


def test_exact_builds_the_arrow_table_once(monkeypatch, pv1):
    calls = []
    build = ditc._arrow_table

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ditc, "_arrow_table", counting)
    assert ditc_exact(pv1)[0] == 2
    assert len(calls) == 1
