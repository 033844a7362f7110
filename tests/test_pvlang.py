import pytest
from hypothesis import given, strategies as st

from ditop import pvlang
from ditop.errors import ModelError
from ditop.pvlang import PVSyntaxError, compile_pv, parse_pv, pretty_print


def test_single_mutex_pair():
    prog = parse_pv("Pa Va | Pa Va")
    assert len(prog.processes) == 2
    assert prog.resources == ["a"]
    assert prog.critical_intervals(0) == {"a": [(1, 2)]}


def test_pretty_print_roundtrip_fixed():
    src = "Pa Pb Vb Va | Pb Pa Va Vb"
    assert pretty_print(parse_pv(src)) == src


@st.composite
def pv_programs(draw):
    # build lock-disciplined processes by construction
    names = ["a", "b", "c"]
    procs = []
    for _ in range(draw(st.integers(1, 3))):
        actions = []
        held = []
        for _ in range(draw(st.integers(0, 6))):
            if held and draw(st.booleans()):
                res = draw(st.sampled_from(held))
                held.remove(res)
                actions.append(f"V{res}")
            else:
                free = [r for r in names if r not in held]
                if not free:
                    continue
                res = draw(st.sampled_from(free))
                held.append(res)
                actions.append(f"P{res}")
        for res in reversed(held):
            actions.append(f"V{res}")
        procs.append(" ".join(actions))
    if all(not p for p in procs):
        procs[0] = "Pa Va"
    return " | ".join(procs)


@given(pv_programs())
def test_parse_pretty_roundtrip(src):
    prog = parse_pv(src)
    again = parse_pv(pretty_print(prog))
    assert [[(a.kind, a.resource) for a in p] for p in prog.processes] == \
        [[(a.kind, a.resource) for a in p] for p in again.processes]


def test_bad_token_position():
    with pytest.raises(PVSyntaxError) as exc:
        parse_pv("Pa\nQx Va")
    assert exc.value.line == 2
    assert exc.value.col == 1


def test_relock_rejected():
    with pytest.raises(ModelError, match="re-lock"):
        parse_pv("Pa Pa Va Va")


def test_unmatched_unlock_rejected():
    with pytest.raises(ModelError, match="unmatched unlock"):
        parse_pv("Va")


def test_never_released_rejected():
    with pytest.raises(ModelError, match="never released"):
        parse_pv("Pa")


def test_empty_program_rejected():
    with pytest.raises(ModelError, match="empty"):
        parse_pv("   ")


def test_compile_shapes():
    dims, boxes = compile_pv(parse_pv("Pa Va | Pa Va"))
    assert dims == (3, 3)
    assert boxes == [((1, 2), (1, 2))]


def test_compile_swiss_flag_boxes():
    dims, boxes = compile_pv(parse_pv("Pa Pb Vb Va | Pb Pa Va Vb"))
    assert dims == (5, 5)
    assert sorted(boxes) == [((1, 4), (2, 3)), ((2, 3), (1, 4))]


def test_compile_three_processes_slack_axis():
    dims, boxes = compile_pv(parse_pv("Pa Va | Pa Va | Pb Vb"))
    assert dims == (3, 3, 3)
    # the third process does not touch 'a': full extent on its axis
    assert boxes == [((1, 2), (1, 2), (0, 3))]


def test_dimension_cap():
    with pytest.raises(ModelError, match="dimension cap"):
        compile_pv(parse_pv("Pa Va | Pa Va | Pa Va | Pa Va"))


def test_the_dimension_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(pvlang, "DEFAULT_DIM_CAP", 4)
    dims, boxes = compile_pv(parse_pv("Pa Va | Pa Va | Pa Va | Pa Va"))
    assert dims == (3, 3, 3, 3) and len(boxes) == 6
    monkeypatch.setattr(pvlang, "DEFAULT_DIM_CAP", 1)
    with pytest.raises(ModelError, match="2 processes exceed the dimension cap 1"):
        compile_pv(parse_pv("Pa Va | Pa Va"))


def test_disjoint_resources_no_boxes():
    dims, boxes = compile_pv(parse_pv("Pa Va | Pb Vb"))
    assert boxes == []
