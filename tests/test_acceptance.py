"""Acceptance gate: seven end-to-end criteria with runtime bounds.

Each test prints one visible pass/fail line (bypassing capture) so a
plain ``pytest -v`` run shows the per-criterion verdicts.
"""
import random
import time

import pytest

from ditop.cubecore import PrecubicalSet, build_grid_complex, gamma, grid_vertex
from ditop.ditc import SectionPartition, ditc_exact, verify_partition
from ditop.equivcheck import (
    check_dihomotopy_equivalence,
    check_strong,
    compose_equivalences,
    dmap_from_vertex_map,
)
from ditop.fixtures import get_fixture, matchbox_maps
from ditop.natsys import bisimilar, build_natural_system
from ditop.traceclass import elementary_arrows, extend_class, trace_classes
from ditop.zhom import is_dicontractible, smith_normal_form

from oracles import (
    compose_arrows, det, flip_class_count, mat_mul, path_count_dp, relabel_complex)


def _report(capsys, n, label, ok, started, limit):
    elapsed = time.monotonic() - started
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {n}] {label}: {verdict} ({elapsed:.2f}s)")
    assert ok
    assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_1_deadlock_distinguishes_bisimilarity(capsys, sf, hs):
    started = time.monotonic()
    verdict, witness = bisimilar(build_natural_system(sf), build_natural_system(hs))
    deadlock = grid_vertex(sf, (2, 2))
    ok = (
        not verdict
        and witness.side == "left"
        and deadlock in witness.obj
    )
    _report(capsys, 1, "two-mutex vs hollow square not bisimilar", ok, started, 10.0)


def test_criterion_2_open_box_projection(capsys, matchbox, topface):
    started = time.monotonic()
    alpha = 6  # far bottom corner of the missing face
    f, g = matchbox_maps()
    two = trace_classes(matchbox, 0, alpha).count
    one = trace_classes(topface, f.vertex_map[0], f.vertex_map[alpha]).count
    verdict, failure = check_dihomotopy_equivalence(matchbox, topface, f, g)
    ok = (
        two == 2
        and one == 1
        and not verdict
        and failure.location == (0, alpha)
    )
    _report(capsys, 2, "open box vs its lid", ok, started, 5.0)


@pytest.mark.parametrize("name,expected", [
    ("seg", True),
    ("wedge", True),
    ("sf", False),
    ("pv1", False),
    ("matchbox", False),
])
def test_criterion_3_dicontractibility_table(capsys, name, expected):
    started = time.monotonic()
    ok = is_dicontractible(get_fixture(name)) == expected
    _report(capsys, 3, f"dicontractibility of {name}", ok, started, 5.0)


def test_criterion_4_directed_complexity(capsys, pv1):
    started = time.monotonic()
    k, witness = ditc_exact(pv1)
    ok = k == 2 and verify_partition(pv1, witness)
    # the hand-built partition: pairs straddling the hole form one part
    before = {grid_vertex(pv1, (i, j)) for i in (0, 1) for j in (0, 1)}
    after = {grid_vertex(pv1, (i, j)) for i in (2, 3) for j in (2, 3)}
    straddling = frozenset(
        (a, b) for a, b in gamma(pv1) if a in before and b in after
    )
    rest = frozenset(gamma(pv1).pairs) - straddling
    structured = SectionPartition(
        (rest, straddling), {p: 0 for p in gamma(pv1)}
    )
    ok = ok and verify_partition(pv1, structured)
    for name in ("seg", "wedge", "topface"):
        x = get_fixture(name)
        n, w = ditc_exact(x)
        ok = ok and n == 1 and verify_partition(x, w)
    _report(capsys, 4, "directed complexity values", ok, started, 30.0)


def _random_grid(rng):
    dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
    boxes = []
    if rng.random() < 0.7:
        box = []
        for d in dims:
            lo = rng.randrange(d)
            box.append((lo, rng.randint(lo + 1, d)))
        boxes.append(tuple(box))
    x = build_grid_complex(dims, boxes)
    if x.n_vertices == 0:  # box closed on every axis: fully blocked
        return build_grid_complex(dims)
    return x


def test_criterion_5_lemma_suite(capsys):
    started = time.monotonic()
    rng = random.Random(20260823)
    point = PrecubicalSet(1, [])
    violations = []
    for trial in range(200):
        x = _random_grid(rng)
        perm = list(range(x.n_vertices))
        rng.shuffle(perm)
        y, f, g = relabel_complex(x, perm)

        # dihomeomorphism accepted, both strongly and at class level
        if not check_strong(x, y, f, g):
            violations.append((trial, "strong rejected a dihomeomorphism"))
            continue
        ok1, e1 = check_dihomotopy_equivalence(x, y, f, g)
        if not ok1:
            violations.append((trial, "strong passed but class check refused"))
            continue

        # collapse map: strong-check => equivalence-check
        h = dmap_from_vertex_map(x, point, [0] * x.n_vertices)
        hb = dmap_from_vertex_map(point, x, [0])
        if check_strong(x, point, h, hb):
            okc, _ = check_dihomotopy_equivalence(x, point, h, hb)
            if not okc:
                violations.append((trial, "strong collapse not accepted"))

        # composition of accepted certificates re-verifies
        ok2, e2 = check_dihomotopy_equivalence(y, x, g, f)
        if ok2:
            try:
                compose_equivalences(e1, e2)
            except Exception as exc:  # noqa: BLE001
                violations.append((trial, f"composition failed: {exc}"))

        # accepted equivalence => bisimilar natural systems
        if not bisimilar(build_natural_system(x), build_natural_system(y))[0]:
            violations.append((trial, "accepted but not bisimilar"))

        # accepted equivalence => equal directed complexity
        if ditc_exact(x)[0] != ditc_exact(y)[0]:
            violations.append((trial, "accepted but complexity differs"))

    ok = not violations
    _report(capsys, 5, "200 randomized invariance instances", ok, started, 120.0)


def test_criterion_6_algebra_suite(capsys):
    started = time.monotonic()
    rng = random.Random(6)
    violations = []

    for trial in range(1000):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        diag = res.diagonal()
        if mat_mul(mat_mul(res.U, m), res.V) != res.D:
            violations.append((trial, "U M V != D"))
        if any(
            v for i, row in enumerate(res.D) for j, v in enumerate(row) if i != j
        ):
            violations.append((trial, "D not diagonal"))
        if any(b % a for a, b in zip(diag, diag[1:])):
            violations.append((trial, "divisibility chain broken"))
        if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
            violations.append((trial, "transform not unimodular"))

    for name in ("seg", "wedge", "pv1", "sf", "hs", "matchbox", "topface"):
        x = get_fixture(name)
        for pair in gamma(x):
            for a1 in elementary_arrows(x, pair):
                for a2 in elementary_arrows(x, a1.target):
                    comp = compose_arrows(x, a1, a2)
                    for c in range(trace_classes(x, *pair).count):
                        two_step = extend_class(x, a2, extend_class(x, a1, c))
                        if extend_class(x, comp, c) != two_step:
                            violations.append((name, pair, "not functorial"))
        s = build_natural_system(x)
        if not bisimilar(s, s)[0]:
            violations.append((name, "not reflexive"))
        perm = list(range(x.n_vertices))
        random.Random(60).shuffle(perm)
        y, _, _ = relabel_complex(x, perm)
        sy = build_natural_system(y)
        fwd = bisimilar(s, sy)[0]
        bwd = bisimilar(sy, s)[0]
        if not (fwd and bwd):
            violations.append((name, "relabeling invariance or symmetry broken"))

    ok = not violations
    _report(capsys, 6, "SNF, functoriality, bisimulation algebra", ok, started, 300.0)


def test_criterion_7_flip_quotient_oracle(capsys):
    started = time.monotonic()
    ok = True
    for name in ("seg", "wedge", "pv1", "sf", "hs", "matchbox", "topface"):
        x = get_fixture(name)
        for a, b in gamma(x):
            if path_count_dp(x, a, b) > 10_000:
                continue
            if trace_classes(x, a, b).count != flip_class_count(x, a, b):
                ok = False
    _report(capsys, 7, "union-find quotient matches flip-closure oracle", ok, started, 120.0)
