import pytest

from ditop.cubecore import DPath, build_grid_complex, gamma, grid_vertex
from ditop.errors import ModelError, PathCapExceeded
from ditop.traceclass import (
    class_of,
    compose_arrows,
    elementary_arrows,
    extend_class,
    identity_arrow,
    trace_classes,
)

from oracles import flip_class_count


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


def test_representatives_are_lex_least(pv1):
    # least in the enumeration order: lexicographic on vertex sequences
    def vkey(edges):
        return tuple(pv1.edges[e][1] for e in edges)

    cs = trace_classes(pv1, 0, pv1.n_vertices - 1)
    for i, rep in enumerate(cs.representatives):
        members = [p for p, c in cs.membership.items() if c == i]
        assert vkey(rep.edges) == min(vkey(m) for m in members)


def test_class_of_consistent(pv1):
    cs = trace_classes(pv1, 0, pv1.n_vertices - 1)
    for edges, cid in cs.membership.items():
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
        assert pv1.path_end(ar.alpha) == ar.target[0] or ar.alpha.start == ar.target[0]


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
    # the cached set holds 70 paths; a cap of 10 must refuse it as a
    # cold model would, not return the cached answer
    x = build_grid_complex((4, 4))
    top = x.n_vertices - 1
    assert trace_classes(x, 0, top).count == 1
    with pytest.raises(PathCapExceeded) as exc:
        trace_classes(x, 0, top, cap=10)
    assert exc.value.pair == (0, top)
    assert trace_classes(x, 0, top, cap=70).count == 1
