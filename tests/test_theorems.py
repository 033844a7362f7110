"""The paper's diTC theorems as properties on generated certificates.

diTC is an invariant of dihomotopy equivalence, and a space is
dicontractible when it is dihomotopy equivalent to a point.  So an
accepted certificate has the same ``ditc_exact`` on both sides, and on
connected grids, diTC 1 holds exactly when a point certificate is
accepted.
"""
from hypothesis import assume, given, settings

from ditop.cubecore import PrecubicalSet
from ditop.ditc import ditc_exact
from ditop.equivcheck import check_dihomotopy_equivalence
from ditop.zhom import is_dicontractible

from conftest import equivalence_certificates, small_grid_models
from oracles import homology_dense, point_certificate


@settings(max_examples=150, deadline=None)
@given(equivalence_certificates())
def test_an_accepted_certificate_keeps_ditc(cert):
    assume(cert is not None)
    assert ditc_exact(cert.x)[0] == ditc_exact(cert.y)[0]


@settings(max_examples=150, deadline=None)
@given(small_grid_models())
def test_ditc_one_on_a_grid_is_a_point_certificate_and_dicontractibility(x):
    # the paper's mild conditions: a grid that is connected; a box across
    # a full axis can cut a grid apart, and then diTC may be 1 with no
    # point certificate
    assume(homology_dense(x)[0] == 1)
    one = ditc_exact(x)[0] == 1
    assert one == check_dihomotopy_equivalence(x, *point_certificate(x))[0]
    assert one == is_dicontractible(x)


def test_connected_zigzags_with_ditc_one_have_no_point_certificate():
    # diTC 1 without a point certificate at any vertex, so neither
    # diTC 1 nor beta_0 = 1 is enough off the grids: the zigzag loop
    # 0 -> 1 <- 2 -> 3 <- 0 (beta_0 = beta_1 = 1) and the zigzag path
    # 0 -> 1 <- 2 -> 3 (beta_0 = 1)
    loop = PrecubicalSet(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
    path = PrecubicalSet(4, [(0, 1), (2, 1), (2, 3)])
    assert homology_dense(loop)[:2] == (1, 1)
    assert homology_dense(path)[:2] == (1, 0)
    for x in (loop, path):
        assert ditc_exact(x)[0] == 1
        assert not any(check_dihomotopy_equivalence(x, *point_certificate(x, v))[0]
                       for v in range(x.n_vertices))
