import pytest
from hypothesis import settings, strategies as st

from ditop import fixtures as fx
from ditop.cubecore import PrecubicalSet, build_grid_complex
from ditop.equivcheck import check_dihomotopy_equivalence, compose_equivalences
from ditop.errors import ModelError

from oracles import collapse_last_layer, point_certificate, relabel_complex

ALL_FIXTURES = ("seg", "wedge", "pv1", "sf", "hs", "matchbox", "topface")

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so
# that a failure or a slow test reproduces; without it the draws are random
settings.register_profile("ci", derandomize=True)


@pytest.fixture(params=ALL_FIXTURES)
def any_fixture(request):
    return request.param, fx.get_fixture(request.param)


@pytest.fixture
def seg():
    return fx.seg()


@pytest.fixture
def wedge():
    return fx.wedge()


@pytest.fixture
def pv1():
    return fx.pv1()


@pytest.fixture
def sf():
    return fx.sf()


@pytest.fixture
def hs():
    return fx.hs()


@pytest.fixture
def matchbox():
    return fx.matchbox()


@pytest.fixture
def topface():
    return fx.topface()


def _boxes(draw, dims, partial, count):
    """Up to ``count`` boxes, each leaving an axis of ``partial`` partial."""
    boxes = []
    for _ in range(draw(st.integers(0, count)) if partial else 0):
        keep = draw(st.sampled_from(partial))
        box = []
        for i, d in enumerate(dims):
            lo = draw(st.integers(0, d - 1))
            top = d - 1 if i == keep and lo == 0 else d
            box.append((lo, draw(st.integers(lo + 1, top))))
        boxes.append(box)
    return boxes


@st.composite
def grid_models(draw):
    """A 1-3D grid (at most 3x3 or 2x2x2 cells) minus up to two boxes.

    Each box leaves at least one axis partial, so the origin stays: a
    box spanning every axis in full removes every vertex, because full
    axes are closed.  Grids with one cell per axis get no box."""
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3 if n < 3 else 2)) for _ in range(n))
    partial = [i for i, d in enumerate(dims) if d > 1]
    return build_grid_complex(dims, _boxes(draw, dims, partial, 2))


@st.composite
def larger_grid_models(draw):
    """A 2D grid of up to 6x6 cells minus up to two boxes: hundreds of
    reachable pairs, where ``grid_models`` reaches about a hundred."""
    dims = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    partial = [i for i, d in enumerate(dims) if d > 1]
    return build_grid_complex(dims, _boxes(draw, dims, partial, 2))


@st.composite
def collapse_pairs(draw):
    """A 2D grid with holes off its last row, and the same grid with the
    last row collapsed: the models of a map that sends that row onto the
    one before it, and of the inclusion back.  Every box leaves axis 0
    partial in both grids, so it cuts the same cells from each."""
    dims = (draw(st.integers(2, 6)), draw(st.integers(1, 6)))
    small = (dims[0] - 1, dims[1])
    boxes = _boxes(draw, small, [0] if small[0] > 1 else [], 2)
    return build_grid_complex(dims, boxes), build_grid_complex(small, boxes)


@st.composite
def dag_models(draw):
    """Random squares glued onto a random DAG of up to 7 vertices, with
    parallel edges and vertex ids in no topological order."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    forward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(perm[i], perm[j])
             for i, j in (draw(st.lists(st.sampled_from(forward), max_size=12))
                          if forward else [])]
    quads = [
        (b, r, l, t)
        for b, (s, m) in enumerate(edges)
        for l, (s2, m2) in enumerate(edges) if l != b and s2 == s
        for r, (m3, e) in enumerate(edges) if m3 == m
        for t, (m4, e2) in enumerate(edges) if t != r and m4 == m2 and e2 == e
    ]
    squares = draw(st.lists(st.sampled_from(quads), max_size=6, unique=True)) if quads else []
    return PrecubicalSet(n, edges, squares)


@st.composite
def small_grid_models(draw):
    """A 2D grid of up to 5x5 cells minus up to two boxes."""
    dims = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    partial = [i for i, d in enumerate(dims) if d > 1]
    return build_grid_complex(dims, _boxes(draw, dims, partial, 2))


def _certificate(draw, x):
    """A certificate from x that the check accepts, or None: a relabelled
    copy, a point certificate at vertex 0, or, where x has coords, its
    last layer along an axis collapsed onto the one before."""
    axes = [i for i in range(len(x.coords[0])) if max(c[i] for c in x.coords) > 0] if x.coords else []
    kind = draw(st.sampled_from(["relabel", "point", *axes]))
    if kind == "relabel":
        made = relabel_complex(x, draw(st.permutations(range(x.n_vertices))))
    elif kind == "point":
        made = point_certificate(x)
    else:
        made = collapse_last_layer(x, kind)
    if made is None:
        return None
    ok, cert = check_dihomotopy_equivalence(x, *made)
    return cert if ok else None


@st.composite
def equivalence_certificates(draw):
    """An accepted ``EquivalenceCertificate`` from a ``small_grid_models``
    grid: one certificate of ``_certificate``, or two of them composed by
    ``compose_equivalences``, the second from the model the first leads
    to; or None where the check refuses one of them."""
    cert = _certificate(draw, draw(small_grid_models()))
    if cert is None or draw(st.booleans()):
        return cert
    then = _certificate(draw, cert.y)
    if then is None:
        return None
    try:
        return compose_equivalences(cert, then)
    except ModelError:  # the composite is refused
        return None
