"""Built-in example models and the maps between them.

Builders are cached so repeated calls share one instance (and its
memoized class computations).  ``write_fixture`` dumps canonical,
byte-stable files for use from the command line.
"""
from __future__ import annotations

import functools
import os

from .cubecore import PrecubicalSet, build_grid_complex, grid_vertex
from .equivcheck import dmap_from_vertex_map
from .errors import ModelError
from .pvlang import compile_pv, parse_pv

PV_SOURCES = {
    "pv1": "Pa Va | Pa Va",
    "sf": "Pa Pb Vb Va | Pb Pa Va Vb",
}


@functools.cache
def seg() -> PrecubicalSet:
    """A single directed segment."""
    return build_grid_complex((1,))


@functools.cache
def wedge() -> PrecubicalSet:
    """Two segments glued at their common start."""
    return PrecubicalSet(3, [(0, 1), (0, 2)])


@functools.cache
def pv1() -> PrecubicalSet:
    """Two processes sharing one mutex: 3x3 grid, center cell removed."""
    return build_grid_complex(*compile_pv(parse_pv(PV_SOURCES["pv1"])))


@functools.cache
def sf() -> PrecubicalSet:
    """Swiss flag: 5x5 grid minus a cross of two overlapping bars."""
    return build_grid_complex(*compile_pv(parse_pv(PV_SOURCES["sf"])))


@functools.cache
def hs() -> PrecubicalSet:
    """Hollow square: 5x5 grid minus the full central 3x3 block."""
    return build_grid_complex((5, 5), [((1, 4), (1, 4))])


@functools.cache
def topface() -> PrecubicalSet:
    """A single filled square."""
    return build_grid_complex((1, 1))


@functools.cache
def matchbox() -> PrecubicalSet:
    """Surface of the unit cube with the bottom (z = 0) face missing.

    All 8 vertices and 12 edges are present; vertex ids sort the
    coordinate triples lexicographically.
    """
    cube = build_grid_complex((1, 1, 1))
    # the first square in grid order, at the origin across x and y, is z = 0
    return PrecubicalSet(cube.n_vertices, cube.edges, cube.squares[1:], coords=cube.coords)


@functools.cache
def matchbox_maps():
    """(f, g): vertical projection onto the top face, and the top-face
    embedding back."""
    m = matchbox()
    t = topface()
    f = dmap_from_vertex_map(m, t, [grid_vertex(t, (x, y)) for x, y, _ in m.coords])
    g = dmap_from_vertex_map(t, m, [grid_vertex(m, (x, y, 1)) for x, y in t.coords])
    return f, g


@functools.cache
def sf_hs_maps():
    """(f, g) between the Swiss flag and the hollow square: f presses
    everything into the bottom two rows, g is the inclusion."""
    s = sf()
    h = hs()
    f = dmap_from_vertex_map(s, h, [grid_vertex(h, (x, min(y, 1))) for x, y in s.coords])
    g = dmap_from_vertex_map(h, s, [grid_vertex(s, c) for c in h.coords])
    return f, g


COMPLEXES = {
    "seg": seg,
    "wedge": wedge,
    "pv1": pv1,
    "sf": sf,
    "hs": hs,
    "matchbox": matchbox,
    "topface": topface,
}


def get_fixture(name: str) -> PrecubicalSet:
    try:
        return COMPLEXES[name]()
    except KeyError:
        raise ModelError(f"unknown fixture {name!r}") from None


def write_fixture(name: str, directory: str):
    """Write the canonical files of one fixture; returns the paths."""
    paths = []

    def put(filename, text):
        path = os.path.join(directory, filename)
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)

    if name in PV_SOURCES:
        put(f"{name}.pv", PV_SOURCES[name] + "\n")
    if name in COMPLEXES:
        put(f"{name}.json", COMPLEXES[name]().to_json())
    elif name not in PV_SOURCES:
        raise ModelError(f"unknown fixture {name!r}")
    if name == "matchbox":
        put("topface.json", topface().to_json())
        f, g = matchbox_maps()
        put("matchbox_f.json", f.to_json())
        put("matchbox_g.json", g.to_json())
    if name == "sf":
        put("hs.json", hs().to_json())
        f, g = sf_hs_maps()
        put("sf_hs_f.json", f.to_json())
        put("sf_hs_g.json", g.to_json())
    return paths
