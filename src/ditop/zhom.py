"""Integer homology of the underlying complex and dicontractibility.

Homology ranks come from Smith normal form of the two boundary
matrices.  Dicontractibility combines the contractibility surrogate
(trivial reduced homology in dimensions <= 2) with the discrete section
criterion: every reachable pair carries exactly one dihomotopy class.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubecore import PrecubicalSet, gamma
from .traceclass import trace_classes


@dataclass
class SNFResult:
    """U * M * V = D with D diagonal, d_i | d_{i+1}, U and V unimodular."""

    U: list
    D: list
    V: list

    def diagonal(self):
        return [
            self.D[i][i]
            for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
            if self.D[i][i] != 0
        ]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations,
    pivoting on the smallest nonzero entry."""
    d = [list(map(int, row)) for row in m]
    rows = len(d)
    cols = len(d[0]) if d else 0
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        # find smallest nonzero entry in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if d[t][t] < 0:
            negate_row(t)
        # clear the pivot row and column
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot
        # enforce divisibility: fold in any entry the pivot does not divide
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(culprit, t, 1)
            continue
        t += 1
        if t >= rows or t >= cols:
            break
    return SNFResult(u, d, v)


def boundary_matrices(x: PrecubicalSet):
    """d1: edges -> vertices and d2: squares -> edges (columns index the
    higher cells)."""
    d1 = [[0] * len(x.edges) for _ in range(x.n_vertices)]
    for j, (s, t) in enumerate(x.edges):
        d1[t][j] += 1
        d1[s][j] -= 1
    d2 = [[0] * len(x.squares) for _ in range(len(x.edges))]
    for j, (bottom, right, left, top) in enumerate(x.squares):
        d2[bottom][j] += 1
        d2[right][j] += 1
        d2[left][j] -= 1
        d2[top][j] -= 1
    return d1, d2


def homology_ranks(x: PrecubicalSet):
    """(betti_0, betti_1, torsion coefficients of H1)."""
    d1, d2 = boundary_matrices(x)
    diag1 = smith_normal_form(d1).diagonal() if x.edges else []
    diag2 = smith_normal_form(d2).diagonal() if x.squares else []
    rank1 = len(diag1)
    rank2 = len(diag2)
    betti0 = x.n_vertices - rank1
    betti1 = len(x.edges) - rank1 - rank2
    torsion = sorted(d for d in diag2 if abs(d) > 1)
    return betti0, betti1, torsion


def is_contractible_surrogate(x: PrecubicalSet) -> bool:
    """Trivial homology in dimensions <= 2: betti_0 = 1, betti_1 = 0,
    no torsion.  The fundamental-group gap is a documented limitation."""
    betti0, betti1, torsion = homology_ranks(x)
    return betti0 == 1 and betti1 == 0 and not torsion


@dataclass(frozen=True)
class SectionWitness:
    """Chosen class id per reachable pair, compatible with every
    elementary extension (vacuously so when all class sets are
    singletons)."""

    choices: dict


def section_exists(x: PrecubicalSet, cap=None):
    """Discrete section criterion: every pair in Gamma has exactly one
    class.  Returns (True, SectionWitness) or (False, obstruction pair)."""
    choices = {}
    for pair in gamma(x):
        cs = trace_classes(x, *pair, cap=cap)
        if cs.count != 1:
            return False, pair
        choices[pair] = 0
    return True, SectionWitness(choices)


def is_dicontractible(x: PrecubicalSet, cap=None) -> bool:
    ok, _ = section_exists(x, cap=cap)
    return is_contractible_surrogate(x) and ok


def initial_state_upgrade(x: PrecubicalSet, cap=None) -> bool:
    """Dicontractibility via an initial state: some vertex reaches every
    vertex, and the section criterion holds."""
    pairs = set(gamma(x).pairs)
    has_initial = any(
        all((a, b) in pairs for b in range(x.n_vertices))
        for a in range(x.n_vertices)
    )
    if not has_initial:
        return False
    ok, _ = section_exists(x, cap=cap)
    return ok
