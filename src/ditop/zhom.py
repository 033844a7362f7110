"""Integer homology of the underlying complex and dicontractibility.

Homology ranks come from the sparse boundary maps.  rank d1 is the
number of union-find merges over the edges, since the incidence matrix
of a graph has only unit invariant factors.  d2 is reduced by pivots on
+-1 entries, sparsest row first, so free faces collapse without
fill-in; only a block with no unit entry left goes to the dense
smith_normal_form, and grids never leave one (Kaczynski, Mischaikow,
Mrozek, *Computational Homology*, 2004).  Dicontractibility combines
the contractibility surrogate (trivial reduced homology in dimensions
<= 2) with the discrete section criterion: every reachable pair
carries exactly one dihomotopy class.

The section criterion is first decided for all sources at once, with
no class table: every pair has one class exactly when the one-class
bitsets of ``traceclass.one_class_sources`` certify every pair (the
lemma is stated there).  A one-class pair is never over the path cap,
which bounds class counts, so such a model is never refused.  Any other
model is scanned in ``gamma`` order over the reach bitsets, reading the
class tables at the open pairs only: a certified pair has one class at
every vertex on its dipaths, so skipping it moves neither the first
obstruction pair nor the first refusal.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .cubecore import PrecubicalSet, bit_indices, gamma
from .traceclass import _table, one_class_sources


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


def _rank_d1(x: PrecubicalSet):
    """Rank of d1: the number of union-find merges over the edges.  The
    incidence matrix of a graph has only unit invariant factors."""
    parent = list(range(x.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for s, t in x.edges:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            merges += 1
    return merges


def _d2_invariants(x: PrecubicalSet):
    """(rank of d2, its invariant factors above 1).

    d2 is held as sparse columns {edge: coefficient} with a row index.
    Each step pivots on a +-1 entry: the pivot row is cleared from the
    other columns (a unimodular column operation), then the pivot row
    and column are dropped, which leaves the Smith invariants of the
    rest unchanged.  Only the block with no unit entry left goes to
    smith_normal_form."""
    cols = {}
    rows = {}
    for j, square in enumerate(x.squares):
        col = {}
        for e, sign in zip(square, (1, 1, -1, -1)):
            col[e] = col.get(e, 0) + sign
        col = {e: v for e, v in col.items() if v}
        if col:
            cols[j] = col
            for e in col:
                rows.setdefault(e, set()).add(j)
    # every row with a unit entry is on the heap under its current length
    heap = [(len(js), e) for e, js in rows.items()]
    heapify(heap)

    def unit_pivot():
        # a unit in the sparsest row, then in the sparsest column
        while heap:
            k, e = heappop(heap)
            if len(rows.get(e, ())) == k:
                units = [j for j in rows[e] if cols[j][e] in (1, -1)]
                if units:
                    return e, min(units, key=lambda j: len(cols[j]))
        return None

    rank = 0
    while pivot := unit_pivot():
        r, c = pivot
        pcol = cols.pop(c)
        unit = pcol.pop(r)
        for j in rows.pop(r) - {c}:
            col = cols[j]
            k = col.pop(r) * unit
            for e, v in pcol.items():
                w = col.get(e, 0) - k * v
                if not w:
                    del col[e]
                    rows[e].discard(j)
                else:
                    if e not in col:
                        rows[e].add(j)
                    col[e] = w
            if not col:
                del cols[j]
        for e in pcol:
            js = rows[e]
            js.discard(c)
            if js:
                heappush(heap, (len(js), e))
            else:
                del rows[e]
        rank += 1
    if not cols:
        return rank, []
    index = {e: i for i, e in enumerate(sorted(rows))}
    residual = [[0] * len(cols) for _ in index]
    for jj, col in enumerate(cols.values()):
        for e, v in col.items():
            residual[index[e]][jj] = v
    diag = smith_normal_form(residual).diagonal()
    return rank + len(diag), sorted(d for d in diag if abs(d) > 1)


def homology_ranks(x: PrecubicalSet):
    """(betti_0, betti_1, torsion coefficients of H1)."""
    rank1 = _rank_d1(x)
    rank2, torsion = _d2_invariants(x)
    return x.n_vertices - rank1, len(x.edges) - rank1 - rank2, torsion


def trivial_homology(betti0, betti1, torsion) -> bool:
    """The contractibility surrogate on homology_ranks' triple."""
    return betti0 == 1 and betti1 == 0 and not torsion


def is_contractible_surrogate(x: PrecubicalSet) -> bool:
    """Trivial homology in dimensions <= 2: betti_0 = 1, betti_1 = 0,
    no torsion.  The fundamental-group gap is a documented limitation."""
    return trivial_homology(*homology_ranks(x))


def section_exists(x: PrecubicalSet):
    """Discrete section criterion: every pair in Gamma has exactly one
    class, so class 0 everywhere is a section.  Returns (True, None) or
    (False, the first pair in ``gamma`` order with two classes or more);
    no pair after that one is glued or refused."""
    anc, one = one_class_sources(x)
    if anc != one:
        for a, reach in enumerate(gamma(x).bits):
            for b in bit_indices(reach):
                if not one[b] >> a & 1 and _table(x, a).classes(x, b) != 1:
                    return False, (a, b)
    return True, None


def is_dicontractible(x: PrecubicalSet) -> bool:
    ok, _ = section_exists(x)
    return is_contractible_surrogate(x) and ok
