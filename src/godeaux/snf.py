"""Smith normal form over Z, arbitrary precision, on plain int rows.

A matrix is a sequence of equal-length rows of ints, read by
`scalars.exact_int`; a matrix with no rows has no columns.  Everything is
plain Python ints, so there is no word size to overflow.  The Smith routine
returns the full (U, D, V) triple of tuples of tuples with U * m * V = D,
both transforms unimodular and the diagonal entries nonnegative with
d1 | d2 | ... .
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .scalars import int_tuple

Rows = Tuple[Tuple[int, ...], ...]


def _rows(m: Sequence[Sequence[int]]) -> Rows:
    rows = tuple(map(int_tuple, m))
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged matrix")
    return rows


def _apply(m: Rows, vec: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in m)


def _product(a: Rows, b: Rows) -> Rows:
    cols = tuple(zip(*b))
    return tuple(_apply(cols, row) for row in a)


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant; exact for integer entries."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def smith_normal_form(m: Sequence[Sequence[int]]) -> Tuple[Rows, Rows, Rows]:
    """Smith normal form with transforms: returns (U, D, V), U * m * V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ...  The pivot strategy is the textbook one: move a minimal
    nonzero entry to the pivot, clear its row and column by division steps,
    and when some remaining entry is not divisible by the pivot, fold its
    row in and repeat.  Each column (row) pass starts from the least nonzero
    entry of that column (row), so the pivot magnitude strictly drops on
    every repeat and the remainders, hence U and V, stay small.
    """
    m = _rows(m)
    a = [list(r) for r in m]
    nr, nc = len(m), len(m[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # find a minimal-magnitude nonzero entry in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            # clear column t by row operations, from its least nonzero entry
            i = min((k for k in range(t, nr) if a[k][t]), key=lambda k: abs(a[k][t]))
            if i != t:
                swap_rows(t, i)
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            dirty = any(a[i][t] for i in range(t + 1, nr))
            # clear row t by column operations, from its least nonzero entry;
            # a swap brings in a column whose lower entries are not cleared
            j = min((k for k in range(t, nc) if a[t][k]), key=lambda k: abs(a[t][k]))
            if j != t:
                swap_cols(t, j)
                dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            dirty = dirty or any(a[t][j] for j in range(t + 1, nc))
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    U = tuple(map(tuple, u))
    V = tuple(map(tuple, v))
    D = _product(_product(U, m), V)
    # internal consistency: unimodular transforms, diagonal shape, chain
    if abs(det_bareiss(U)) != 1 or abs(det_bareiss(V)) != 1:
        raise AssertionError("transforms are not unimodular")
    for i, row in enumerate(D):
        if any(x != 0 for j, x in enumerate(row) if j != i):
            raise AssertionError("result is not diagonal")
    diag = [D[i][i] for i in range(min(nr, nc))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("zero before nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain violated")
    return U, D, V


def solve_lattice_membership(
    m: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """An integer solution x of m * x = b, or None when b is not in the
    column lattice of m."""
    m, b = _rows(m), int_tuple(b)
    if len(b) != len(m):
        raise ValueError("vector length mismatch")
    U, D, V = smith_normal_form(m)
    c = _apply(U, b)
    y = [0] * len(V)
    for i, ci in enumerate(c):
        d = D[i][i] if i < len(V) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            y[i] = ci // d
    x = _apply(V, y)
    if _apply(m, x) != b:
        raise AssertionError("lattice solve produced a non-solution")
    return x
