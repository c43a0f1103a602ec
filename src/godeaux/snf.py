"""Integer matrices and Smith normal form over Z, arbitrary precision.

Everything here works on plain Python ints, so there is no word size to
overflow.  Matrices are immutable tuples of tuples; the Smith routine
returns the full (U, D, V) triple with U * m * V = D, both transforms
unimodular and the diagonal entries nonnegative with d1 | d2 | ... .
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class IntMatrix:
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows and len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged matrix")
        object.__setattr__(
            self, "rows", tuple(tuple(int(x) for x in r) for r in self.rows)
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else self

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def apply(self, vec: Sequence[int]) -> Tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def det(self) -> int:
        return det_bareiss([list(r) for r in self.rows])

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


def det_bareiss(m: List[List[int]]) -> int:
    """Fraction-free determinant; exact for integer entries."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [row[:] for row in m]
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


def smith_normal_form(m: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (U, D, V), U * m * V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ...  The pivot strategy is the textbook one: move a minimal
    nonzero entry to the pivot, clear its row and column by division steps,
    and when some remaining entry is not divisible by the pivot, fold its
    row in and repeat.  Each column (row) pass starts from the least nonzero
    entry of that column (row), so the pivot magnitude strictly drops on
    every repeat and the remainders, hence U and V, stay small.
    """
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
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

    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    D = U * m * V
    # internal consistency: unimodular transforms, diagonal shape, chain
    if abs(U.det()) != 1 or abs(V.det()) != 1:
        raise AssertionError("transforms are not unimodular")
    for i in range(D.nrows):
        for j in range(D.ncols):
            if i != j and D[i, j] != 0:
                raise AssertionError("result is not diagonal")
    diag = [d for d in D.diagonal()]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("zero before nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain violated")
    return U, D, V


def solve_lattice_membership(m: IntMatrix, b: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """An integer solution x of m * x = b, or None when b is not in the
    column lattice of m."""
    if len(b) != m.nrows:
        raise ValueError("vector length mismatch")
    U, D, V = smith_normal_form(m)
    c = U.apply(b)
    y = [0] * m.ncols
    for i in range(m.nrows):
        d = D[i, i] if i < min(m.nrows, m.ncols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    x = V.apply(y)
    if m.apply(x) != tuple(b):
        raise AssertionError("lattice solve produced a non-solution")
    return x
