"""Test oracles in rational Gauss-Jordan elimination: one solution of a
linear system, a nullspace basis, and the pencil-of-conics report computed
with them, in Fractions and WPoly substitution.  `cone.pencil_report`
computes the same report in integer projective arithmetic; the tests
compare the two."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from godeaux.cone import STANDARD_FRAME, _factor_binary_quadratic, _mat_mul, _normalized
from godeaux.reports import CheckReport
from godeaux.scalars import QQ, exact_rank, exact_rref
from godeaux.wpoly import WPoly, WRing, substitute


def solve_linear(rows, rhs, field):
    """One exact solution of rows * x = rhs over the field, or None if
    inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = exact_rref(aug, field)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return x


def nullspace(rows, field):
    """A basis of the right kernel over the field, as lists of its
    elements."""
    red, pivots = exact_rref(rows, field)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for i, c in enumerate(pivots):
            v[c] = field(-red[i][f])
        basis.append(v)
    return basis


def _is_scalar(m, field) -> bool:
    """Whether the square matrix m is proportional to the identity."""
    ident = [field(int(i == j)) for i in range(len(m)) for j in range(len(m))]
    return exact_rank([[x for row in m for x in row], ident], field) < 2


def _frame_matrix(p1, p2, p3, p4):
    """Matrix sending the standard frame to (p1, p2, p3; p4 as unit point)."""
    rows = list(zip(p1, p2, p3))
    alpha = solve_linear(rows, list(p4), QQ)
    if alpha is None or not all(alpha):
        raise ValueError("points are in degenerate position")
    return tuple(tuple(a * x for a, x in zip(alpha, row)) for row in rows)


def _monic(q: WPoly) -> WPoly:
    """q scaled so its leading coefficient (in term order) is 1."""
    monos = q.monomials()
    return WPoly(q.ring, dict(zip(monos, _normalized([q.terms[m] for m in monos], q.ring.field))))


def pencil_report(points: Sequence[Sequence[int]] = STANDARD_FRAME) -> CheckReport:
    """The report of `cone.pencil_report`, computed over Q: the frame
    matrices and phi by solving linear systems, the pencil as a nullspace,
    its pullback by substitution, reducibility and lines by rank."""
    field = QQ
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) != 4 or any(len(p) != 3 for p in pts):
        raise ValueError("need four points of the plane")
    for skip in range(4):
        tri = [p for i, p in enumerate(pts) if i != skip]
        if exact_rank(tri, field) < 3:
            raise ValueError("points are in degenerate position: three collinear")
    source = _frame_matrix(*pts)
    target = _frame_matrix(pts[1], pts[2], pts[3], pts[0])
    # phi = target * source^-1: row i of phi solves x * source = target[i]
    source_t = [list(col) for col in zip(*source)]
    flat = _normalized([x for row in target for x in solve_linear(source_t, list(row), field)],
                       field)
    phi = (flat[0:3], flat[3:6], flat[6:9])
    # targets[i] = j when phi(P_i) = P_j, None when phi(P_i) is no base point
    labels = {_normalized(p, field): j for j, p in enumerate(pts)}
    targets = [labels.get(_normalized(image, field))
               for image in _mat_mul(pts, tuple(zip(*phi)))]

    ring = WRing(("x", "y", "z"), (1, 1, 1), field)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    kernel = nullspace([[p[0] ** i * p[1] ** j * p[2] ** k for i, j, k in monos] for p in pts],
                       field)
    if len(kernel) != 2:
        raise AssertionError("pencil through four general points must be 2-dim")

    def form(exponents, coeffs):
        return WPoly(ring, {m: field(c) for m, c in zip(exponents, coeffs)})

    def linear(coeffs):
        return form(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)

    basis = tuple(form(monos, v) for v in kernel)
    # column j of the action T holds the basis coordinates of phi^* basis[j]
    action_cols = []
    for q in basis:
        pulled = substitute(q, [linear(row) for row in phi])
        coeffs = solve_linear(list(zip(*kernel)), [pulled.coefficient(m) for m in monos], field)
        if coeffs is None:
            raise AssertionError("pencil is not preserved by the automorphism")
        action_cols.append(coeffs)
    T = tuple(zip(*action_cols))
    if not _is_scalar(_mat_mul(T, T), field):
        raise AssertionError("the pencil action must square to the identity")
    # s*basis[0] + t*basis[1] is fixed iff T (s, t) is proportional to (s, t)
    (a, b), (c, d) = T
    roots = _factor_binary_quadratic(-c, a - d, b, field) if c or a - d or b else None
    if roots is None or len(roots) != 2:
        raise AssertionError("pencil involution must have two rational fixed members")
    fixed = [_monic(s * basis[0] + t * basis[1]) for s, t in roots]
    # a conic is reducible iff its constant Hessian is singular
    reducible = [q for q in fixed if exact_rank(
        [[q.partial(i).partial(j).coefficient((0, 0, 0)) for j in range(3)] for i in range(3)],
        field,
    ) < 3]
    smooth = [q for q in fixed if q not in reducible]
    if len(reducible) != 1 or len(smooth) != 1:
        raise AssertionError("exactly one fixed member must be reducible")
    # the line through two points is the kernel of the pair
    diagonals = [linear(nullspace([pts[i], pts[i + 2]], field)[0]) for i in (0, 1)]
    phi_sq = _mat_mul(phi, phi)
    checks = {
        "cycles_points": targets == [1, 2, 3, 0],
        "phi4_is_identity": _is_scalar(_mat_mul(phi_sq, phi_sq), field),
        "two_distinct_fixed_members": fixed[0] != fixed[1],
        "reducible_is_diagonal_lines": reducible[0] == _monic(diagonals[0] * diagonals[1]),
        "iota_free_on_preimages": set(targets) == set(range(4)),
    }
    status = "pass" if all(checks.values()) else "fail"
    return CheckReport(
        check="pencil-of-conics",
        status=status,
        witness=None
        if status == "pass"
        else {"check": next(k for k, v in checks.items() if not v)},
        data={
            "phi": [[str(x) for x in row] for row in phi],
            "reducible_member": reducible[0].to_string(),
            "smooth_member": smooth[0].to_string(),
            "gluing_orbits": [[[0, i], [1, j]] for i, j in enumerate(targets)],
            "checks": checks,
        },
    )
