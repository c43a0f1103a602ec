"""Exhaustive point checks over small prime fields: enumeration of weighted
projective spaces, and the quasi-smoothness, free-action and fixed-locus
scans of the surface.

Everything here is characteristic-p evidence for characteristic-0 claims and
is labeled as such in the reports; no statement over Q is proved by a scan.

Enumeration never canonicalizes points one by one.  Canonical orbit
representatives (lexicographically least orbit members) are generated
directly: the coordinate space is partitioned by leading nonzero coordinate,
the leading value runs over minima of cosets of the relevant power subgroup,
and once the residual scalar stabilizer acts trivially on the remaining
coordinates the tail is a free box.

A box is not scanned point by point.  Call the last two coordinates s and
t and the others outer.  Each equation is split as the sum of
g_ij(outer) s^i t^j, and evaluation is split the same way:

- each g_ij is evaluated once per outer row (p^2 rows on the main box of
  the surface, not p^3), as the product of the matrix of outer monomial
  values with the equation's coefficient tensor;
- the coefficients c_k = sum over i of g_ik s^i of t^k are built on the
  grid of outer rows times the values of s, as the product with the matrix
  of powers of s;
- the last coordinate is solved for: on each grid row the first equation is
  a*t^2 + b*t + c, and its roots in GF(p) come from a square-root table and
  an inverse table.  The whole fibre of p values is kept where a = b = c = 0,
  where there is no equation, or where the first equation has degree above 2
  in t;
- every candidate (row, t) is tested against every equation by a Horner
  step in t, on the coefficients gathered by row.

Blocks whose s is fixed by the prefix have a grid of one value of s, and
single-point blocks also fix t.  Arithmetic runs on int64 arrays and is
exact.  Every array is reduced mod p right after each product: each entry of
a power table and of a monomial value, each matrix product, each Horner
step and the discriminant.  So every factor is below p, and no intermediate
exceeds M * p^2 for a matrix product summing M terms (M the number of
distinct outer monomials, or of powers of s), p^2 + p for a Horner step and
5 p^2 for the discriminant: far below 2^63 for p <= MAX_ENUM_PRIME.
``scanned`` counts the canonical representatives of the boxes covered,
whether or not each was a candidate.  The points a scan emits are checked
again, on their first read, against the whole polynomials (``PointSet``).
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .family import GodeauxFamily, reduce_family
from .reports import CheckReport
from .scalars import PrimeField, Rationals, is_prime
from .wpoly import MonomialMap, WPoly, WRing, jacobian

MAX_ENUM_PRIME = 101
CHUNK_LIMIT = 1 << 18

Terms = List[Tuple[Tuple[int, ...], int]]


def _blocks(weights: Sequence[int], p: int):
    """Partition of the canonical representatives into free boxes.

    Yields (prefix, start): coordinates before start are fixed to prefix and
    the rest range freely over GF(p), plus fully determined single points as
    (prefix, n).  Boxes are produced in lexicographic order of their points.
    """
    n = len(weights)

    def acts_trivially(cands: List[int], idx: int) -> bool:
        return all(
            pow(lam, weights[j], p) == 1 for lam in cands for j in range(idx, n)
        )

    def rec(idx: int, cands: List[int], prefix: Tuple[int, ...], nonzero: bool):
        if nonzero and acts_trivially(cands, idx):
            yield (prefix, idx)
            return
        if idx == n:
            if nonzero:
                yield (prefix, n)
            return
        yield from rec(idx + 1, cands, prefix + (0,), nonzero)
        w = weights[idx]
        image = {pow(lam, w, p) for lam in cands}
        stab = [lam for lam in cands if pow(lam, w, p) == 1]
        seen = bytearray(p)
        for a in range(1, p):
            if seen[a]:
                continue
            for k in image:
                seen[k * a % p] = 1
            yield from rec(idx + 1, stab, prefix + (a,), True)

    yield from rec(0, list(range(1, p)), (), False)


def _orbit_count(weights: Sequence[int], p: int) -> int:
    """Number of GF(p) points of P(weights), by block counting."""
    n = len(weights)
    return sum(p ** (n - start) for _, start in _blocks(weights, p))


def int_terms(f: WPoly) -> Terms:
    """The terms of a polynomial over GF(p) with plain int coefficients."""
    return [(e, c.value) for e, c in f.terms.items()]


class Columns:
    """Coordinate columns of a batch of points, with the powers of each
    column mod p cached for the polynomials evaluated on them."""

    __slots__ = ("cols", "p", "_powers")

    def __init__(self, cols: Sequence[np.ndarray], p: int):
        self.cols = cols
        self.p = p
        self._powers: Dict[Tuple[int, int], np.ndarray] = {}

    def power(self, v: int, e: int) -> np.ndarray:
        for k in range(1, e + 1):
            if (v, k) not in self._powers:
                lower = self.cols[v] if k == 1 else self._powers[(v, k - 1)] * self.cols[v]
                self._powers[(v, k)] = lower % self.p
        return self._powers[(v, e)]

    def evaluate(self, terms: Terms) -> np.ndarray:
        p = self.p
        total = np.zeros(len(self.cols[0]), dtype=np.int64)
        for expts, coeff in terms:
            term = coeff
            for v, e in enumerate(expts):
                if e:
                    term = term * self.power(v, e) % p
            total += term
        return total % p


class _Split:
    """The equations split by the exponents (i, j) of the last two
    coordinates s and t: each is the sum of g_ij(outer) s^i t^j, where g_ij
    is a polynomial in the other (outer) coordinates.

    ``exponents`` holds the outer monomials of all the equations, one per
    row, and ``tensors[e][j, m, i]`` is the coefficient of monomial m in
    g_ij of equation e, with i up to ``s_degree`` for every equation."""

    def __init__(self, eqs: Sequence[WPoly], n: int):
        terms = [int_terms(f) for f in eqs]
        monomials = sorted({e[:-2] for ts in terms for e, _ in ts})
        index = {m: k for k, m in enumerate(monomials)}
        self.exponents = np.array(monomials, dtype=np.int64).reshape(len(monomials), n - 2)
        self.s_degree = max((e[-2] for ts in terms for e, _ in ts), default=0)
        self.tensors = []
        for ts in terms:
            degree = max((e[-1] for e, _ in ts), default=-1)
            g = np.zeros((degree + 1, len(index), self.s_degree + 1), dtype=np.int64)
            for e, c in ts:
                g[e[-1], index[e[:-2]], e[-2]] = c
            self.tensors.append(g)

    def outer_values(self, outer: Sequence[np.ndarray], rows: int, p: int) -> List[np.ndarray]:
        """g_ij of every equation on the rows of the outer columns, as
        (j, row, i) arrays mod p."""
        values = np.ones((rows, len(self.exponents)), dtype=np.int64)
        for col, e in zip(outer, self.exponents.T):
            values = values * _power_table(col, e.max(initial=0), p)[:, e] % p
        return [values @ g % p for g in self.tensors]


def _power_table(col: np.ndarray, degree: int, p: int) -> np.ndarray:
    """The (row, k) matrix of col^k mod p, for k up to degree."""
    table = np.ones((len(col), degree + 1), dtype=np.int64)
    for k in range(1, degree + 1):
        table[:, k] = table[:, k - 1] * col % p
    return table


def _t_coefficients(g: np.ndarray, s_powers: np.ndarray, p: int) -> np.ndarray:
    """The coefficients c_k = sum over i of g_ik s^i mod p of t^k on the
    grid of outer rows times values of s, as a (k, grid row) matrix, from
    the (k, outer row, i) values of g and the (i, value of s) powers of s.
    Outer row r and the n-th of S values of s make grid row r * S + n."""
    k, rows, _ = g.shape
    return (g @ s_powers % p).reshape(k, rows * s_powers.shape[1])


def _horner(coeffs: np.ndarray, row: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """sum over k of coeffs[k, row] t^k mod p, for each (row, t) pair."""
    if not len(coeffs):
        return np.zeros(len(row), dtype=np.int64)
    value = coeffs[-1][row]
    for c in coeffs[-2::-1]:
        value = (value * t + c[row]) % p
    return value


class _Fibres:
    """Candidate values of the last coordinate t on each row of a grid:
    the roots in GF(p) of c_0 + c_1 t + c_2 t^2, from a square-root table
    and an inverse table, and the whole fibre where that polynomial is zero
    or its degree is above 2."""

    def __init__(self, p: int):
        self.p = p
        squares = np.arange(p, dtype=np.int64) ** 2 % p
        self.sqrt = np.full(p, -1, dtype=np.int64)
        self.sqrt[squares] = np.arange(p)
        self.inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)

    def solve(self, coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(row, t) pairs over the rows of the (k, row) matrix of the
        coefficients c_k, each pair once, in no particular order."""
        p = self.p
        degree, size = len(coeffs) - 1, coeffs.shape[1]
        if degree < 0 or degree > 2:
            return np.repeat(np.arange(size), p), np.tile(np.arange(p), size)
        zero = np.zeros(size, dtype=np.int64)
        c, b, a = [coeffs[k] if k <= degree else zero for k in range(3)]
        quad = a != 0
        disc = (b * b - 4 * a * c) % p
        root = self.sqrt[disc]
        inv2a = self.inv[2 * a % p]
        real = quad & (root >= 0)
        plus = np.flatnonzero(real)
        minus = np.flatnonzero(real & (disc != 0))
        lin = np.flatnonzero(~quad & (b != 0))
        full = np.flatnonzero(~quad & (b == 0) & (c == 0))
        rows = [plus, minus, lin, np.repeat(full, p)]
        ts = [
            (root[plus] - b[plus]) * inv2a[plus] % p,
            (-root[minus] - b[minus]) * inv2a[minus] % p,
            -c[lin] * self.inv[b[lin]] % p,
            np.tile(np.arange(p), len(full)),
        ]
        return np.concatenate(rows), np.concatenate(ts)


def _reduce_eqs(ring: WRing, p: int, eqs: Sequence[WPoly]) -> Tuple[WRing, List[WPoly]]:
    """View the ring and every equation over GF(p), reducing from Q where
    needed; rejects rings over other prime fields."""
    field = PrimeField(p)
    if isinstance(ring.field, PrimeField):
        if ring.field.p != p:
            raise ValueError(f"ring is over GF({ring.field.p}), not GF({p})")
        ring_p = ring
    elif isinstance(ring.field, Rationals):
        ring_p = WRing(ring.names, ring.weights, field)
    else:
        raise ValueError("enumeration needs a ring over Q or GF(p)")
    reduced = []
    for f in eqs:
        if (f.ring.names, f.ring.weights) != (ring.names, ring.weights):
            raise ValueError("equation lives on a different variable set")
        if f.ring.field == field:
            reduced.append(f)
            continue
        if not isinstance(f.ring.field, Rationals):
            raise ValueError(
                f"cannot view a {f.ring.field.name} equation over GF({p})"
            )
        g = ring_p.zero_poly()
        for e, c in f.terms.items():
            g = g + ring_p.monomial(e, field(c))
        reduced.append(g)
    return ring_p, reduced


class PointSet:
    """Canonical points of a zero locus over GF(p), one row per point, in
    the strictly increasing order the scan emits them in.

    Every equation is re-evaluated on every point the first time the points
    are read back, as a self-consistency tripwire.
    """

    __slots__ = ("_rows", "p", "ring", "eqs", "scanned", "_checked")

    def __init__(self, points, p: int, ring: WRing, eqs: Sequence[WPoly],
                 scanned: int):
        rows = np.array(points, dtype=np.int64).reshape(-1, ring.nvars)
        rows.flags.writeable = False
        self._rows = rows
        self.p = p
        self.ring = ring
        self.eqs = tuple(eqs)
        self.scanned = scanned
        self._checked = False

    @property
    def rows(self) -> np.ndarray:
        """The points as a read-only (points x coordinates) int64 array."""
        if not self._checked:
            self._check()
            self._checked = True
        return self._rows

    @property
    def points(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __len__(self) -> int:
        return len(self._rows)

    def _check(self) -> None:
        cols = Columns(self._rows.T, self.p)
        for f in self.eqs:
            bad = np.flatnonzero(cols.evaluate(int_terms(f)))
            if len(bad):
                raise AssertionError(
                    f"point {self._rows[bad[0]].tolist()} fails {f.to_string()} = 0; "
                    "enumeration bug"
                )

    def __repr__(self):
        return f"PointSet({len(self._rows)} points over GF({self.p}))"


def _guard_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"exhaustive enumeration is limited to p <= {MAX_ENUM_PRIME}, got {p}"
        )


def _box_points(prefix: Tuple[int, ...], start: int, n: int, p: int,
               split: _Split, fibres: _Fibres,
               extra_mask: Optional[Callable[[List[np.ndarray]], np.ndarray]]):
    """The points of one box where every equation vanishes (and the extra
    mask holds), as arrays of rows in lexicographic order.

    The outer coordinates run over at most CHUNK_LIMIT rows at a time, on
    which every g_ij is evaluated once.  The grid of those rows times the
    values of s is cut into batches of at most CHUNK_LIMIT candidates."""
    free = max(0, n - 2 - start)
    if start <= n - 2:
        s_vals = np.arange(p, dtype=np.int64)
    else:
        s_vals = np.full(1, prefix[n - 2], dtype=np.int64)
    s_powers = _power_table(s_vals, split.s_degree, p).T
    width = len(s_vals) * (p if start < n else 1)
    step = max(1, CHUNK_LIMIT // width)
    size = p ** free
    for first in range(0, size, CHUNK_LIMIT):
        r = np.arange(first, min(size, first + CHUNK_LIMIT), dtype=np.int64)
        outer = [np.full(len(r), v, dtype=np.int64) for v in prefix[:n - 2]]
        outer += [r // p ** (free - 1 - k) % p for k in range(free)]
        g = split.outer_values(outer, len(r), p)
        for lo in range(0, len(r), step):
            hi = min(len(r), lo + step)
            coeffs = [_t_coefficients(values[:, lo:hi], s_powers, p) for values in g]
            rows = (hi - lo) * len(s_vals)
            if start == n:
                row, t = np.arange(rows), np.full(rows, prefix[-1], dtype=np.int64)
            else:
                row, t = fibres.solve(coeffs[0] if coeffs else np.zeros((0, rows), dtype=np.int64))
            mask = np.ones(len(row), dtype=bool)
            for c in coeffs:
                mask &= _horner(c, row, t, p) == 0
            row, t = row[mask], t[mask]
            o, si = np.divmod(row, len(s_vals))
            point = [col[lo + o] for col in outer] + [s_vals[si], t]
            if extra_mask is not None:
                keep = extra_mask(point)
                point, row, t = [col[keep] for col in point], row[keep], t[keep]
            # the keys are distinct: each (row, t) pair is a candidate once
            order = np.argsort(row * p + t)
            yield np.stack([col[order] for col in point], axis=1)


def _scan(ring: WRing, p: int, eqs: Sequence[WPoly],
          extra_mask: Optional[Callable[[List[np.ndarray]], np.ndarray]] = None) -> PointSet:
    """All canonical representatives where every equation vanishes (and the
    optional extra column mask holds).  Boxes and their batches come in
    lexicographic order, so only the survivors of each batch are sorted."""
    ring_p, eqs_p = _reduce_eqs(ring, p, eqs)
    for f in eqs_p:
        if not f.is_homogeneous():
            raise ValueError(f"equation {f.to_string()} is not homogeneous")
    n = ring.nvars
    if n < 2:
        raise ValueError("enumeration needs at least two coordinates")
    split = _Split(eqs_p, n)
    fibres = _Fibres(p)
    found: List[np.ndarray] = []
    scanned = 0
    for prefix, start in _blocks(ring.weights, p):
        scanned += p ** (n - start)
        found.extend(_box_points(prefix, start, n, p, split, fibres, extra_mask))
    rows = np.concatenate(found) if found else np.empty((0, n), dtype=np.int64)
    return PointSet(rows, p, ring_p, eqs_p, scanned)


def enumerate_points(ring: WRing, p: int, eqs: Sequence[WPoly]) -> PointSet:
    """All GF(p) points of the weighted projective zero locus, each scaling
    orbit exactly once, in deterministic (lexicographic) order."""
    _guard_prime(p)
    return _scan(ring, p, eqs)


def _diagonal_fixed_patterns(m: MonomialMap, p: int) -> List[Tuple[int, ...]]:
    """The minimal zero-patterns characterizing the points a diagonal map
    fixes: P is fixed iff for some scalar lambda every coordinate outside
    ker(pattern) vanishes.  Other maps raise ValueError."""
    n = m.ring.nvars
    if m.targets != tuple(range(n)):
        raise ValueError("fixed loci are computed for diagonal maps only")
    weights = m.ring.weights
    scalars = [s.value for s in m.scalars]
    patterns = set()
    for lam in range(1, p):
        bad = tuple(
            v for v in range(n) if scalars[v] % p != pow(lam, weights[v], p)
        )
        patterns.add(bad)
    minimal = [
        b for b in patterns
        if not any(set(o) < set(b) for o in patterns if o != b)
    ]
    return sorted(minimal)


def _fixed_mask(patterns: Sequence[Tuple[int, ...]], cols) -> np.ndarray:
    """Which points of the columns lie in the fixed locus of the patterns."""
    mask = np.zeros(len(cols[0]), dtype=bool)
    for bad in patterns:
        sub = np.ones(len(cols[0]), dtype=bool)
        for v in bad:
            sub &= cols[v] == 0
        mask |= sub
    return mask


def _fixed_point_count(weights: Sequence[int], patterns: Sequence[Tuple[int, ...]],
                       p: int) -> int:
    """Number of GF(p) points in the union of the coordinate subspaces the
    patterns cut out, by inclusion-exclusion over the patterns; each
    intersection is the weighted space on the coordinates left free."""
    total = 0
    for k in range(1, len(patterns) + 1):
        for group in itertools.combinations(patterns, k):
            zero = set().union(*group)
            free = [w for v, w in enumerate(weights) if v not in zero]
            total += (-1) ** (k + 1) * _orbit_count(free, p)
    return total


def fixed_locus(action: MonomialMap, p: int, eqs: Sequence[WPoly]) -> PointSet:
    """All points of the zero locus fixed by a diagonal map as orbits (image
    canonicalizes back to the point itself)."""
    _guard_prime(p)
    ring = action.ring
    if not isinstance(ring.field, PrimeField) or ring.field.p != p:
        raise ValueError("fixed_locus needs a map defined over GF(p) itself")
    patterns = _diagonal_fixed_patterns(action, p)
    return _scan(ring, p, eqs, extra_mask=lambda cols: _fixed_mask(patterns, cols))


def _family_mod_p(fam: GodeauxFamily, p: int) -> GodeauxFamily:
    if isinstance(fam.field, PrimeField):
        if fam.field.p != p:
            raise ValueError(f"family is over GF({fam.field.p}), not GF({p})")
        return fam
    return reduce_family(fam, p)


@functools.lru_cache(maxsize=1)
def surface_points(p: int, q0: WPoly, q2: WPoly) -> PointSet:
    """The GF(p) points of the surface q0 = q2 = 0, scanned once for all
    checks of one family member.  The memo holds the last member only and
    compares the quartics by value, so another member never gets its
    points; ``surface_points.cache_clear()`` empties it."""
    return enumerate_points(q0.ring, p, [q0, q2])


def _certificate(check: str):
    """Decorator for the scan checks: the body gets the family reduced mod p
    and returns its report, which is then timed.  A bad prime or a family
    over another field gives an error report instead."""
    def wrap(body: Callable[[GodeauxFamily, int], CheckReport]):
        @functools.wraps(body)
        def run(fam: GodeauxFamily, p: int) -> CheckReport:
            t0 = time.perf_counter()
            try:
                _guard_prime(p)
                fam_p = _family_mod_p(fam, p)
            except ValueError as exc:
                return CheckReport(
                    check=check, status="error", prime=p, notes=(str(exc),),
                )
            report = body(fam_p, p)
            report.elapsed_ms = (time.perf_counter() - t0) * 1000
            return report
        return run
    return wrap


SCAN_SCOPE = (
    "characteristic-p scan of the reduction mod p: GF(p)-rational points "
    "only, points over extensions of GF(p) are not checked"
)


def _pure_y_points(ring: WRing, p: int) -> np.ndarray:
    """Canonical representatives supported on the weight-2 coordinates.

    The leading weight-2 value runs over the two coset minima of the squares
    (1 and the least nonsquare); the residual stabilizer {+-1} acts trivially
    on the remaining weight-2 coordinate, so its values are free.
    """
    if ring.weights != (1, 1, 1, 2, 2):
        raise ValueError("pure-y shortcut is specific to weights (1,1,1,2,2)")
    squares = {pow(v, 2, p) for v in range(1, p)}
    reps = [1, min(set(range(1, p)) - squares)]
    pts = [(0, 0, 0, m, b) for m in reps for b in range(p)]
    pts += [(0, 0, 0, 0, m) for m in reps]
    return np.array(pts, dtype=np.int64)


@_certificate("quasi-smooth")
def check_quasi_smooth(fam_p: GodeauxFamily, p: int) -> CheckReport:
    """Scan every GF(p) point of the surface for Jacobian rank 2, and the
    ambient singular line x1=x2=x3=0 for surface points.

    A pass shows that no GF(p)-rational point of the reduction mod p is
    singular.  Points over extensions of GF(p) are not checked, so this is
    not a proof of quasi-smoothness mod p, let alone in characteristic 0.
    """
    pure = _pure_y_points(fam_p.ring, p)
    cols = Columns(pure.T, p)
    on = np.logical_and.reduce([cols.evaluate(int_terms(q)) == 0 for q in fam_p.quartics()])
    witness = pure[np.argmax(on)].tolist() if on.any() else None
    if fam_p.q0.coefficient((0, 0, 0, 1, 1)) == fam_p.ring.field.zero():
        hit = ("ambient-singular-locus hit: q0 misses y1 y3, so the "
               "surface meets x1=x2=x3=0 over the closure")
    elif witness is not None:
        hit = "surface meets the ambient singular locus"
    else:
        hit = None
    if hit is not None:
        return CheckReport(
            check="quasi-smooth", status="fail", prime=p, witness=witness,
            notes=(SCAN_SCOPE, hit),
            data={"failure_mode": "ambient-singular-locus"},
        )

    surface = surface_points(p, fam_p.q0, fam_p.q2)
    rows = surface.rows
    cols = Columns(rows.T, p)
    first, second = [
        [cols.evaluate(int_terms(d)) for d in row]
        for row in jacobian([fam_p.q0, fam_p.q2])
    ]
    # rank < 2 iff every 2x2 minor of the Jacobian vanishes
    singular = np.ones(len(rows), dtype=bool)
    for v, w in itertools.combinations(range(len(first)), 2):
        singular &= (first[v] * second[w] - first[w] * second[v]) % p == 0
    witness = rows[np.argmax(singular)].tolist() if singular.any() else None
    finding = ("Jacobian rank below 2 at the witness point" if witness
               else "no GF(p)-rational surface point is singular")
    return CheckReport(
        check="quasi-smooth", status="fail" if witness else "pass",
        prime=p, witness=witness,
        points_scanned=surface.scanned,
        notes=(SCAN_SCOPE, finding),
        data={"surface_points": len(surface)},
    )


GROUP_ELEMENT_POWERS = {"g": 1, "g2": 2, "g3": 3}


@_certificate("free-action")
def check_free_action(fam_p: GodeauxFamily, p: int) -> CheckReport:
    """Check that g, g^2, g^3 fix no GF(p)-rational point of the surface;
    points over extensions of GF(p) are not checked.

    Fixed loci are unions of coordinate subspaces: their points are counted
    by blocks on the ambient space and picked out of the surface by mask.
    """
    i = fam_p.ring.field.sqrt_minus_one()
    surface = surface_points(p, fam_p.q0, fam_p.q2)
    rows = surface.rows
    witness = None
    sizes = {}
    for name, k in GROUP_ELEMENT_POWERS.items():
        patterns = _diagonal_fixed_patterns(fam_p.action.power(k).as_monomial_map(i), p)
        sizes[name] = _fixed_point_count(fam_p.ring.weights, patterns, p)
        hits = rows[_fixed_mask(patterns, rows.T)]
        if len(hits) and witness is None:
            witness = {"element": name, "point": hits[0].tolist()}
    notes = (SCAN_SCOPE,) if witness else (
        SCAN_SCOPE, "g, g^2 and g^3 fix no GF(p)-rational surface point")
    return CheckReport(
        check="free-action", status="fail" if witness else "pass",
        prime=p, witness=witness,
        points_scanned=surface.scanned,
        notes=notes,
        data={"surface_points": len(surface), "ambient_fixed_points": sizes},
    )


def sigma_fixed_components(fam: GodeauxFamily, p: int) -> Dict[str, object]:
    """Describe the fixed locus of the involution lift on the ambient space:
    its minimal zero-patterns, by name and by index, plus the point count."""
    _guard_prime(p)
    fam_p = _family_mod_p(fam, p)
    patterns = _diagonal_fixed_patterns(fam_p.sigma.as_monomial_map(), p)
    names = fam_p.ring.names
    return {
        "zero_patterns": [[names[v] for v in bad] for bad in patterns],
        "patterns": patterns,
        "count": _fixed_point_count(fam_p.ring.weights, patterns, p),
    }


@_certificate("fixed-locus")
def check_fixed_locus(fam_p: GodeauxFamily, p: int) -> CheckReport:
    """Check that the ambient fixed locus of the involution lift meets the
    surface at a GF(p)-rational point, as its divisorial fixed part needs."""
    info = sigma_fixed_components(fam_p, p)
    surface = surface_points(p, fam_p.q0, fam_p.q2)
    rows = surface.rows
    hits = rows[_fixed_mask(info["patterns"], rows.T)]
    return CheckReport(
        check="fixed-locus",
        status="pass" if len(hits) else "fail",
        prime=p,
        witness=None if len(hits) else {"reason": "fixed locus misses the surface"},
        points_scanned=surface.scanned,
        notes=("divisorial fixed part requires the locus to meet the surface",),
        data={
            "zero_patterns": info["zero_patterns"],
            "ambient_fixed_points": info["count"],
            "surface_hits": len(hits),
            "sample": hits[0].tolist() if len(hits) else None,
        },
    )
