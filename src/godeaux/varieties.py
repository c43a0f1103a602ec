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
coordinates the tail is a free box that vectorizes.  Equation evaluation on
a box runs on int64 arrays with a reduction mod p after every product, so
values stay below p^2 and arithmetic is exact.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .family import GodeauxFamily, reduce_family
from .reports import CheckReport
from .scalars import PrimeField, Rationals, exact_rank, is_prime
from .wpoly import MonomialMap, WPoly, WRing, jacobian

MAX_ENUM_PRIME = 101
CHUNK_LIMIT = 1 << 18


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


def _chunks(weights: Sequence[int], p: int):
    """Split free boxes into chunks of at most CHUNK_LIMIT points."""
    n = len(weights)
    stack = list(_blocks(weights, p))
    out = []
    for prefix, start in stack:
        pieces = [(prefix, start)]
        while pieces:
            pre, st = pieces.pop(0)
            if p ** (n - st) <= CHUNK_LIMIT:
                out.append((pre, st))
            else:
                pieces = [(pre + (v,), st + 1) for v in range(p)] + pieces
    return out


def _chunk_columns(prefix: Tuple[int, ...], start: int, n: int, p: int) -> List[np.ndarray]:
    free = n - start
    size = p ** free
    cols = [np.full(size, v, dtype=np.int64) for v in prefix]
    for t in range(free):
        block = np.repeat(np.arange(p, dtype=np.int64), p ** (free - 1 - t))
        cols.append(np.tile(block, p ** t))
    return cols


def _eval_on_columns(f: WPoly, cols: List[np.ndarray], p: int,
                     pow_cache: Dict[Tuple[int, int], np.ndarray]) -> np.ndarray:
    size = len(cols[0])

    def powv(v: int, e: int) -> np.ndarray:
        # bottom-up, not recursive: a closure that calls itself is a
        # reference cycle, which would keep this chunk's columns and powers
        # alive until the cycle collector happens to run
        for k in range(1, e + 1):
            if (v, k) not in pow_cache:
                lower = cols[v] if k == 1 else pow_cache[(v, k - 1)] * cols[v]
                pow_cache[(v, k)] = lower % p
        return pow_cache[(v, e)]

    total = np.zeros(size, dtype=np.int64)
    for expts, coeff in f.terms.items():
        acc = None
        for v, e in enumerate(expts):
            if e:
                acc = powv(v, e) if acc is None else acc * powv(v, e) % p
        c = coeff.value % p
        term = np.full(size, c, dtype=np.int64) if acc is None else acc * c % p
        total = (total + term) % p
    return total


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
    """Canonical points of a zero locus over GF(p), as coordinate tuples in
    the strictly increasing order the scan emits them in.

    Every equation is re-evaluated on a deterministic sample of the points
    the first time they are read back, as a self-consistency tripwire.
    """

    __slots__ = ("_points", "p", "ring", "eqs", "scanned", "_checked")

    def __init__(self, points: Sequence[Tuple[int, ...]], p: int, ring: WRing,
                 eqs: Sequence[WPoly], scanned: int):
        self._points = tuple(points)
        self.p = p
        self.ring = ring
        self.eqs = tuple(eqs)
        self.scanned = scanned
        self._checked = False

    @property
    def points(self) -> Tuple[Tuple[int, ...], ...]:
        if not self._checked:
            self._spot_check()
            self._checked = True
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def _spot_check(self, sample: int = 16) -> None:
        if not self._points:
            return
        stride = max(1, len(self._points) // sample)
        field = self.ring.field
        for pt in self._points[::stride]:
            values = [field(c) for c in pt]
            for f in self.eqs:
                if f.evaluate(values) != field.zero():
                    raise AssertionError(
                        f"point {list(pt)} fails {f.to_string()} = 0; enumeration bug"
                    )

    def __repr__(self):
        return f"PointSet({len(self._points)} points over GF({self.p}))"


def _guard_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"exhaustive enumeration is limited to p <= {MAX_ENUM_PRIME}, got {p}"
        )


def _scan(ring: WRing, p: int, eqs: Sequence[WPoly],
          extra_mask: Optional[Callable[[List[np.ndarray]], np.ndarray]] = None) -> PointSet:
    """All canonical representatives where every equation vanishes (and the
    optional extra column mask holds).  Chunks come in lexicographic order
    and so do the rows of each chunk, so no sorting is needed."""
    ring_p, eqs_p = _reduce_eqs(ring, p, eqs)
    for f in eqs_p:
        if not f.is_homogeneous():
            raise ValueError(f"equation {f.to_string()} is not homogeneous")
    n = ring.nvars
    points: List[Tuple[int, ...]] = []
    scanned = 0
    for prefix, start in _chunks(ring.weights, p):
        cols = _chunk_columns(prefix, start, n, p)
        mask = np.ones(len(cols[0]), dtype=bool)
        cache: Dict[Tuple[int, int], np.ndarray] = {}
        for f in eqs_p:
            mask &= _eval_on_columns(f, cols, p, cache) == 0
            if not mask.any():
                break
        if extra_mask is not None:
            mask &= extra_mask(cols)
        scanned += len(cols[0])
        points.extend(zip(*(col[mask].tolist() for col in cols)))
    return PointSet(points, p, ring_p, eqs_p, scanned)


def enumerate_points(ring: WRing, p: int, eqs: Sequence[WPoly]) -> PointSet:
    """All GF(p) points of the weighted projective zero locus, each scaling
    orbit exactly once, in deterministic (lexicographic) order."""
    _guard_prime(p)
    return _scan(ring, p, eqs)


def ambient_point_count(weights: Sequence[int], p: int) -> int:
    """Number of canonical representatives, by pure block counting (no
    point is materialized); used as an independent cross-check."""
    _guard_prime(p)
    n = len(weights)
    return sum(p ** (n - start) for _, start in _blocks(weights, p))


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


def fixed_locus(action: MonomialMap, p: int, eqs: Sequence[WPoly]) -> PointSet:
    """All points of the zero locus fixed by a diagonal map as orbits (image
    canonicalizes back to the point itself)."""
    _guard_prime(p)
    ring = action.ring
    if not isinstance(ring.field, PrimeField) or ring.field.p != p:
        raise ValueError("fixed_locus needs a map defined over GF(p) itself")
    patterns = _diagonal_fixed_patterns(action, p)

    def mask_fn(cols: List[np.ndarray]) -> np.ndarray:
        mask = np.zeros(len(cols[0]), dtype=bool)
        for bad in patterns:
            sub = np.ones(len(cols[0]), dtype=bool)
            for v in bad:
                sub &= cols[v] == 0
            mask |= sub
        return mask

    return _scan(ring, p, eqs, extra_mask=mask_fn)


def _family_mod_p(fam: GodeauxFamily, p: int) -> GodeauxFamily:
    if isinstance(fam.field, PrimeField):
        if fam.field.p != p:
            raise ValueError(f"family is over GF({fam.field.p}), not GF({p})")
        return fam
    return reduce_family(fam, p)


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


def _on_surface(locus: PointSet, surface: PointSet) -> List[Tuple[int, ...]]:
    """The points of an ambient locus that lie on the surface, in order."""
    on = set(surface.points)
    return [pt for pt in locus.points if pt in on]


def _pure_y_points(ring: WRing, p: int) -> List[Tuple[int, ...]]:
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
    return pts


@_certificate("quasi-smooth")
def check_quasi_smooth(fam_p: GodeauxFamily, p: int) -> CheckReport:
    """Scan every GF(p) point of the surface for Jacobian rank 2, and the
    ambient singular line x1=x2=x3=0 for surface points.

    A pass shows that no GF(p)-rational point of the reduction mod p is
    singular.  Points over extensions of GF(p) are not checked, so this is
    not a proof of quasi-smoothness mod p, let alone in characteristic 0.
    """
    field = fam_p.ring.field
    zero = field.zero()
    witness = None
    for coords in _pure_y_points(fam_p.ring, p):
        vals = [field(c) for c in coords]
        if fam_p.q0.evaluate(vals) == zero and fam_p.q2.evaluate(vals) == zero:
            witness = list(coords)
            break
    if fam_p.q0.coefficient((0, 0, 0, 1, 1)) == zero:
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

    surface = enumerate_points(fam_p.ring, p, [fam_p.q0, fam_p.q2])
    partials = jacobian([fam_p.q0, fam_p.q2])
    for pt in surface.points:
        vals = [field(c) for c in pt]
        rows = [[entry.evaluate(vals) for entry in row] for row in partials]
        if exact_rank(rows) < 2:
            witness = list(pt)
            break
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

    Fixed loci are computed on the ambient space as unions of coordinate
    subspaces and intersected with the enumerated surface point set.
    """
    i = fam_p.ring.field.sqrt_minus_one()
    surface = enumerate_points(fam_p.ring, p, [fam_p.q0, fam_p.q2])
    witness = None
    sizes = {}
    for name, k in GROUP_ELEMENT_POWERS.items():
        locus = fixed_locus(fam_p.action.power(k).as_monomial_map(i), p, [])
        sizes[name] = len(locus)
        hits = _on_surface(locus, surface)
        if hits and witness is None:
            witness = {"element": name, "point": list(hits[0])}
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
    the zero-patterns of its coordinate subspaces, plus the point count."""
    _guard_prime(p)
    fam_p = _family_mod_p(fam, p)
    m = fam_p.sigma.as_monomial_map()
    patterns = _diagonal_fixed_patterns(m, p)
    locus = fixed_locus(m, p, [])
    names = fam_p.ring.names
    return {
        "zero_patterns": [[names[v] for v in bad] for bad in patterns],
        "count": len(locus),
        "locus": locus,
    }


@_certificate("fixed-locus")
def check_fixed_locus(fam_p: GodeauxFamily, p: int) -> CheckReport:
    """Check that the ambient fixed locus of the involution lift meets the
    surface at a GF(p)-rational point, as its divisorial fixed part needs."""
    info = sigma_fixed_components(fam_p, p)
    surface = enumerate_points(fam_p.ring, p, [fam_p.q0, fam_p.q2])
    hits = _on_surface(info["locus"], surface)
    return CheckReport(
        check="fixed-locus",
        status="pass" if hits else "fail",
        prime=p,
        witness=None if hits else {"reason": "fixed locus misses the surface"},
        points_scanned=surface.scanned,
        notes=("divisorial fixed part requires the locus to meet the surface",),
        data={
            "zero_patterns": info["zero_patterns"],
            "ambient_fixed_points": info["count"],
            "surface_hits": len(hits),
            "sample": list(hits[0]) if hits else None,
        },
    )
