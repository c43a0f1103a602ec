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
t and the others outer.  The outer rows of all the boxes are taken
together, in lexicographic order and in batches; a box whose prefix fixes s
keeps only that value of s, and a single-point box also fixes t.  Each
equation is split as the sum of g_ij(outer) s^i t^j, and a batch is
scanned in four stages:

- evaluate: each nonzero g_ij is evaluated once per outer row (p^2 rows
  for the surface, not p^3), as one product of its coefficients with a
  table of the values of the outer monomials;
- solve s: the equations free of t, the filters, are polynomials in S =
  s^2 when every exponent of s in them is even, in S = s otherwise.  S is
  solved on each outer row as t is below, from the filters in increasing
  order of degree in S; every filter is tested on each (row, S) by a
  Horner step in S, and S gives s = +-sqrt(S) from the square-root table;
- solve t: on the kept (row, s) the coefficients c_k = sum over i of
  g_ik s^i of t^k of the other equations are built, and t is solved from
  the first of them, in increasing order of t-degree, that does not vanish
  identically on the row: a t^2 + b t + c, with its roots in GF(p) from a
  square-root table and an inverse table.  A row keeps its whole fibre of
  p values where each such equation vanishes or has degree above 2 in t;
- test: every candidate (row, t) is tested against every equation of
  positive t-degree by a Horner step in t.

The eliminant joins the filters.  When one equation is B t + C, of degree 1
in t (the pivot), and another is h = sum of h_k t^k, of positive degree d
in t, then R = Res_t(B t + C, h) = sum of h_k (-C)^k B^(d-k) is free of t.
It lies in the ideal of the equations, B^d h = R + (B t + C) Q for a
polynomial Q, because each (B t)^k - (-C)^k is a multiple of B t + C; so it
changes no zero set.  Where B != 0, R = B^d h(-C/B) vanishes exactly where
the root of the pivot is a root of h; where B = 0, a common zero forces
C = 0, and then R = h_d (-C)^d = 0.  With sigma enforced, q0 = F + c s t
and q2 = G + a s^2 + b t^2 (s = y1, t = y3), so R = a c^2 s^4 + c^2 G s^2
+ b F^2 is a quadratic in S = s^2: on each of the about p^2 outer rows
where R does not vanish identically the s stage keeps at most four values
of s, and the t stage about one value of t on each.

Such a sigma member is solved in closed form instead (``_sigma_points``).
The stage runs where the two equations reduce mod p to F + c s t and G +
a s^2 + b t^2, in either order, with F and G free of s and t and a, b, c
constants, nonzero mod p (``_sigma_split``); the choice reads only the
supports of the reduced equations, so the cone's scans, the members
without sigma and the members whose a, b or c vanishes mod p keep the
fibred path.  On each outer row F and G are evaluated as a slot is below,
and S is a root of R / (a c^2) = S^2 + (G / a) S + b F^2 / (a c^2): as
a c^2 != 0, a true quadratic on every row, with no pending row, no linear
case and no whole fibre.  A root S != 0 gives s = +-sqrt(S) and t =
-F / (c s); then q0 vanishes, and so does q2 = R / (c^2 S), so no
candidate is tested, and ``candidates`` counts the points solved.  S = 0
is a root exactly where F = 0, and gives s = 0 and b t^2 = -G.  After F
and G, no intermediate passes 2 p^2, and the key (row p + s) p + t that
orders the points stays below CHUNK_LIMIT p.  Such a member builds no
eliminant template, fill or split layout: its split is the outer
monomials of F and G and the places of a, b and c in the coefficient
vector, once per support.

The coefficients of R are fixed polynomials in the coefficients of the
equations, such as a c^2, c^2 G and b F^2 above, so R is expanded once per
support of the equations, as a template in their coefficient indices, and
a member only fills it in mod p (``_fill``), as it does the minor in s and
t of the Jacobian, a template of the same form.  The split of the
equations by their exponents of s and t, with its table of the powers of
s, and the terms of the partials of the Jacobian are built once per
support and prime the same way, and read through the member's coefficient
vector; the values of the outer monomials on the outer rows, once per set
of outer monomials, prime and fold (``_outer_tables``).  A member
of the family is then a coefficient vector on a support that only changes
where a term of R vanishes mod p.  An equation is taken apart once, as it
enters a scan, into its terms mod p with int coefficients (``_reduce_eqs``),
and only those are read after: by the scan, the point set, the fixed loci
and the rank test.  This is the one reduction mod p: an equation over Q
enters a scan as it is, and so does a diagonal map over Q, whose scalars
are reduced where its fixed patterns are read (``_diagonal_fixed_patterns``).
Every check of a member at p reads one record, its surface
(``surface_points``), and reads the member's terms mod p off it.

Arithmetic is exact.  The value of an outer monomial is reduced mod p
after each factor, once per table, and kept in a byte: every residue below
p <= MAX_ENUM_PRIME fits.  A member computes only the nonzero slots (q, i)
of its split, each g as one float64 product of its coefficients with the
table: a sum of M products of two residues, M the number of outer
monomials, is an integer below M (p - 1)^2, exact while that stays below
2^53 whatever the order of the summation, and it is reduced once, in
int32.  The rest of the evaluation runs on int32 arrays, the solves and
the tests on int64, and every array is reduced mod p right after each
product: each entry of a power table, each sum of g s^i over the nonzero
slots, each Horner step and the discriminant.  So every factor, S and s
among them, is below p, and no intermediate exceeds M * p^2 for a sum of M
products (M the number of outer monomials, or of powers of s), p^2 + p for
a Horner step in S or in t and 5 p^2 for the discriminant: below 2^31 for
p <= MAX_ENUM_PRIME while M stays below 2^31 / p^2, about 210 000.
``scanned`` counts the canonical representatives of the boxes covered,
whether or not each was a candidate, and ``candidates`` the (row, t) pairs
tested.  The points a scan emits are checked again, on their first read,
against the whole polynomials (``PointSet``).  That check and the others on
the points evaluate on int64 columns of residues (``Columns``), reducing
once per polynomial instead of once per factor: a term c x^e with c and
every coordinate below p is at most (p - 1)^(k + 1), k the degree of x^e,
and a term or the running sum is reduced mod p only where its bound would
pass 2^63 - 1.  Every term of a quartic, or of one of its partials, is
below 101^5 < 2^34 at p <= MAX_ENUM_PRIME, so only the sum is reduced.

A scan may be handed a diagonal map m over GF(p) of which every equation is
an eigenvector; the surface checks hand it the generator g of the group,
defined over GF(p) when p = 1 mod 4.  The zero locus is then a union of
orbits of m.  On the main box, the points (1, x_1, ..., x_(n-1)) whose
first coordinate has weight 1, m rescaled back to x_0 = 1 acts linearly,
as x_v -> d_v x_v.  On the rows with x_1 != 0 the coordinate x_1 alone
tells the images apart, so every orbit there has exactly k points, k the
order of d_1, whether or not the map has fixed points elsewhere (for g on
the Godeaux ring, (x2, x3, y1, y3) -> (i x2, -x3, -i y1, i y3) and k = 4).
So the main box is scanned only on the rows with x_1 = 0 and on those whose
x_1 is the least member of its coset of GF(p)* modulo the powers of d_1,
every other box in full, and the other images are never built: a folded
scan returns one row per orbit, with its size.  A row on the main box off
x_1 = 0 stands for the k points of its orbit and has size k, every other
row only for itself and has size 1.  The number of points is the sum of
the sizes, and ``scanned`` still counts every canonical representative, the
ones reached through the map included; only ``candidates`` falls, to about
1/k on the main box.  A row with x_1 != 0 on the main box is the least
point of its orbit, since the k points of the orbit have distinct x_1 and
the kept one has the least.  So every point that is not kept has a smaller
kept point in its orbit, and a property that the map preserves is first
met, in scan order, at a kept row: it can be tested on the rows alone, and
the points that have it number the sum of the sizes of the rows that have
it.  Rank deficiency of the Jacobian of the surface is such a property.
Rank below 2 forces every 2x2 minor to vanish, so the minor in s and t is
evaluated first, on every row, and the rows where it vanishes mod p, about
1/p of them, are the only ones whose every minor is tested.  q0
and q2 are eigenvectors of g, with characters chi, so J(g x) = diag(chi)
J(x) diag(s)^-1 for the scalars s of g, of the rank of J(x); the weighted
rescaling back to the main box multiplies the rows and the columns of J by
powers of the scale, which keeps the rank too.  Lying on a union of
coordinate subspaces is another, as g is diagonal: the ambient singular
line, the points that a power of g fixes and the fixed locus of the
involution are such unions.  A point set codes, once per surface, which
coordinates are 0 on each row, so each pattern of a union is one test of
that code.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .family import GodeauxFamily, canonical_action, canonical_lifts, canonical_ring
from .reports import CheckReport
from .scalars import PrimeField, Rationals, is_prime
from .wpoly import MonomialMap, WPoly, WRing

MAX_ENUM_PRIME = 101
_INT64_MAX = (1 << 63) - 1
CHUNK_LIMIT = 1 << 17
# the box of the points whose first coordinate, of weight 1, is 1: (prefix,
# start) in _blocks
MAIN_BOX = ((1,), 1)

Terms = List[Tuple[Tuple[int, ...], int]]
# the exponents of the terms of each equation, in term order
Supports = Tuple[Tuple[Tuple[int, ...], ...], ...]
# a polynomial in the coefficients of a vector: (monomial, ((multiplicity,
# getter), ...)), the getter picking the factors of one product (see _fill)
Template = Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, Callable], ...]], ...]


@functools.lru_cache(maxsize=256)
def _blocks(weights: Tuple[int, ...], p: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Partition of the canonical representatives into free boxes.

    Holds (prefix, start): coordinates before start are fixed to prefix and
    the rest range freely over GF(p), plus fully determined single points as
    (prefix, n).  Boxes are listed in lexicographic order of their points.
    Memoized by value, as it depends on nothing else.
    """
    return tuple(_boxes(weights, p, 0, list(range(1, p)), (), False))


def _boxes(weights: Tuple[int, ...], p: int, idx: int, cands: List[int],
           prefix: Tuple[int, ...], nonzero: bool):
    """The boxes of _blocks below a prefix of idx fixed coordinates, cands
    the scalings that still fix the prefix.  A module-level recursion, so no
    closure refers to itself and nothing is left for the cycle collector."""
    n = len(weights)
    if nonzero and all(
        pow(lam, weights[j], p) == 1 for lam in cands for j in range(idx, n)
    ):
        yield (prefix, idx)
        return
    if idx == n:
        if nonzero:
            yield (prefix, n)
        return
    yield from _boxes(weights, p, idx + 1, cands, prefix + (0,), nonzero)
    w = weights[idx]
    image = {pow(lam, w, p) for lam in cands}
    stab = [lam for lam in cands if pow(lam, w, p) == 1]
    seen = bytearray(p)
    for a in range(1, p):
        if seen[a]:
            continue
        for k in image:
            seen[k * a % p] = 1
        yield from _boxes(weights, p, idx + 1, stab, prefix + (a,), True)


@functools.lru_cache(maxsize=256)
def _orbit_count(weights: Tuple[int, ...], p: int) -> int:
    """Number of GF(p) points of P(weights), by block counting; memoized by
    value, like _blocks."""
    n = len(weights)
    return sum(p ** (n - start) for _, start in _blocks(weights, p))


class Columns:
    """Coordinate columns of a batch of points, each entry a residue in
    [0, p), on which polynomials with residue coefficients are evaluated."""

    __slots__ = ("cols", "p")

    def __init__(self, cols: Sequence[np.ndarray], p: int):
        self.cols = [np.ascontiguousarray(col, dtype=np.int64) for col in cols]
        self.p = p

    def evaluate(self, terms: Terms) -> np.ndarray:
        """The polynomial mod p on every point.  Factors are multiplied
        unreduced; a term or the running sum is reduced only where the
        bound of its next step would pass _INT64_MAX."""
        p, top = self.p, self.p - 1
        total = np.zeros(len(self.cols[0]), dtype=np.int64)
        bound = 0
        for expts, coeff in terms:
            term, size = coeff, coeff
            for v, e in enumerate(expts):
                for _ in range(e):
                    if size * top > _INT64_MAX:
                        term %= p
                        size = top
                    term = term * self.cols[v]
                    size *= top
            if bound + size > _INT64_MAX:
                total %= p
                bound = top
            total += term
            bound += size
        return total % p


def _t_parts(terms: Terms) -> List[Dict[Tuple[int, ...], int]]:
    """The coefficients of the powers of the last coordinate t, indexed by
    the power, each as terms with the exponent of t set to 0; no part for
    the zero polynomial."""
    parts: List[Dict[Tuple[int, ...], int]] = []
    for e, c in terms:
        while len(parts) <= e[-1]:
            parts.append({})
        parts[e[-1]][e[:-1] + (0,)] = c
    return parts


def _indexed(supports: Supports) -> List[Iterator[Tuple[Tuple[int, ...], int]]]:
    """The terms of each equation with each coefficient replaced by its
    index in the coefficient vector, the coefficients of all equations in
    term order; each equation's terms can be read once."""
    starts = itertools.accumulate(map(len, supports), initial=0)
    return [zip(s, itertools.count(start)) for s, start in zip(supports, starts)]


def _supports(terms: Sequence[Terms]) -> Supports:
    """The exponents of the terms of each equation, in term order: the key
    of the memoized templates, which index the coefficients in this order."""
    return tuple(tuple(e for e, _ in ts) for ts in terms)


def _coefficients(terms: Sequence[Terms]) -> List[int]:
    """The coefficients of every equation in term order: the vector that
    the coefficient indices of the templates point into."""
    return [c for ts in terms for _, c in ts]


def _multinomial(chosen: Sequence[Tuple[Tuple[int, ...], int]]) -> int:
    """The number of orders of a multiset of terms, given with equal terms
    next to each other."""
    return math.factorial(len(chosen)) // math.prod(
        math.factorial(len(list(run))) for _, run in itertools.groupby(chosen))


def _fill(template: Template, coeffs: Sequence[int], p: int) -> Terms:
    """The polynomial of a template mod p for one coefficient vector: the
    coefficient of each monomial is the sum of multiplicity times product
    over its products.  Terms that vanish mod p are left out."""
    out = []
    for e, products in template:
        v = sum(m * math.prod(get(coeffs)) for m, get in products) % p
        if v:
            out.append((e, v))
    return out


@functools.lru_cache(maxsize=64)
def _eliminant_template(supports: Supports, n: int) -> Optional[Template]:
    """Res_t(B t + C, h) = sum over k of h_k (-C)^k B^(d-k), free of t, for
    the first equation B t + C of t-degree 1 (the pivot) and the first
    other equation h = sum of h_k t^k of least positive t-degree d, as a
    Template in increasing order of monomials, symbolic in the coefficients
    of equations with these supports; None without such a pair.  Each
    product is one term of h_k, k terms of C and d - k of B, so no two
    choices give the same product.  Memoized by value."""
    degrees = [max((e[-1] for e in s), default=-1) for s in supports]
    if 1 not in degrees:
        return None
    pivot = degrees.index(1)
    others = [k for k, d in enumerate(degrees) if d > 0 and k != pivot]
    if not others:
        return None
    indexed = _indexed(supports)
    h = _t_parts(indexed[min(others, key=degrees.__getitem__)])
    c, b = _t_parts(indexed[pivot])
    d = len(h) - 1
    zero = (0,) * n
    total: Dict[Tuple[int, ...], list] = {}
    for k, hk in enumerate(h):
        if not hk:
            continue
        for cs in itertools.combinations_with_replacement(c.items(), k):
            for bs in itertools.combinations_with_replacement(b.items(), d - k):
                mult = (-1) ** k * _multinomial(cs) * _multinomial(bs)
                chosen = cs + bs
                base = tuple(map(sum, zip(zero, *(e for e, _ in chosen))))
                picks = tuple(j for _, j in chosen)
                for e, i in hk.items():
                    total.setdefault(tuple(map(operator.add, base, e)), []).append(
                        (mult, operator.itemgetter(i, *picks)))
    return tuple((e, tuple(total[e])) for e in sorted(total))


class _SplitLayout(NamedTuple):
    """The equations of a scan split by the exponents (i, j) of the last two
    coordinates s and t: each is the sum of g_ij(outer) s^i t^j, where g_ij
    is a polynomial in the other (outer) coordinates.

    The scan evaluates polynomials in s, numbered q: first one per equation
    free of t (the filters), then g_0j + g_1j s + ... for j = 0, 1, ... of
    each equation of positive t-degree, in increasing order of t-degree, so
    that t is solved from the first; ``equations`` holds the range of q of
    each of these, counted from the first.  ``filters`` holds the degree of
    each filter in S = s^step, in increasing order: ``step`` is 2 when every
    exponent of s in the filters is even, 1 otherwise.
    The zero polynomial, which vanishes everywhere, is left out.
    ``monomials`` holds the outer monomials, as exponents of the outer
    coordinates, in increasing order.  A slot (q, i) is nonzero when some
    term of q has s^i: ``slots`` holds the i of the nonzero slots of each q,
    ``cells`` the (q, i) index arrays of all of them in increasing order,
    and ``places`` the (slot, outer monomial, coefficient index) of each
    term, as a (3, term) array, the index into the coefficient vector of
    the equations.  ``s_powers[i, a]`` is a^i mod p, for every residue a
    and i below ``width``, in int32.  The arrays are read-only.

    None of this depends on the coefficients, so it is built once per
    (supports, n, p) (_split_layout); a member reads it through its
    coefficient vector (outer_values)."""

    step: int
    filters: Tuple[int, ...]
    equations: Tuple[slice, ...]
    polys: int
    width: int
    monomials: Tuple[Tuple[int, ...], ...]
    slots: Tuple[Tuple[int, ...], ...]
    cells: Tuple[np.ndarray, np.ndarray]
    places: np.ndarray
    s_powers: np.ndarray


@functools.lru_cache(maxsize=64)
def _split_layout(supports: Supports, n: int, p: int) -> _SplitLayout:
    """The _SplitLayout of equations with these supports over GF(p), built
    on their coefficient indices and memoized by value; its arrays are
    read-only."""
    parts = [_t_parts(ts) for ts in _indexed(supports)]
    tested = sorted((q for q in parts if len(q) > 1), key=len)
    polys = sorted((q[0] for q in parts if len(q) == 1), key=lambda q: max(e[-2] for e in q))
    step = 2 if all(e[-2] % 2 == 0 for q in polys for e in q) else 1
    filters = tuple(max(e[-2] for e in q) // step for q in polys)
    ends = itertools.accumulate(len(q) for q in tested)
    equations = tuple(slice(end - len(q), end) for q, end in zip(tested, ends))
    polys += [part for q in tested for part in q]
    monomials = tuple(sorted({e[:-2] for q in polys for e in q}))
    index = {m: k for k, m in enumerate(monomials)}
    nonzeros = tuple((k, e[-2], index[e[:-2]], c)
                     for k, q in enumerate(polys) for e, c in q.items())
    width = max((e[-2] for q in polys for e in q), default=0) + 1
    cells = sorted({(q, i) for q, i, _, _ in nonzeros})
    slot = {cell: k for k, cell in enumerate(cells)}
    slots = tuple(tuple(i for k, i in cells if k == q) for q in range(len(polys)))
    places = np.array([(slot[q, i], m, c) for q, i, m, c in nonzeros],
                      dtype=np.intp).reshape(-1, 3).T
    cells = tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)
    s_powers = _residue_powers(p, width - 1).T.astype(np.int32)
    for array in (*cells, places, s_powers):
        array.flags.writeable = False
    return _SplitLayout(step, filters, equations, len(polys), width, monomials, slots, cells,
                        places, s_powers)


def monomial_values(monomials: Sequence[Tuple[int, ...]], cols: np.ndarray,
                    p: int) -> np.ndarray:
    """The value mod p of each monomial, given by its exponents of the outer
    coordinates, on every outer row of the (outer coordinate, row) columns,
    as a read-only (monomial, row) uint8 array: every residue below
    p <= MAX_ENUM_PRIME fits in a byte."""
    exponents = np.array(monomials, dtype=np.int64).reshape(len(monomials), len(cols))
    powers = _residue_powers(p, int(exponents.max(initial=0)))
    values = np.ones((len(monomials), cols.shape[1]), dtype=np.int64)
    for e, col in zip(exponents.T, cols):
        values = values * powers[col, e[:, None]] % p
    values = values.astype(np.uint8)
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=8)
def _outer_tables(monomials: Tuple[Tuple[int, ...], ...], weights: Tuple[int, ...], p: int,
                  d1: Optional[int] = None) -> Tuple[np.ndarray, ...]:
    """monomial_values on the outer coordinates of each batch of
    _outer_batches(weights, p, d1): the part of a scan that no coefficient
    changes, shared by every member whose split has these outer monomials.
    Memoized by value and bounded, as a table holds a byte per (monomial,
    outer row): 23 x 1042 for a sigma member at p = 61."""
    return tuple(monomial_values(monomials, batch[:len(weights) - 2], p)
                 for batch in _outer_batches(weights, p, d1))


def outer_values(split: _SplitLayout, coeffs: Sequence[int], values: np.ndarray,
                 p: int) -> np.ndarray:
    """The coefficients of every polynomial q in s of the split, for the
    coefficient vector coeffs, on the outer rows whose (monomial, row)
    table is values (monomial_values), as a (q, i, row) int32 array mod p.
    Only the nonzero slots are computed, each as the product of the row of
    the member's coefficients on its monomials with the table, reduced
    once; every other slot is 0.  The product runs in float64 over
    residues: every partial sum is an integer below M (p - 1)^2, M the
    number of outer monomials, exact while M (p - 1)^2 < 2^53, so no order
    of summation and no thread count of the BLAS product changes a value.
    The sums are then reduced in int32, which holds them while
    M (p - 1)^2 < 2^31, the bound of every int32 sum of the scan: M below
    210 000 at p <= MAX_ENUM_PRIME."""
    slot, monomial, index = split.places
    matrix = np.zeros((len(split.cells[0]), len(split.monomials)))
    matrix[slot, monomial] = np.take(coeffs, index)
    sums = (matrix @ values.astype(np.float64)).astype(np.int32)
    sums %= p
    out = np.zeros((split.polys, split.width, values.shape[1]), dtype=np.int32)
    out[split.cells] = sums
    return out


@functools.lru_cache(maxsize=64)
def _residue_powers(p: int, top: int) -> np.ndarray:
    """The read-only (a, k) matrix of a^k mod p for every residue a and k up
    to top, memoized by value."""
    table = np.ones((p, top + 1), dtype=np.int64)
    for k in range(1, top + 1):
        table[:, k] = table[:, k - 1] * np.arange(p) % p
    table.flags.writeable = False
    return table


def _row_values(g: np.ndarray, slots: Sequence[Tuple[int, ...]], outer_row: np.ndarray,
                s_powers: np.ndarray, p: int) -> np.ndarray:
    """The same polynomials on chosen grid rows, given by their outer row
    and the (i, grid row) powers of their s, as a (q, grid row) matrix: for
    each q the sum of g[q, i] s^i over the i of its nonzero slots (slots),
    reduced once.  A sum is below width (p - 1)^2 < 2^31."""
    out = np.zeros((len(slots), len(outer_row)), dtype=np.int32)
    for q, nonzero in enumerate(slots):
        for i in nonzero:
            term = g[q, i].take(outer_row)
            if i:
                term *= s_powers[i]
            out[q] += term
    out %= p
    return out


def _horner(coeffs: np.ndarray, row: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """sum over k of coeffs[k, row] t^k mod p, for each (row, t) pair."""
    value = coeffs[-1][row]
    for c in coeffs[-2::-1]:
        value = (value * t + c[row]) % p
    return value


class _Fibres:
    """Candidate values of one unknown, S = s^step on each outer row or t
    on each kept (row, s), the roots in GF(p) of an equation of degree at
    most 2 in it, from a square-root table and an inverse table, and the
    whole fibre where no such equation is left to solve.  The tables are
    read-only; a scan takes them from _fibres, built once per prime."""

    def __init__(self, p: int):
        self.p = p
        squares = np.arange(p, dtype=np.int64) ** 2 % p
        self.sqrt = np.full(p, -1, dtype=np.int64)
        self.sqrt[squares] = np.arange(p)
        self.inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
        self.sqrt.flags.writeable = self.inv.flags.writeable = False

    def solve(self, coeffs: Sequence[np.ndarray], size: int) -> Tuple[np.ndarray, np.ndarray]:
        """(row, root) pairs over size rows, each pair once, in no
        particular order, from the (k, row) matrices of the coefficients c_k
        of the k-th power of the unknown in the equations, in increasing
        order of degree.  Each row is solved from the first equation that
        does not vanish identically on it, as long as its degree is at most
        2; a row with none keeps its whole fibre."""
        p = self.p
        c, b, a = np.zeros((3, size), dtype=np.int64)
        pending = np.ones(size, dtype=bool)
        for eq in coeffs:
            if len(eq) > 3:
                break
            take = (pending & eq.any(axis=0)).nonzero()[0]
            for have, k in zip((c, b, a), eq):
                have[take] = k[take]
            pending[take] = False
        quad = a != 0
        disc = (b * b - 4 * a * c) % p
        root = self.sqrt[disc]
        inv2a = self.inv[2 * a % p]
        real = quad & (root >= 0)
        plus = real.nonzero()[0]
        minus = (real & (disc != 0)).nonzero()[0]
        lin = (~quad & (b != 0)).nonzero()[0]
        full = (~quad & (b == 0) & (c == 0)).nonzero()[0]
        rows = [plus, minus, lin, np.repeat(full, p)]
        ts = [
            (root[plus] - b[plus]) * inv2a[plus] % p,
            (-root[minus] - b[minus]) * inv2a[minus] % p,
            -c[lin] * self.inv[b[lin]] % p,
            np.arange(len(full) * p) % p,
        ]
        return np.concatenate(rows), np.concatenate(ts)


@functools.lru_cache(maxsize=64)
def _fibres(p: int) -> _Fibres:
    """The _Fibres of p, memoized: they depend on nothing else."""
    return _Fibres(p)


def _reduce_eqs(ring: WRing, p: int, eqs: Sequence[WPoly]) -> Tuple[WRing, List[Terms]]:
    """The ring viewed over GF(p), and the terms of every equation mod p
    with plain int coefficients, reduced from Q where needed; a coefficient
    that vanishes mod p drops out.  Rejects rings over other prime fields."""
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
        if f.ring.field != field and not isinstance(f.ring.field, Rationals):
            raise ValueError(f"cannot view a {f.ring.field.name} equation over GF({p})")
        reduced.append([(e, v) for e, c in f.terms.items() if (v := field(c))])
    return ring_p, reduced


class PointSet:
    """Canonical points of a zero locus over GF(p), in the strictly
    increasing order the scan emits them in: one row per point, or, for a
    scan folded by a symmetry, one row per orbit of the symmetry on the main
    box off x_1 = 0 (see the module docstring).

    ``terms`` holds the int terms mod p of each equation (_reduce_eqs), and
    each is re-evaluated on every row the first time the rows are read back,
    as a self-consistency tripwire.  ``supports`` and ``coeffs`` hold the
    same terms taken apart once (_supports, _coefficients): the key of the
    memoized templates and the coefficient vector they read, passed on by
    the scan that took them apart.  ``sizes`` holds, read-only, the number
    of points each row stands for (all 1 unless the scan was folded), and
    ``len`` their sum, the number of points.  ``scanned`` counts the
    canonical representatives the scan covered, and ``candidates`` the
    (row, t) pairs it tested against the equations (None for a point set
    not made by a scan); the closed form of a sigma member tests none, and
    counts every point it solves, one per row.  ``zero_code`` holds, for each row,
    the sum of 2^v over the coordinates v that are 0 on it, built once on
    first read, so that every fixed-locus mask is one comparison per row.
    """

    __slots__ = ("_rows", "sizes", "p", "ring", "terms", "supports", "coeffs", "scanned",
                 "candidates", "_checked", "_zero_code")

    def __init__(self, points, p: int, ring: WRing, terms: Sequence[Terms],
                 scanned: int, candidates: Optional[int] = None,
                 sizes: Optional[np.ndarray] = None,
                 supports: Optional[Supports] = None, coeffs: Optional[List[int]] = None):
        rows = np.array(points, dtype=np.int64).reshape(-1, ring.nvars)
        rows.flags.writeable = False
        self._rows = rows
        self.sizes = np.array(np.ones(len(rows)) if sizes is None else sizes, dtype=np.int64)
        self.sizes.flags.writeable = False
        self.p = p
        self.ring = ring
        self.terms = tuple(terms)
        self.supports = _supports(self.terms) if supports is None else supports
        self.coeffs = _coefficients(self.terms) if coeffs is None else coeffs
        self.scanned = scanned
        self.candidates = candidates
        self._checked = False
        self._zero_code = None

    @property
    def rows(self) -> np.ndarray:
        """The rows as a read-only (rows x coordinates) int64 array."""
        if not self._checked:
            self._check()
            self._checked = True
        return self._rows

    @property
    def zero_code(self) -> np.ndarray:
        """The read-only per-row code of the coordinates that are 0."""
        if self._zero_code is None:
            self._zero_code = (self._rows == 0) @ (1 << np.arange(self.ring.nvars))
            self._zero_code.flags.writeable = False
        return self._zero_code

    @property
    def points(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __len__(self) -> int:
        return int(self.sizes.sum())

    def _check(self) -> None:
        cols = Columns(self._rows.T, self.p)
        for terms in self.terms:
            bad = np.flatnonzero(cols.evaluate(terms))
            if len(bad):
                raise AssertionError(
                    f"point {self._rows[bad[0]].tolist()} fails "
                    f"{WPoly(self.ring, dict(terms)).to_string()} = 0; enumeration bug"
                )

    def __repr__(self):
        return f"PointSet({len(self)} points over GF({self.p}))"


def guard_prime(p: int) -> None:
    """The primes a scan accepts: odd, and at most MAX_ENUM_PRIME."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"exhaustive enumeration is limited to p <= {MAX_ENUM_PRIME}, got {p}"
        )


@functools.lru_cache(maxsize=64)
def _outer_batches(weights: Tuple[int, ...], p: int, d1: Optional[int] = None
                   ) -> Tuple[np.ndarray, ...]:
    """The outer rows of every box of _blocks, in lexicographic order, cut
    into batches of CHUNK_LIMIT // p rows, the last one of at most as many.
    A batch is a read-only (coordinate, row) array: the n - 2 outer
    coordinates, then the values the box of the row fixes s and t to (-1
    where they are free).  Given d1, the first free coordinate of the main
    box takes only 0 and the coset minima of the powers of d1.  Memoized by
    value."""
    n = len(weights)
    every = np.arange(p, dtype=np.int64)
    boxes = []
    for prefix, start in _blocks(weights, p):
        free = max(0, n - 2 - start)
        head = prefix[:n - 2 - free]
        tail = (prefix[n - 2] if start > n - 2 else -1, prefix[n - 1] if start == n else -1)
        values = [every] * free
        if d1 is not None and (prefix, start) == MAIN_BOX:
            values[0] = _coset_minima(d1, p)
        rest = np.arange(math.prod(map(len, values)), dtype=np.int64)
        block = np.empty((n, len(rest)), dtype=np.int64)
        block[:len(head)] = np.array(head, dtype=np.int64).reshape(-1, 1)
        for k in range(free - 1, -1, -1):
            rest, digit = np.divmod(rest, len(values[k]))
            block[len(head) + k] = values[k][digit]
        block[n - 2:] = np.array(tail, dtype=np.int64).reshape(2, 1)
        boxes.append(block)
    rows = np.concatenate(boxes, axis=1)
    rows.flags.writeable = False
    step = CHUNK_LIMIT // p
    return tuple(rows[:, first:first + step] for first in range(0, rows.shape[1], step))


def _solve_s(g: np.ndarray, s_fixed: np.ndarray, p: int, split: _SplitLayout,
             fibres: _Fibres) -> np.ndarray:
    """The keys row * p + s, in increasing order, of the (outer row, s)
    where every filter vanishes, from the (q, i, row) coefficients g.  S =
    s^step is solved on each row from the filters, and every filter is
    tested on each (row, S) by a Horner step in S.  When step is 2, S gives
    s = +-sqrt(S).  A row whose box fixes s keeps only that value."""
    filters = [g[q, :(d + 1) * split.step:split.step] for q, d in enumerate(split.filters)]
    row, s = fibres.solve(filters, g.shape[2])
    for c in filters:
        hit = _horner(c, row, s, p) == 0
        row, s = row[hit], s[hit]
    if split.step == 2:
        s = fibres.sqrt[s]
        one, two = s >= 0, s > 0
        row, s = np.concatenate([row[one], row[two]]), np.concatenate([s[one], p - s[two]])
    inside = (s_fixed[row] < 0) | (s_fixed[row] == s)
    # the keys are distinct: each (row, S) pair is solved once
    return np.sort(row[inside] * p + s[inside])


def _batch_points(batch: np.ndarray, values: np.ndarray, p: int, split: _SplitLayout,
                  coeffs: Sequence[int], fibres: _Fibres):
    """The points on a batch of outer rows, whose outer monomials take the
    values of the table values (_outer_tables), where every equation of the
    split, with the coefficient vector coeffs, vanishes, as pairs of an
    array of rows in lexicographic order and the number of (row, t)
    candidates tested.

    s is solved on each outer row from the filters (_solve_s).  The
    coefficients in t of the other equations are then built on the kept
    (row, s), CHUNK_LIMIT // p of them at a time, so that at most
    CHUNK_LIMIT candidates are tested at once; a row whose box fixes t
    keeps only that value."""
    cols, s_fixed, t_fixed = batch[:-2], batch[-2], batch[-1]
    g = outer_values(split, coeffs, values, p)
    kept = _solve_s(g, s_fixed, p, split, fibres)
    for lo in range(0, len(kept), CHUNK_LIMIT // p):
        o, s = np.divmod(kept[lo:lo + CHUNK_LIMIT // p], p)
        first = len(split.filters)
        at_rows = _row_values(g[first:], split.slots[first:], o, split.s_powers[:, s], p)
        coeffs = [at_rows[rows] for rows in split.equations]
        row, t = fibres.solve(coeffs, len(o))
        fixed = t_fixed[o[row]]
        inside = np.flatnonzero((fixed < 0) | (fixed == t))
        row, t = row[inside], t[inside]
        tested = len(row)
        mask = np.ones(tested, dtype=bool)
        for c in coeffs:
            mask &= _horner(c, row, t, p) == 0
        row, t = row[mask], t[mask]
        point = [col[o[row]] for col in cols] + [s[row], t]
        # the keys are distinct: each (row, t) pair is a candidate once
        order = np.argsort(row * p + t)
        yield np.stack([col[order] for col in point], axis=1), tested


class _SigmaSplit(NamedTuple):
    """Two equations F + c s t and G + a s^2 + b t^2, in either order, with
    F and G free of s and t and a, b, c constants: a member with sigma
    enforced, s = y1 and t = y3.  ``monomials`` holds the outer monomials of
    F and G in increasing order, ``places`` the (0 for F or 1 for G, outer
    monomial, coefficient index) of each of their terms as a read-only (3,
    term) array, and ``abc`` the coefficient indices of a, b and c.  None of
    this depends on the coefficients, so it is built once per support
    (_sigma_split)."""

    monomials: Tuple[Tuple[int, ...], ...]
    places: np.ndarray
    abc: Tuple[int, int, int]


@functools.lru_cache(maxsize=64)
def _sigma_split(supports: Supports, n: int) -> Optional[_SigmaSplit]:
    """The _SigmaSplit of two equations with these supports, None where
    they do not have its form.  A term that vanishes mod p is not in the
    support of the reduced equations, so a, b and c are nonzero mod p
    wherever the form is found.  Memoized by value."""
    if len(supports) != 2:
        return None
    outer = (0,) * (n - 2)
    st, s2, t2 = outer + (1, 1), outer + (2, 0), outer + (0, 2)
    for first, second in ((0, 1), (1, 0)):
        f, g = (tuple(e for e in supports[k] if e[-2:] == (0, 0)) for k in (first, second))
        if (st in supports[first] and s2 in supports[second] and t2 in supports[second]
                and len(f) + 1 == len(supports[first]) and len(g) + 2 == len(supports[second])):
            break
    else:
        return None
    starts = (0, len(supports[0]))

    def index(k: int, e: Tuple[int, ...]) -> int:
        return starts[k] + supports[k].index(e)

    monomials = tuple(sorted({e[:-2] for e in f + g}))
    column = {m: k for k, m in enumerate(monomials)}
    places = np.array([(q, column[e[:-2]], index(k, e))
                       for q, (k, part) in enumerate(((first, f), (second, g))) for e in part],
                      dtype=np.intp).reshape(-1, 3).T
    places.flags.writeable = False
    return _SigmaSplit(monomials, places, (index(second, s2), index(second, t2), index(first, st)))


def _sigma_points(batch: np.ndarray, values: np.ndarray, p: int, split: _SigmaSplit,
                  coeffs: Sequence[int], fibres: _Fibres) -> np.ndarray:
    """The points of F + c s t = G + a s^2 + b t^2 = 0 (the split) on a
    batch of outer rows, whose outer monomials take the values of the table
    values (_outer_tables), as an array of rows in lexicographic order.

    F and G are evaluated on each row as outer_values evaluates a slot.
    Then S = s^2 is a root of R / (a c^2) = S^2 + (G / a) S + b F^2 / (a c^2),
    a true quadratic on every row, so no row is pending and none keeps its
    whole fibre.  A root S != 0 gives s = +-sqrt(S) and t = -F / (c s): q0
    vanishes, and q2 = R / (c^2 S) vanishes too, so no candidate is tested.
    S = 0 is a root exactly where F = 0, and gives s = 0 and b t^2 = -G.
    Every (row, s, t) is found once; a row whose box fixes s or t keeps only
    that value."""
    cols, s_fixed, t_fixed = batch[:-2], batch[-2], batch[-1]
    q, monomial, index = split.places
    matrix = np.zeros((2, len(split.monomials)))
    matrix[q, monomial] = np.take(coeffs, index)
    f, g = (matrix @ values.astype(np.float64)).astype(np.int64) % p
    a, b, c = (coeffs[k] for k in split.abc)
    u = g * pow(a, -1, p) % p
    v = f * f % p * (b * pow(a * c * c, -1, p) % p) % p
    disc = (u * u - 4 * v) % p
    # the roots S = (-u +- root) / 2 of each row, the second where it is another
    root = fibres.sqrt[disc]
    real = np.flatnonzero(root >= 0)
    two = real[disc[real] != 0]
    row = np.concatenate([real, two])
    square = (np.concatenate([root[real], -root[two]]) - u[row]) * ((p + 1) // 2) % p
    # S != 0: s = +-sqrt(S) and t = -F / (c s)
    r = fibres.sqrt[square]
    off = np.flatnonzero(r > 0)
    off_row, off_s = np.concatenate([row[off], row[off]]), np.concatenate([r[off], p - r[off]])
    # S = 0, where F = 0: s = 0 and t = +-sqrt(-G / b)
    on = row[square == 0]
    r0 = fibres.sqrt[-g[on] * pow(b, -1, p) % p]
    on_row = np.concatenate([on[r0 >= 0], on[r0 > 0]])
    row = np.concatenate([off_row, on_row])
    s = np.concatenate([off_s, np.zeros(len(on_row), dtype=np.int64)])
    t = np.concatenate([-f[off_row] * fibres.inv[c * off_s % p] % p, r0[r0 >= 0], p - r0[r0 > 0]])
    inside = np.flatnonzero(((s_fixed[row] < 0) | (s_fixed[row] == s))
                            & ((t_fixed[row] < 0) | (t_fixed[row] == t)))
    row, s, t = row[inside], s[inside], t[inside]
    # the keys are distinct: each (row, s, t) is found once
    order = np.argsort((row * p + s) * p + t)
    row = row[order]
    return np.stack([col[row] for col in cols] + [s[order], t[order]], axis=1)


def _main_box_action(scalars: Sequence[int], weights: Tuple[int, ...], p: int
                     ) -> Tuple[int, ...]:
    """The diagonal map d that the symmetry with these scalars induces on the
    main box: the image of (1, x_1, ..., x_(n-1)), rescaled so that its first
    coordinate is 1 again, is (1, d_1 x_1, ..., d_(n-1) x_(n-1))."""
    if weights[0] != 1 or len(weights) < 4 or p ** (len(weights) - 1) >= 1 << 63:
        raise ValueError("a symmetric scan needs a first coordinate of weight 1, "
                         "at least four coordinates and p^(n-1) below 2^63")
    back = pow(scalars[0], -1, p)
    return tuple(c * pow(back, w, p) % p for c, w in zip(scalars, weights))


@functools.lru_cache(maxsize=256)
def _coset_minima(d: int, p: int) -> np.ndarray:
    """0 and the least member of each coset of GF(p)* modulo the powers of
    d, in increasing order, as a read-only array memoized by value."""
    seen = bytearray(p)
    minima = [0]
    for a in range(1, p):
        if not seen[a]:
            minima.append(a)
            while not seen[a]:
                seen[a] = 1
                a = a * d % p
    minima = np.array(minima, dtype=np.int64)
    minima.flags.writeable = False
    return minima


def _scan(ring: WRing, p: int, eqs: Sequence[WPoly],
          symmetry: Optional[MonomialMap] = None) -> PointSet:
    """All canonical representatives where every equation vanishes.  A
    sigma member is solved in closed form (_sigma_points); on the fibred
    path, the eliminant, when there is one, joins the filters.  Batches come in
    lexicographic order, so only the survivors of each are sorted.  With a
    symmetry, only the coset minima of x_1 and x_1 = 0 are scanned on the
    main box, and each row found there off x_1 = 0 has the size of its
    orbit, the order of d_1."""
    ring_p, terms = _reduce_eqs(ring, p, eqs)
    for f in terms:
        if len({ring.degree_of(e) for e, _ in f}) > 1:
            raise ValueError(f"equation {WPoly(ring_p, dict(f)).to_string()} is not homogeneous")
    n = ring.nvars
    if n < 2:
        raise ValueError("enumeration needs at least two coordinates")
    d1 = None
    if symmetry is not None:
        if symmetry.ring != ring_p:
            raise ValueError("a symmetric scan needs a map over GF(p) on the same variables")
        for f in terms:
            # the scalar the map multiplies each monomial by, one for an eigenvector
            chars = {symmetry.character_of_monomial(e): e for e, _ in f}
            if len(chars) > 1:
                a, b = list(chars.values())[:2]
                raise ValueError(f"equation {WPoly(ring_p, dict(f)).to_string()} is not an "
                                 f"eigenvector of the symmetry: monomials {a} and {b}")
        d1 = _main_box_action(symmetry.scalars, ring.weights, p)[1]
    supports, coeffs = _supports(terms), _coefficients(terms)
    batches, fibres = _outer_batches(ring.weights, p, d1), _fibres(p)
    sigma = _sigma_split(supports, n)
    if sigma is not None:
        tables = _outer_tables(sigma.monomials, ring.weights, p, d1)
        found = [_sigma_points(batch, values, p, sigma, coeffs, fibres)
                 for batch, values in zip(batches, tables)]
        # every point solved is a candidate, and none is tested
        candidates = sum(map(len, found))
    else:
        scan_supports, scan_coeffs = supports, coeffs
        # the eliminant mod p, left out where there is none or it vanishes
        eliminant = _fill(_eliminant_template(supports, n) or (), coeffs, p)
        if eliminant:
            scan_supports = supports + (tuple(e for e, _ in eliminant),)
            scan_coeffs = coeffs + [c for _, c in eliminant]
        split = _split_layout(scan_supports, n, p)
        found, candidates = [], 0
        tables = _outer_tables(split.monomials, ring.weights, p, d1)
        for batch, values in zip(batches, tables):
            for points, tested in _batch_points(batch, values, p, split, scan_coeffs, fibres):
                found.append(points)
                candidates += tested
    rows = np.concatenate(found) if found else np.empty((0, n), dtype=np.int64)
    sizes = None
    if d1 is not None:
        order = next(k for k in range(1, p) if pow(d1, k, p) == 1)
        sizes = np.where((rows[:, 0] == 1) & (rows[:, 1] != 0), order, 1)
    return PointSet(rows, p, ring_p, terms, _orbit_count(ring.weights, p), candidates, sizes,
                    supports, coeffs)


def enumerate_points(ring: WRing, p: int, eqs: Sequence[WPoly],
                     symmetry: Optional[MonomialMap] = None) -> PointSet:
    """All GF(p) points of the weighted projective zero locus, each scaling
    orbit exactly once, in deterministic (lexicographic) order.  A symmetry,
    a diagonal map over GF(p) of which every equation is an eigenvector,
    folds the scan: the points are the same, but the rows hold one point
    per orbit on the main box off x_1 = 0, each with its orbit size."""
    guard_prime(p)
    return _scan(ring, p, eqs, symmetry)


def _diagonal_fixed_patterns(m: MonomialMap, p: int) -> Tuple[Tuple[int, ...], ...]:
    """The minimal zero-patterns characterizing the points a diagonal map
    over Q or GF(p) fixes mod p: P is fixed iff for some scalar lambda every
    coordinate outside ker(pattern) vanishes.  The scalars are reduced mod
    p here; a map over another prime field, or a scalar that vanishes mod p,
    is refused."""
    field = m.ring.field
    if isinstance(field, PrimeField) and field.p != p:
        raise ValueError(f"map is over GF({field.p}), not GF({p})")
    scalars = tuple(map(PrimeField(p), m.scalars))
    if not all(scalars):
        raise ValueError(f"map scalars must be nonzero mod {p}")
    return _fixed_patterns(m.ring.weights, scalars, p)


@functools.lru_cache(maxsize=256)
def _fixed_patterns(weights: Tuple[int, ...], scalars: Tuple[int, ...],
                    p: int) -> Tuple[Tuple[int, ...], ...]:
    """_diagonal_fixed_patterns of the map x_v -> scalars[v] x_v, memoized by
    value: every draw of a family at p shares the patterns of g and sigma."""
    n = len(weights)
    patterns = set()
    for lam in range(1, p):
        bad = tuple(
            v for v in range(n) if scalars[v] != pow(lam, weights[v], p)
        )
        patterns.add(bad)
    minimal = [
        b for b in patterns
        if not any(set(o) < set(b) for o in patterns if o != b)
    ]
    return tuple(sorted(minimal))


def _fixed_mask(patterns: Sequence[Tuple[int, ...]], code: np.ndarray) -> np.ndarray:
    """Which rows lie in the fixed locus of the patterns, from their
    ``PointSet.zero_code``: those where every coordinate of some pattern is
    0."""
    mask = np.zeros(len(code), dtype=bool)
    for bad in patterns:
        bits = sum(1 << v for v in bad)
        mask |= (code & bits) == bits
    return mask


@functools.lru_cache(maxsize=256)
def _fixed_point_count(weights: Tuple[int, ...], patterns: Tuple[Tuple[int, ...], ...],
                       p: int) -> int:
    """Number of GF(p) points in the union of the coordinate subspaces the
    patterns cut out, by inclusion-exclusion over the patterns; each
    intersection is the weighted space on the coordinates left free.
    Memoized by value, like _orbit_count."""
    total = 0
    for k in range(1, len(patterns) + 1):
        for group in itertools.combinations(patterns, k):
            zero = set().union(*group)
            free = tuple(w for v, w in enumerate(weights) if v not in zero)
            total += (-1) ** (k + 1) * _orbit_count(free, p)
    return total


def fixed_locus(action: MonomialMap, p: int, eqs: Sequence[WPoly]) -> PointSet:
    """All points of the zero locus fixed by a diagonal map as orbits (image
    canonicalizes back to the point itself): the rows of the scan of the
    zero locus that the map's fixed patterns select.  The map and the
    equations may be over Q, and are reduced mod p.  ``scanned`` and
    ``candidates`` are those of the whole scan."""
    guard_prime(p)
    patterns = _diagonal_fixed_patterns(action, p)
    locus = _scan(action.ring, p, eqs)
    return PointSet(locus._rows[_fixed_mask(patterns, locus.zero_code)], p, locus.ring,
                    locus.terms, locus.scanned, locus.candidates,
                    supports=locus.supports, coeffs=locus.coeffs)


@functools.lru_cache(maxsize=1)
def surface_points(fam: GodeauxFamily, p: int) -> PointSet:
    """The record of a family member at p that all its checks read: its
    surface q0 = q2 = 0 mod p, scanned once and folded by the generator g
    of the group (one row per orbit of g on the main box off x2 = 0).  A
    member over Q is reduced by the scan, term by term.  The memo holds the
    last (member, p) only.  A GodeauxFamily compares by identity, so the
    key hashes no polynomial and another member never gets this record,
    even one with the same quartics; the memo relies on a member not being
    changed after build_family."""
    return enumerate_points(fam.ring, p, [fam.q0, fam.q2], _group_generator(p))


@functools.lru_cache(maxsize=16)
def _group_generator(p: int) -> MonomialMap:
    """g as a diagonal map over GF(p), which needs p = 1 mod 4 to put a
    square root of -1 in GF(p), as build_family does; memoized by p."""
    if p % 4 != 1:
        raise ValueError(f"prime field must have p = 1 mod 4, got p = {p}")
    ring = canonical_ring(PrimeField(p))
    return canonical_action(ring).as_monomial_map(ring.field.sqrt_minus_one())


def _certificate(check: str):
    """Decorator for the scan checks: the body gets the member's record at
    p (surface_points), read once per check, and returns its report, which
    is then timed.  A bad prime, a member over another field or a
    coefficient with bad reduction mod p gives an error report instead."""
    def wrap(body: Callable[[PointSet], CheckReport]):
        def run(fam: GodeauxFamily, p: int) -> CheckReport:
            t0 = time.perf_counter()
            try:
                guard_prime(p)
                surface = surface_points(fam, p)
            except ValueError as exc:
                return CheckReport(
                    check=check, status="error", prime=p, notes=(str(exc),),
                )
            report = body(surface)
            report.elapsed_ms = (time.perf_counter() - t0) * 1000
            return report
        # not functools.wraps, which would show the body's signature: a check takes (fam, p)
        run.__name__, run.__qualname__, run.__doc__ = (
            body.__name__, body.__qualname__, body.__doc__)
        return run
    return wrap


SCAN_SCOPE = (
    "characteristic-p scan of the reduction mod p: GF(p)-rational points "
    "only, points over extensions of GF(p) are not checked"
)


# the singular locus of P(1,1,1,2,2): the line x1 = x2 = x3 = 0
AMBIENT_SINGULAR_LINE = ((0, 1, 2),)


class _JacobianTerms(NamedTuple):
    """The Jacobian of two equations on given supports over GF(p): its minor
    in s and t as a Template, each product c_i c_j of a coefficient of a
    partial of the first equation and one of the second; and, one
    entry per term of every partial d f / d x_v, read-only arrays of the
    term's coefficient ``index``, a (term, f * n + v) matrix ``weights``
    holding e_v in the column of its partial, and ``tables``, for each
    coordinate v, the (a, term) matrix of a^(exponent of x_v in the term)
    mod p."""

    minor: Template
    index: np.ndarray
    weights: np.ndarray
    tables: Tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=64)
def _jacobian_terms(supports: Supports, n: int, p: int) -> _JacobianTerms:
    """The _JacobianTerms of two equations with these supports over GF(p).
    The term c x^e of f gives e_v c x^(e - 1_v) in d f / d x_v; a term whose
    e_v vanishes mod p is left out, as the partial over GF(p) has no such
    term.  Memoized by value."""
    partials = [[[(e[:v] + (e[v] - 1,) + e[v + 1:], k, e[v]) for e, k in ts if e[v] % p]
                 for v in range(n)] for ts in map(tuple, _indexed(supports))]
    (fs, ft), (gs, gt) = (f[-2:] for f in partials)
    minor: Dict[Tuple[int, ...], list] = {}
    for sign, left, right in ((1, fs, gt), (-1, ft, gs)):
        for (a, i, ea), (b, j, eb) in itertools.product(left, right):
            minor.setdefault(tuple(map(operator.add, a, b)), []).append(
                (sign * ea * eb, operator.itemgetter(i, j)))
    flat = np.array([(k, m, f * n + v, *e) for f, row in enumerate(partials)
                     for v, terms in enumerate(row) for e, k, m in terms],
                    dtype=np.int64).reshape(-1, n + 3)
    index, exponents = flat[:, 0], flat[:, 3:]
    weights = np.eye(2 * n, dtype=np.int64)[flat[:, 2]] * flat[:, 1:2]
    powers = _residue_powers(p, int(exponents.max(initial=0)))
    tables = tuple(powers[:, e] for e in exponents.T)
    for array in (index, weights, *tables):
        array.flags.writeable = False
    return _JacobianTerms(tuple((e, tuple(minor[e])) for e in sorted(minor)),
                          index, weights, tables)


def _minors_vanish(rows: np.ndarray, coeffs: Sequence[int], jac: _JacobianTerms,
                   p: int) -> np.ndarray:
    """Which rows make every 2x2 minor of the Jacobian vanish mod p, with
    every partial evaluated on every row at once.  A term of a partial of a
    quartic is a product of at most three table entries, so with its
    coefficient it is below p^4 < 2^27: each partial is reduced once, and so
    is each minor."""
    n = rows.shape[1]
    values = np.ones((len(rows), len(jac.index)), dtype=np.int64)
    for table, col in zip(jac.tables, rows.T):
        values *= table[col]
    values = values @ (jac.weights * np.array(coeffs)[jac.index][:, None] % p) % p
    minors = values[:, :n, None] * values[:, None, n:]
    return ((minors - minors.transpose(0, 2, 1)) % p == 0).all(axis=(1, 2))


def _rank_below_two(rows: np.ndarray, supports: Supports, coeffs: Sequence[int],
                    p: int) -> np.ndarray:
    """Which points of the rows make the Jacobian of the two equations of
    rank below 2 mod p: those where each of its 2x2 minors vanishes.  Its
    terms come from the template of the supports (_jacobian_terms), filled
    in with the member's coefficients (_fill for the minor in s and t), as
    the scan took the equations apart (PointSet.supports and coeffs).

    The minor in the last two coordinates s and t is evaluated first, on
    every row, as one polynomial; with sigma enforced it is
    2 c (b t^2 - a s^2).  Only the rows where it vanishes mod p, about 1/p
    of them, take the test of every minor (_minors_vanish); where it
    vanishes identically, every row does."""
    jac = _jacobian_terms(supports, rows.shape[1], p)
    pending = np.flatnonzero(Columns(rows.T, p).evaluate(_fill(jac.minor, coeffs, p)) == 0)
    singular = np.zeros(len(rows), dtype=bool)
    singular[pending] = _minors_vanish(rows[pending], coeffs, jac, p)
    return singular


@_certificate("quasi-smooth")
def check_quasi_smooth(surface: PointSet) -> CheckReport:
    """Scan every GF(p) point of the surface for Jacobian rank 2, after
    checking that none lies on the ambient singular line x1=x2=x3=0.

    Both tests run on the rows of the scan folded by g, one per orbit of g
    on the main box off x2 = 0; no check scans at p = 3 mod 4, where g is
    not defined over GF(p) and the check reports an error.  The
    ambient line and the singular locus are g-stable, so the first row on
    either is the first point on it.  The line is read off the surface's
    zero code; the rank test takes every minor only on the rows where the
    minor in y1 and y3 vanishes (_rank_below_two).

    A pass shows that no GF(p)-rational point of the reduction mod p is
    singular.  Points over extensions of GF(p) are not checked, so this is
    not a proof of quasi-smoothness mod p, let alone in characteristic 0.
    """
    p, rows = surface.p, surface.rows
    on = _fixed_mask(AMBIENT_SINGULAR_LINE, surface.zero_code)
    witness = rows[np.argmax(on)].tolist() if on.any() else None
    if (0, 0, 0, 1, 1) not in surface.supports[0]:
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

    singular = _rank_below_two(rows, surface.supports, surface.coeffs, p)
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


@_certificate("free-action")
def check_free_action(surface: PointSet) -> CheckReport:
    """Check that g, g^2, g^3 fix no GF(p)-rational point of the surface;
    points over extensions of GF(p) are not checked.

    Fixed loci are unions of coordinate subspaces: their points are counted
    by blocks on the ambient space and picked out of the surface rows by
    mask.  They are g-stable, so the first row fixed by an element is the
    first such point.  g^k scales each coordinate by the k-th power of the
    scalar of g (_group_generator).
    """
    p, rows, weights = surface.p, surface.rows, surface.ring.weights
    g = _group_generator(p).scalars
    witness = None
    sizes = {}
    for k, name in enumerate(("g", "g2", "g3"), 1):
        patterns = _fixed_patterns(weights, tuple(pow(c, k, p) for c in g), p)
        sizes[name] = _fixed_point_count(weights, patterns, p)
        hits = rows[_fixed_mask(patterns, surface.zero_code)]
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


def sigma_fixed_components(ring: WRing, p: int) -> Dict[str, object]:
    """Describe the fixed locus mod p of the involution lift sigma on the
    ambient space of the family's ring, over Q or GF(p): its minimal
    zero-patterns, by name and by index, plus the point count."""
    guard_prime(p)
    patterns = _diagonal_fixed_patterns(canonical_lifts(ring)[0].rational_realization(), p)
    return {
        "zero_patterns": [[ring.names[v] for v in bad] for bad in patterns],
        "patterns": patterns,
        "count": _fixed_point_count(ring.weights, patterns, p),
    }


@_certificate("fixed-locus")
def check_fixed_locus(surface: PointSet) -> CheckReport:
    """Check that the ambient fixed locus of the involution lift meets the
    surface at a GF(p)-rational point, as its divisorial fixed part needs.
    The locus is g-stable, so the first surface row on it is the first such
    point, and the points on it number the sum of the sizes of the rows
    on it."""
    p, rows = surface.p, surface.rows
    info = sigma_fixed_components(surface.ring, p)
    on = _fixed_mask(info["patterns"], surface.zero_code)
    hits = rows[on]
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
            "surface_hits": int(surface.sizes[on].sum()),
            "sample": hits[0].tolist() if len(hits) else None,
        },
    )
