"""Seeded operations of the three workloads and their expected outcomes.

Every operation is one ``godeaux`` argv plus an expectation computed here,
without calling the package: the allowed status of each report, and for
some kinds an extra check of the report data (the frozen sigma-type table,
2-divisibility by enumeration of a small group, the gates of a random cone
configuration by brute force over GF(13)).  Input files the argv names are
written into the run's work directory when the operation is generated.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

OK = ("pass", "lookup")


@dataclass
class Op:
    kind: str
    argv: List[str]
    # allowed statuses, one tuple per report, in report order
    statuses: Tuple[Tuple[str, ...], ...]
    # extra check of the report list: returns a reason when it fails
    extra: Optional[Callable[[list], Optional[str]]] = None
    # for statuses outside ``statuses``: names the other correct outcome the
    # reports show, or returns None when they show none
    alternative: Optional[Callable[[list], Optional[str]]] = None


def expected_exit(statuses: Sequence[str]) -> int:
    """The documented exit-code contract of the command line."""
    if "error" in statuses:
        return 2
    if "fail" in statuses:
        return 1
    return 0


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# certify-p13 / certify-p61


RETRY_BUDGET = 3  # the verify default


def _budget_exhausted(reports: list) -> Optional[str]:
    # every draw had bad reduction at the prime, so the retry loop kept the
    # last one and reports its failed check: the documented outcome of
    # verify, not a wrong answer and not a failed operation
    attempts = [r.get("provenance", {}).get("attempts") for r in reports]
    statuses = {r.get("status") for r in reports}
    if attempts and all(a == RETRY_BUDGET + 1 for a in attempts) \
            and statuses <= {"pass", "fail"}:
        return f"retry budget spent: all {RETRY_BUDGET + 1} draws failed a check"
    return None


def verify_op(prime: int, member_seed: int) -> Op:
    return Op(
        kind=f"verify-p{prime}",
        argv=["verify", "--prime", str(prime), "--seed", str(member_seed)],
        statuses=(("pass",),) * 3,
        alternative=_budget_exhausted,
    )


def certify_stream(prime: int, seed: int) -> Iterator[Op]:
    rng = random.Random(f"certify:{prime}:{seed}")
    while True:
        yield verify_op(prime, rng.randrange(1 << 31))


# ---------------------------------------------------------------------------
# table1 against the frozen reference

# Table 1 of the paper: (degree, character) -> sigma-type, compared as
# unordered pairs (no sign realization of the lift reproduces it ordered)
REFERENCE_SIGMA_TABLE = {
    (1, 0): (0, 0), (1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0),
    (2, 0): (2, 0), (2, 1): (1, 1), (2, 2): (2, 0), (2, 3): (1, 1),
    (4, 0): (5, 2), (4, 1): (4, 3), (4, 2): (5, 2), (4, 3): (4, 3),
}
LIFTS = ("sigma", "sigma_g2")


def _check_table1(reports: list) -> Optional[str]:
    data = reports[0].get("data", {})
    if sorted(data.get("matched_lifts", ())) != sorted(LIFTS):
        return f"matched lifts {data.get('matched_lifts')}"
    for lift in LIFTS:
        cells = data.get("cells", {}).get(lift, {})
        for (d, c), want in REFERENCE_SIGMA_TABLE.items():
            got = cells.get(f"m={d},c={c}")
            if got is None or sorted(got) != sorted(want):
                return f"{lift} cell m={d},c={c}: {got} != {list(want)}"
    return None


def table1_op(member_seed: int) -> Op:
    return Op(
        kind="table1",
        argv=["table1", "--seed", str(member_seed)],
        statuses=(("pass",),),
        extra=_check_table1,
    )


def table1_odd_member_op(seed: int, work: str) -> Op:
    """table1 on a member with involution-odd monomials: a legitimate
    degeneration, for which the correct answer is an error report (exit 2).
    The command raises on it today, so it runs once per run as a probe,
    outside the timed and counted ops."""
    member_seed = random.Random(f"odd-member:{seed}").randrange(1 << 31)
    path = _write_json(
        os.path.join(work, "coeffs-odd-member.json"),
        {"field": "Q", "seed": member_seed, "enforce_involution": False},
    )
    return Op(kind="table1-odd", argv=["table1", "--coeffs", path],
              statuses=(("error",),))


# ---------------------------------------------------------------------------
# quadric cone

CONE_P = 13
CONE_VARS = ("y0", "y1", "y2", "y3")
TAU_SIGNS = (1, -1, -1, 1)
VERTEX = (0, 0, 0, 1)
SMOOTH_FIXED = ((0, 1, 0, 0), (0, 0, 1, 0))
QUADRATIC_EXPONENTS = tuple(
    e for e in itertools.product(range(3), repeat=4) if sum(e) == 2
)


def _eval(poly: Dict[Tuple[int, ...], int], pt: Sequence[int], p: int) -> int:
    total = 0
    for e, c in poly.items():
        term = c
        for x, k in zip(pt, e):
            term *= x ** k
        total += term
    return total % p


def _projective_points(n: int, p: int) -> Iterator[Tuple[int, ...]]:
    """One representative per point of P^(n-1)(GF(p)): leading entry 1."""
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def _poly_text(poly: Dict[Tuple[int, ...], int]) -> str:
    terms = []
    for e, c in poly.items():
        mono = " ".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(CONE_VARS, e) if k
        )
        terms.append(f"{c}*{mono}")
    return " + ".join(terms)


def _tau(poly):
    out = {}
    for e, c in poly.items():
        sign = 1
        for s, k in zip(TAU_SIGNS, e):
            sign *= s ** k
        out[e] = sign * c
    return out


def cone_config_op(rng: random.Random, work: str, tag: str) -> Op:
    """A random general branch configuration and its degeneration verdict.

    The gates are decided here: the vertex and the three fixed points by
    exact evaluation, the triple intersection cone = B1 = B2 = B3 by brute
    force over P^3(GF(13)).
    """
    q1 = {e: rng.choice([c for c in range(-6, 7) if c])
          for e in QUADRATIC_EXPONENTS if rng.random() < 0.7}
    for e in ((0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)):
        q1.setdefault(e, rng.choice([c for c in range(-6, 7) if c]))
    h3 = {(1, 0, 0, 0): rng.choice([1, 2, 3, -1, -2]),
          (0, 0, 0, 1): rng.choice([1, 2, 3, 5, -1, -3])}
    q2 = _tau(q1)
    cone = {(2, 0, 0, 0): 1, (0, 1, 1, 0): -1}
    p = CONE_P

    def vanishes(f, pt):
        return _eval(f, pt, p) == 0

    vertex_clear = not any(vanishes(f, VERTEX) for f in (q1, q2, h3))
    triple_empty = not any(
        vanishes(h3, pt) and vanishes(cone, pt) and vanishes(q1, pt)
        and vanishes(q2, pt)
        for pt in _projective_points(4, p)
    )
    fixed_clear = not any(
        vanishes(q1, pt) or vanishes(q2, pt) for pt in (VERTEX,) + SMOOTH_FIXED
    )
    general = vertex_clear and triple_empty and fixed_clear
    path = _write_json(
        os.path.join(work, f"cone-{tag}.json"),
        {"case": "general", "q1": _poly_text(q1), "h3": _poly_text(h3)},
    )
    return Op(
        kind="cone-config",
        argv=["cone", "degenerate", "--config", path],
        statuses=(OK if general else ("fail",),),
    )


def _det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def pencil_op(rng: random.Random, work: str, tag: str) -> Op:
    """Four plane points with no three collinear (every 3x3 minor nonzero)."""
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        if all(_det3(*trio) for trio in itertools.combinations(pts, 3)):
            break
    path = _write_json(os.path.join(work, f"frame-{tag}.json"),
                       [list(pt) for pt in pts])
    return Op(kind="cone-pencil", argv=["cone", "pencil", "--points", path],
              statuses=(OK,))


# ---------------------------------------------------------------------------
# 2-divisibility by enumeration


def _span(factors, gens) -> frozenset:
    """Subgroup generated by gens inside Z/d1 x ... x Z/dk, by closure."""
    zero = (0,) * len(factors)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                f = tuple((x + y) % d for x, y, d in zip(e, s, factors))
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return frozenset(seen)


def divisibility_op(rng: random.Random) -> Op:
    factors = [rng.choice([2, 3, 4, 6, 8])]
    for _ in range(rng.randrange(3)):
        nxt = factors[-1] * rng.choice([1, 2, 3, 4])
        if math.prod(factors) * nxt > 512:
            break
        factors.append(nxt)
    element = tuple(rng.randrange(d) for d in factors)
    modulo = [tuple(rng.randrange(d) for d in factors)
              for _ in range(rng.randrange(3))]
    doubles = [tuple(2 if i == j else 0 for j in range(len(factors)))
               for i in range(len(factors))]
    divisible = element in _span(factors, doubles + modulo)
    allowed = _span(factors, modulo)

    def check(reports: list) -> Optional[str]:
        rep = reports[0]
        if rep.get("data", {}).get("divisible") is not divisible:
            return f"divisible flag {rep.get('data', {}).get('divisible')}"
        if divisible:
            half = (rep.get("witness") or {}).get("half")
            if half is None or len(half) != len(factors):
                return f"bad witness {half}"
            residual = tuple((2 * h - g) % d
                             for h, g, d in zip(half, element, factors))
            if residual not in allowed:
                return f"witness {half} does not halve {list(element)}"
        return None

    argv = ["group", "divisibility",
            "--group", "x".join(f"Z{d}" for d in factors),
            "--element", ",".join(map(str, element))]
    for m in modulo:
        argv += ["--modulo", ",".join(map(str, m))]
    return Op(kind="group-divisibility", argv=argv,
              statuses=(("pass",) if divisible else ("fail",),), extra=check)


# ---------------------------------------------------------------------------
# exact-algebra rotation

DEGENERATE_CASES = ("general", "1", "2", "3", "4", "exP")
ROTATION = 18  # ops per cycle of exact_algebra_stream


def exact_algebra_stream(seed: int, work: str, prefix: str = "") -> Iterator[Op]:
    """A fixed rotation of op kinds; seeded inputs change every cycle."""
    rng = random.Random(f"exact-algebra:{prefix}{seed}")
    presets_validate = ("enriques", "f2")
    presets_invariants = ("enriques", "f2", "p2")
    lift_cases = ("a", "b", "double")
    for cycle in itertools.count():
        tag = f"{prefix}{cycle}"
        yield table1_op(rng.randrange(1 << 31))
        for case in DEGENERATE_CASES:
            # case 3: B1 = H0 + H1 and its involution image share the
            # invariant plane section H0, so the intersection census errs
            census = ("error",) if case == "3" else ("pass",)
            yield Op(kind=f"cone-degenerate-{case}",
                     argv=["cone", "degenerate", "--case", case,
                           "--intersections"],
                     statuses=(OK, census))
        yield cone_config_op(rng, work, tag)
        yield Op(kind="cone-image-check", argv=["cone", "image-check"],
                 statuses=(OK,))
        yield Op(kind="cone-fixed-points", argv=["cone", "fixed-points"],
                 statuses=(OK,))
        yield pencil_op(rng, work, tag)
        yield Op(kind="cover-validate",
                 argv=["cover", "validate", "--preset",
                       presets_validate[cycle % 2]],
                 statuses=(OK,))
        yield Op(kind="cover-invariants",
                 argv=["cover", "invariants", "--preset",
                       presets_invariants[cycle % 3]],
                 statuses=(OK,))
        yield Op(kind="cover-lift",
                 argv=["cover", "lift", "--case", lift_cases[cycle % 3]],
                 statuses=(OK,))
        yield Op(kind="cover-even-set", argv=["cover", "even-set"],
                 statuses=(OK,))
        yield Op(kind="cover-enriques", argv=["cover", "enriques"],
                 statuses=(OK,))
        yield divisibility_op(rng)
        yield divisibility_op(rng)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int, str], Iterator[Op]]
    # the op a fresh interpreter completes when set-up time is measured
    setup_op: Callable[[int, str], Op]
    # ops run in process before timing starts
    warmup: Callable[[int, str], List[Op]]
    # nominal seconds per op at the seed commit; sizes the traced op list
    nominal_op_s: float
    # an op with a known defect, run once per run outside the counted ops
    probe: Optional[Callable[[int, str], Op]] = None


def _first_p13_member(seed: int, work: str) -> Op:
    return next(certify_stream(13, seed))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "certify-p13",
            lambda seed, work: certify_stream(13, seed),
            _first_p13_member,
            lambda seed, work: [_first_p13_member(seed, work)],
            0.075,
        ),
        Workload(
            "certify-p61",
            lambda seed, work: certify_stream(61, seed),
            # a p = 61 member takes ~20 s, so set-up completes a p = 13
            # member and several fresh interpreters fit in one run
            _first_p13_member,
            # no warm-up: a smaller op run first leaves a heap that raises
            # the p = 61 peak RSS by about 300 MB
            lambda seed, work: [],
            19.0,
        ),
        Workload(
            "exact-algebra",
            exact_algebra_stream,
            lambda seed, work: table1_op(random.Random(f"setup:{seed}").randrange(1 << 31)),
            # one rotation on inputs of their own, so every op kind has run
            lambda seed, work: list(itertools.islice(
                exact_algebra_stream(seed, work, prefix="warmup-"), ROTATION)),
            0.01,
            probe=table1_odd_member_op,
        ),
    )
}
