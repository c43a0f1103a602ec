"""The canonical family: a pair of quartics on P(1,1,1,2,2) cut out by
character constraints under an order-4 diagonal symmetry, together with two
commuting involution lifts and the sign bookkeeping they induce.

Coordinates are x1, x2, x3 of weight 1 and y1, y3 of weight 2.  The cyclic
generator acts with exponent pattern (1, 2, 3, 1, 3) in Z/4; the surface is
cut by one quartic of character 0 and one of character 2.  The involution
downstairs has two diagonal lifts upstairs, differing by the square of the
generator; coefficient families symmetric under either lift use only the
even-sign monomials, and build_family can enforce that restriction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .grouprep import (
    CyclicAction,
    InvolutionLift,
    SigmaType,
    character_census,
    character_of,
    eigenspace_basis,
    sigma_type,
    sign_clash,
)
from .groups import abelian_label, classify_order8, generated_group
from .reports import CheckReport
from .scalars import QQ, PrimeField, Rationals, field_from_spec, scalar_to_str
from .wpoly import (
    Exponents,
    WPoly,
    WRing,
    apply_map,
    monomial_to_str,
    parse_monomial,
)

WEIGHTS = (1, 1, 1, 2, 2)
VARIABLE_NAMES = ("x1", "x2", "x3", "y1", "y3")
TORSION_ORDER = 4
ACTION_EXPONENTS = (1, 2, 3, 1, 3)
SIGMA_SIGNS = (-1, 1, -1, 1, 1)
SIGMA_G2_SIGNS = (1, 1, 1, -1, -1)
QUARTIC_CHARACTERS = (0, 2)

# frozen sigma-type reference values, keyed by (degree, character); the
# table is reproduced by every sign realization of the involution lift as
# unordered pairs, and by none of them as ordered pairs (see the tests)
REFERENCE_SIGMA_TABLE: Dict[Tuple[int, int], Tuple[int, int]] = {
    (1, 0): (0, 0),
    (1, 1): (1, 0),
    (1, 2): (1, 0),
    (1, 3): (1, 0),
    (2, 0): (2, 0),
    (2, 1): (1, 1),
    (2, 2): (2, 0),
    (2, 3): (1, 1),
    (4, 0): (5, 2),
    (4, 1): (4, 3),
    (4, 2): (5, 2),
    (4, 3): (4, 3),
}
TABLE_DEGREES = (1, 2, 4)


def canonical_ring(field=QQ) -> WRing:
    return WRing(VARIABLE_NAMES, WEIGHTS, field)


def canonical_action(ring: WRing) -> CyclicAction:
    return CyclicAction(ring, TORSION_ORDER, ACTION_EXPONENTS)


def canonical_lifts(ring: WRing) -> Tuple[InvolutionLift, InvolutionLift]:
    return (
        InvolutionLift(ring, SIGMA_SIGNS, "sigma"),
        InvolutionLift(ring, SIGMA_G2_SIGNS, "sigma_g2"),
    )


def allowed_support(ring: WRing, char: int, enforce_involution: bool) -> List[Exponents]:
    """Degree-4 monomials of the given character; with the involution
    enforced, only those of even sign under both lifts survive."""
    action = canonical_action(ring)
    basis = eigenspace_basis(action, 4, char)
    if not enforce_involution:
        return basis
    sigma, sigma_g2 = canonical_lifts(ring)
    return [
        e
        for e in basis
        if sigma.sign_of_monomial(e) == 1 and sigma_g2.sign_of_monomial(e) == 1
    ]


@dataclass(frozen=True)
class FamilyParams:
    """Coefficient data for one member of the family.

    q0 and q2 map monomial strings (as printed by the ring, e.g. "x1^4" or
    "y1 y3") to coefficients; the field spec is anything field_from_spec
    accepts.  Prime fields must have p = 1 mod 4 so the full symmetry is
    realizable by substitution.
    """

    field_spec: object = "Q"
    q0: Dict[str, object] = dc_field(default_factory=dict)
    q2: Dict[str, object] = dc_field(default_factory=dict)
    enforce_involution: bool = True


class GodeauxFamily:
    """A validated family member: ring, the two quartics, and the symmetry
    data acting on them."""

    __slots__ = ("ring", "q0", "q2", "params", "action", "sigma", "sigma_g2")

    def __init__(self, ring, q0, q2, params, action, sigma, sigma_g2):
        self.ring = ring
        self.q0 = q0
        self.q2 = q2
        self.params = params
        self.action = action
        self.sigma = sigma
        self.sigma_g2 = sigma_g2

    @property
    def field(self):
        return self.ring.field

    def quartics(self) -> Tuple[WPoly, WPoly]:
        return (self.q0, self.q2)

    def __repr__(self):
        return (
            f"GodeauxFamily(field={self.field!r}, q0={self.q0.to_string()!r}, "
            f"q2={self.q2.to_string()!r})"
        )


def _poly_from_coeffs(ring: WRing, coeffs: Dict[str, object], char: int,
                      enforce: bool) -> WPoly:
    allowed = set(allowed_support(ring, char, enforce))
    full = set(allowed_support(ring, char, False))
    terms = {}
    for key, value in coeffs.items():
        e = parse_monomial(ring, key)
        if e not in full:
            raise ValueError(
                f"monomial {monomial_to_str(ring, e)} is not a degree-4 "
                f"character-{char} monomial"
            )
        if e not in allowed:
            raise ValueError(
                f"monomial {monomial_to_str(ring, e)} is odd under an "
                f"involution lift but enforce_involution is set"
            )
        c = ring.field(value)
        if c == ring.field.zero():
            raise ValueError(f"zero coefficient supplied for {monomial_to_str(ring, e)}")
        if e in terms:
            raise ValueError(f"duplicate coefficient for {monomial_to_str(ring, e)}")
        terms[e] = c
    poly = ring.zero_poly()
    for e, c in terms.items():
        poly = poly + ring.monomial(e, c)
    if poly.is_zero():
        raise ValueError(f"the character-{char} quartic must be nonzero")
    return poly


def build_family(params: FamilyParams) -> GodeauxFamily:
    field = field_from_spec(params.field_spec)
    if isinstance(field, PrimeField) and field.p % 4 != 1:
        raise ValueError(
            f"prime field must have p = 1 mod 4, got p = {field.p}"
        )
    ring = canonical_ring(field)
    q0 = _poly_from_coeffs(ring, params.q0, 0, params.enforce_involution)
    q2 = _poly_from_coeffs(ring, params.q2, 2, params.enforce_involution)
    action = canonical_action(ring)
    sigma, sigma_g2 = canonical_lifts(ring)
    fam = GodeauxFamily(ring, q0, q2, params, action, sigma, sigma_g2)
    _hard_construction_checks(fam)
    return fam


def random_params(field_spec="Q", seed: int = 0,
                  enforce_involution: bool = True) -> FamilyParams:
    """Draw nonzero coefficients for every allowed monomial, deterministically
    from the seed, in the ring's monomial order."""
    field = field_from_spec(field_spec)
    ring = canonical_ring(field)
    rng = random.Random(seed)
    coeffs = []
    for char in QUARTIC_CHARACTERS:
        block = {}
        for e in allowed_support(ring, char, enforce_involution):
            block[monomial_to_str(ring, e)] = field.random_nonzero(rng)
        coeffs.append(block)
    return FamilyParams(
        field_spec=field_spec,
        q0=coeffs[0],
        q2=coeffs[1],
        enforce_involution=enforce_involution,
    )


def reduce_family(fam: GodeauxFamily, p: int) -> GodeauxFamily:
    """Reduce a family over Q modulo p (bad reduction of any coefficient
    raises)."""
    if not isinstance(fam.field, Rationals):
        raise ValueError("only families over Q can be reduced mod p")
    field = field_from_spec(p)

    def push(block: Dict[str, object]) -> Dict[str, object]:
        return {k: field(Fraction(v)).value for k, v in block.items()}

    params = FamilyParams(
        field_spec=p,
        q0=push(fam.params.q0),
        q2=push(fam.params.q2),
        enforce_involution=fam.params.enforce_involution,
    )
    return build_family(params)


def _hard_construction_checks(fam: GodeauxFamily) -> None:
    """Invariants that must hold for any constructible family; violations
    here mean _poly_from_coeffs let something through."""
    c0 = character_of(fam.q0, fam.action)
    c2 = character_of(fam.q2, fam.action)
    if (c0, c2) != QUARTIC_CHARACTERS:
        raise ValueError(f"quartic characters are ({c0}, {c2}), expected (0, 2)")
    for q, name in ((fam.q0, "q0"), (fam.q2, "q2")):
        if not q.is_homogeneous() or q.degree() != 4:
            raise ValueError(f"{name} is not homogeneous of degree 4")
    g2_map = fam.action.power(2).rational_realization()
    if g2_map is None:
        raise AssertionError("square of the generator must be a sign map")
    if apply_map(fam.q0, g2_map) != fam.q0:
        raise AssertionError("q0 not invariant under the square of the generator")
    if apply_map(fam.q2, g2_map) != fam.q2:
        raise AssertionError("q2 not invariant under the square of the generator")


def verify_equivariance(fam: GodeauxFamily) -> CheckReport:
    """Report how the quartics transform under the full symmetry.

    The generator is applied by substitution over fields containing i and
    checked at character level otherwise (equivalent for diagonal actions);
    both involution lifts are applied by substitution over every field.
    A family kept with enforce_involution off may carry lift-odd monomials;
    that is reported as a failure with the first offending monomial as
    witness, not raised, since such members are legitimate degenerations.
    """
    notes: List[str] = []
    witness = None
    status = "pass"
    ring = fam.ring

    for q, name, wanted in ((fam.q0, "q0", 0), (fam.q2, "q2", 2)):
        for e in q.monomials():
            if fam.action.character_of_monomial(e) != wanted:
                status = "fail"
                witness = witness or {
                    "kind": "character", "poly": name,
                    "monomial": monomial_to_str(ring, e),
                }
    if isinstance(fam.field, PrimeField):
        i = fam.field.sqrt_minus_one()
        g_map = fam.action.as_monomial_map(i)
        g_ok = (
            apply_map(fam.q0, g_map) == fam.q0
            and apply_map(fam.q2, g_map) == (i * i) * fam.q2
        )
        if not g_ok:
            status = "fail"
            witness = witness or {"kind": "generator-substitution"}
        notes.append(f"generator applied by substitution with i = {i}")
    else:
        notes.append("generator verified at character level over Q")

    for lift in (fam.sigma, fam.sigma_g2):
        m = lift.as_monomial_map()
        for q, name in ((fam.q0, "q0"), (fam.q2, "q2")):
            if apply_map(q, m) != q:
                status = "fail"
                bad = next(
                    monomial_to_str(ring, e)
                    for e in q.monomials()
                    if lift.sign_of_monomial(e) == -1
                )
                witness = witness or {
                    "kind": "lift-invariance", "lift": lift.label,
                    "poly": name, "monomial": bad,
                }
    if not fam.params.enforce_involution:
        notes.append("enforce_involution is off; lift-odd monomials allowed")
    prime = fam.field.p if isinstance(fam.field, PrimeField) else None
    return CheckReport(
        check="equivariance", status=status, prime=prime,
        witness=witness, notes=tuple(notes),
    )


def _canonical_twist(exponents: Sequence[int], n: int) -> Tuple[int, ...]:
    """Representative of an exponent vector modulo the scaling subgroup
    generated by the weight vector (all in Z/n)."""
    best = None
    for t in range(n):
        cand = tuple((e + t * w) % n for e, w in zip(exponents, WEIGHTS))
        if best is None or cand < best:
            best = cand
    return best


def _lift_exponents(lift: InvolutionLift, n: int) -> Tuple[int, ...]:
    return tuple(0 if s == 1 else n // 2 for s in lift.signs)


def torsion_group_census(fam: GodeauxFamily) -> Dict[str, str]:
    """Abstract isomorphism types of the symmetry groups acting on the
    family, computed on exponent vectors modulo coordinate scalings."""
    n = fam.action.order
    g = _canonical_twist(fam.action.exponents, n)
    s = _canonical_twist(_lift_exponents(fam.sigma, n), n)
    s_alt = _canonical_twist(_lift_exponents(fam.sigma_g2, n), n)
    identity = _canonical_twist((0,) * len(WEIGHTS), n)

    def compose(a, b):
        return _canonical_twist(tuple((x + y) % n for x, y in zip(a, b)), n)

    def label_of(generators) -> str:
        group, _ = generated_group(list(generators), compose, identity)
        if group.order == 8:
            return classify_order8(group)
        if group.is_abelian():
            return abelian_label(group)
        raise AssertionError("unexpected nonabelian small symmetry group")

    census = {
        "generator": label_of([g]),
        "lift": label_of([s]),
        "joint": label_of([g, s]),
    }
    if label_of([g, s_alt]) != census["joint"]:
        raise AssertionError("the two lifts generate different joint groups")
    return census


def projective_identity_is_trivial(fam: GodeauxFamily) -> bool:
    """The scaling (-1,-1,-1,1,1) is the identity on the quotient space;
    its exponent vector must canonicalize to the identity."""
    n = fam.action.order
    e = tuple(n // 2 if w % 2 else 0 for w in WEIGHTS)
    return _canonical_twist(e, n) == _canonical_twist((0,) * len(WEIGHTS), n)


def lift_sign_clash(fam: GodeauxFamily) -> Optional[Dict[str, object]]:
    """Witness that a quartic has monomials of both signs under an
    involution lift, which then does not act on the quotient ring and has
    no sigma table; None when both lifts act."""
    for lift in (fam.sigma, fam.sigma_g2):
        for name, q in (("q0", fam.q0), ("q2", fam.q2)):
            clash = sign_clash(q, lift)
            if clash is not None:
                return {
                    "lift": lift.label,
                    "poly": name,
                    "monomials": [monomial_to_str(fam.ring, e) for e in clash],
                }
    return None


def sigma_table(fam: GodeauxFamily, lift: InvolutionLift) -> Dict[Tuple[int, int], SigmaType]:
    """Sigma types of one lift on every reference-table cell, in the
    coordinate ring modulo the two quartics."""
    rels = [fam.q0, fam.q2]
    table = {}
    for d in TABLE_DEGREES:
        for c in range(fam.action.order):
            table[(d, c)] = sigma_type(fam.action, lift, d, c, rels)
    return table


def match_reference_table(table: Dict[Tuple[int, int], SigmaType]) -> Dict[str, object]:
    """Compare a computed table against the frozen reference, both as
    ordered pairs and as unordered pairs."""
    ordered_mismatches = []
    unordered_mismatches = []
    for key, expected in REFERENCE_SIGMA_TABLE.items():
        got = table[key]
        if (got.plus, got.minus) != expected:
            ordered_mismatches.append(
                {"cell": key, "expected": expected, "got": (got.plus, got.minus)}
            )
        if got.unordered() != tuple(sorted(expected, reverse=True)):
            unordered_mismatches.append(
                {"cell": key, "expected": expected, "got": got.unordered()}
            )
    return {
        "ordered_match": not ordered_mismatches,
        "unordered_match": not unordered_mismatches,
        "ordered_mismatches": ordered_mismatches,
        "unordered_mismatches": unordered_mismatches,
    }


def quotient_dimension(fam: GodeauxFamily, d: int, c: int) -> int:
    st = sigma_type(fam.action, fam.sigma, d, c, [fam.q0, fam.q2])
    return st.plus + st.minus


def degree4_character_census(field=QQ) -> Dict[int, int]:
    ring = canonical_ring(field)
    return character_census(canonical_action(ring), 4)


def params_from_config(config: Dict[str, object]) -> FamilyParams:
    """Build params from a config mapping: either a seed draw
    {"field": ..., "seed": n} or explicit maps {"field": ..., "q0": {...},
    "q2": {...}}, optionally with "enforce_involution"."""
    known = {"field", "seed", "q0", "q2", "enforce_involution"}
    extra = set(config) - known
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    field_spec = config.get("field", "Q")
    enforce = bool(config.get("enforce_involution", True))
    if "seed" in config:
        if "q0" in config or "q2" in config:
            raise ValueError("give either a seed or explicit coefficients, not both")
        return random_params(field_spec, seed=int(config["seed"]),
                             enforce_involution=enforce)
    if "q0" not in config or "q2" not in config:
        raise ValueError("config needs a seed or both q0 and q2 maps")
    return FamilyParams(
        field_spec=field_spec,
        q0=dict(config["q0"]),
        q2=dict(config["q2"]),
        enforce_involution=enforce,
    )


def params_to_config(params: FamilyParams) -> Dict[str, object]:
    """JSON-ready mapping that params_from_config inverts."""
    field = field_from_spec(params.field_spec)
    spec = field.p if isinstance(field, PrimeField) else "Q"

    def show(block: Dict[str, object]) -> Dict[str, str]:
        return {k: scalar_to_str(field(v)) for k, v in sorted(block.items())}

    return {
        "field": spec,
        "q0": show(params.q0),
        "q2": show(params.q2),
        "enforce_involution": params.enforce_involution,
    }


def family_info(fam: GodeauxFamily) -> Dict[str, object]:
    """Parameter counts plus the informational moduli note."""
    n0 = len(allowed_support(fam.ring, 0, fam.params.enforce_involution))
    n2 = len(allowed_support(fam.ring, 2, fam.params.enforce_involution))
    return {
        "field": fam.field.name,
        "parameters": {"q0": n0, "q2": n2},
        "enforce_involution": fam.params.enforce_involution,
        "note": (
            "coefficient space has 6+6 dimensions with the involution "
            "enforced; after coordinate rescalings the expected moduli "
            "dimension is 6 (informational only, nothing is computed)"
        ),
    }


def render_sigma_tables(fam: GodeauxFamily) -> str:
    """Plain-text report: per-cell unordered sigma types (the lift-independent
    view) plus the ordered tables of both lifts."""
    lines = []
    tables = {
        fam.sigma.label: sigma_table(fam, fam.sigma),
        fam.sigma_g2.label: sigma_table(fam, fam.sigma_g2),
    }
    first = tables[fam.sigma.label]
    lines.append("sigma types (unordered, lift-independent)")
    lines.append("degree | " + " | ".join(f"char {c}" for c in range(4)))
    for d in TABLE_DEGREES:
        cells = [first[(d, c)].as_set_string() for c in range(4)]
        lines.append(f"m={d}    | " + " | ".join(cells))
    for label, table in tables.items():
        result = match_reference_table(table)
        lines.append("")
        lines.append(f"lift {label}: ordered (plus,minus) pairs")
        for d in TABLE_DEGREES:
            cells = [table[(d, c)].as_ordered_string() for c in range(4)]
            lines.append(f"m={d}    | " + " | ".join(cells))
        lines.append(
            f"lift {label}: reference match ordered={result['ordered_match']} "
            f"unordered={result['unordered_match']}"
        )
    return "\n".join(lines)
