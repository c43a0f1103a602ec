"""The canonical family: a pair of quartics on P(1,1,1,2,2) cut out by
character constraints under an order-4 diagonal symmetry, together with two
commuting involution lifts, each an order-2 diagonal action.

Coordinates are x1, x2, x3 of weight 1 and y1, y3 of weight 2.  The cyclic
generator acts with exponent pattern (1, 2, 3, 1, 3) in Z/4; the surface is
cut by one quartic of character 0 and one of character 2.  The involution
downstairs has two diagonal lifts upstairs, differing by the square of the
generator; coefficient families symmetric under both lifts use only the
monomials of character 0 under each, and build_family can enforce that.
"""

from __future__ import annotations

import functools
import random
import types
from dataclasses import dataclass, field as dc_field
from typing import Dict, Mapping, Optional, Tuple

from .grouprep import (
    CyclicAction,
    SigmaType,
    character_clash,
    eigenspace_basis,
    sigma_types,
)
from .scalars import QQ, PrimeField, field_from_spec
from .wpoly import (
    Exponents,
    WPoly,
    WRing,
    monomial_to_str,
    parse_monomial,
)

WEIGHTS = (1, 1, 1, 2, 2)
VARIABLE_NAMES = ("x1", "x2", "x3", "y1", "y3")
TORSION_ORDER = 4
ACTION_EXPONENTS = (1, 2, 3, 1, 3)
# the two involution lifts as exponents in Z/2: x_v -> (-1)^e_v x_v
SIGMA_SIGNS = (1, 0, 1, 0, 0)
SIGMA_G2_SIGNS = (0, 0, 0, 1, 1)
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


def canonical_lifts(ring: WRing) -> Tuple[CyclicAction, CyclicAction]:
    return CyclicAction(ring, 2, SIGMA_SIGNS), CyclicAction(ring, 2, SIGMA_G2_SIGNS)


@functools.lru_cache(maxsize=64)
def allowed_support(ring: WRing, char: int, enforce_involution: bool) -> Tuple[Exponents, ...]:
    """Degree-4 monomials of the given character; with the involution
    enforced, only those of character 0 under both lifts survive.  Memoized
    per (ring, character, enforce_involution): every draw asks for it."""
    action = canonical_action(ring)
    basis = eigenspace_basis(action, 4, char)
    if not enforce_involution:
        return tuple(basis)
    sigma, sigma_g2 = canonical_lifts(ring)
    return tuple(
        e
        for e in basis
        if sigma.character_of_monomial(e) == 0 and sigma_g2.character_of_monomial(e) == 0
    )


@functools.lru_cache(maxsize=64)
def _support_names(ring: WRing, char: int, enforce_involution: bool) -> Mapping[str, Exponents]:
    """The allowed support as a read-only map from each monomial, as the ring
    prints it, to its exponents, in the order of the support.  Memoized like
    allowed_support: random_params writes these names, and _poly_from_coeffs
    reads them without parsing."""
    return types.MappingProxyType({monomial_to_str(ring, e): e for e in
                                   allowed_support(ring, char, enforce_involution)})


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

    def lifts(self) -> Dict[str, CyclicAction]:
        """The two involution lifts, keyed by their attribute names."""
        return {"sigma": self.sigma, "sigma_g2": self.sigma_g2}

    def __repr__(self):
        return (
            f"GodeauxFamily(field={self.field!r}, q0={self.q0.to_string()!r}, "
            f"q2={self.q2.to_string()!r})"
        )


def _poly_from_coeffs(ring: WRing, coeffs: Dict[str, object], char: int,
                      enforce: bool) -> WPoly:
    """The quartic of the given character from its coefficients, keyed by
    monomial: a key spelled as the ring prints an allowed monomial is looked
    up, any other is parsed and checked against the supports."""
    names = _support_names(ring, char, enforce)
    terms = {}
    for key, value in coeffs.items():
        e = names.get(key)
        if e is None:
            e = parse_monomial(ring, key)
            if e not in allowed_support(ring, char, False):
                raise ValueError(
                    f"monomial {monomial_to_str(ring, e)} is not a degree-4 "
                    f"character-{char} monomial"
                )
            if e not in allowed_support(ring, char, enforce):
                raise ValueError(
                    f"monomial {monomial_to_str(ring, e)} is odd under an "
                    f"involution lift but enforce_involution is set"
                )
        try:
            c = ring.field(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad coefficient for {monomial_to_str(ring, e)}: {exc}") from None
        if c == ring.field.zero():
            raise ValueError(f"zero coefficient supplied for {monomial_to_str(ring, e)}")
        if e in terms:
            raise ValueError(f"duplicate coefficient for {monomial_to_str(ring, e)}")
        terms[e] = c
    poly = WPoly(ring, terms)
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
    return GodeauxFamily(ring, q0, q2, params, action, sigma, sigma_g2)


def random_params(field_spec="Q", seed: int = 0,
                  enforce_involution: bool = True) -> FamilyParams:
    """Draw nonzero coefficients for every allowed monomial, deterministically
    from the seed, in the ring's monomial order."""
    field = field_from_spec(field_spec)
    ring = canonical_ring(field)
    rng = random.Random(seed)
    coeffs = []
    for char in QUARTIC_CHARACTERS:
        coeffs.append({name: field.random_nonzero(rng)
                       for name in _support_names(ring, char, enforce_involution)})
    return FamilyParams(
        field_spec=field_spec,
        q0=coeffs[0],
        q2=coeffs[1],
        enforce_involution=enforce_involution,
    )


def lift_sign_clash(fam: GodeauxFamily) -> Optional[Dict[str, object]]:
    """Witness that a quartic has monomials of both signs under an
    involution lift, which then does not act on the quotient ring and has
    no sigma table; None when both lifts act."""
    for label, lift in fam.lifts().items():
        for name, q in (("q0", fam.q0), ("q2", fam.q2)):
            clash = character_clash(q, lift)
            if clash is not None:
                return {
                    "lift": label,
                    "poly": name,
                    "monomials": [monomial_to_str(fam.ring, e) for e in clash],
                }
    return None


def sigma_table(fam: GodeauxFamily, lift: CyclicAction) -> Dict[Tuple[int, int], SigmaType]:
    """Sigma types of one lift on every reference-table cell, in the
    coordinate ring modulo the two quartics: one call of the kernel, one
    pass per degree."""
    cells = [(d, c) for d in TABLE_DEGREES for c in range(fam.action.order)]
    return sigma_types(fam.action, lift, cells, [fam.q0, fam.q2])


def sigma_tables(fam: GodeauxFamily) -> Dict[str, Dict[Tuple[int, int], SigmaType]]:
    """`sigma_table` of both involution lifts, keyed by lift name."""
    return {label: sigma_table(fam, lift) for label, lift in fam.lifts().items()}


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


def params_from_config(config: Dict[str, object]) -> FamilyParams:
    """Build params from a config mapping: either a seed draw
    {"field": ..., "seed": n} or explicit maps {"field": ..., "q0": {...},
    "q2": {...}}, optionally with "enforce_involution"."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    known = {"field", "seed", "q0", "q2", "enforce_involution"}
    extra = set(config) - known
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    field_spec = config.get("field", "Q")
    enforce = config.get("enforce_involution", True)
    if not isinstance(enforce, bool):
        raise ValueError(
            f"enforce_involution must be true or false, got {enforce!r}"
        )
    if "seed" in config:
        if "q0" in config or "q2" in config:
            raise ValueError("give either a seed or explicit coefficients, not both")
        seed = config["seed"]
        # bool is a subclass of int, and int() would truncate a float
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        return random_params(field_spec, seed=seed, enforce_involution=enforce)
    if "q0" not in config or "q2" not in config:
        raise ValueError("config needs a seed or both q0 and q2 maps")
    for key in ("q0", "q2"):
        if not isinstance(config[key], dict):
            raise ValueError(f"{key} must map monomials to coefficients, got {config[key]!r}")
        # bool is a subclass of int, and a JSON float is not exact
        bad = [v for v in config[key].values() if type(v) is not int and not isinstance(v, str)]
        if bad:
            raise ValueError(f"{key} coefficients must be integers or strings, got {bad[0]!r}")
    return FamilyParams(
        field_spec=field_spec,
        q0=dict(config["q0"]),
        q2=dict(config["q2"]),
        enforce_involution=enforce,
    )


def render_sigma_tables(tables: Dict[str, Dict[Tuple[int, int], SigmaType]]) -> str:
    """Plain-text report of `sigma_tables(fam)`: per-cell unordered sigma
    types (the lift-independent view) plus the ordered tables of both lifts."""
    lines = []
    first = tables["sigma"]
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
