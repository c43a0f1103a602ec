"""Command-line front end.

One executable, five families of subcommands:

  table1       sigma-type tables of the canonical family against the
               frozen reference
  verify       seeded randomized certificates over prime fields
               (quasi-smoothness, free action, fixed locus)
  cover ...    building-data validation, numerical invariants, lift
               classification, even node sets, the Enriques preset
  group ...    2-divisibility queries
  cone ...     quadric-cone geometry: the invariant map, fixed points,
               branch degenerations, the pencil-of-conics gluing

Reports serialize to canonical JSON (sorted keys, no timing), so runs
with identical (seed, config, version) produce byte-identical files.
Exit codes: 0 all checks pass, 1 a check failed, 2 config error or an
ill-posed check.  The default prime list can be overridden with the
GODEAUX_PRIMES environment variable (comma-separated).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import FinAbGroup, is_two_divisible
from .cone import (
    DEGENERATION_CASES,
    BranchConfig,
    classify_degeneration,
    cone_setup,
    default_branch_config,
    degeneration_report,
    intersection_count,
    pencil_report,
    tau_fixed_points,
    verify_invariant_map,
)
from .covers import (
    DoubleData,
    LiftSpec,
    bidouble_invariants,
    case_a_witnesses,
    classify_lift,
    dihedral_witness,
    double_invariants,
    enriques_arithmetic,
    enriques_double_data,
    even_node_set,
    f2_bidouble_data,
    free_quotient_invariants,
    parse_group_label,
    preset_model,
    validate,
)
from .family import (
    build_family,
    lift_sign_clash,
    match_reference_table,
    params_from_config,
    random_params,
    render_sigma_tables,
    sigma_table,
)
from .reports import CheckReport, config_hash, exit_code, reports_to_json
from .scalars import is_prime
from .varieties import (
    MAX_ENUM_PRIME,
    check_fixed_locus,
    check_free_action,
    check_quasi_smooth,
)
from .wpoly import parse_poly

PRIMES_ENV = "GODEAUX_PRIMES"
# 13 is the fast lane, 29 the confirmation prime; both are 1 mod 4
FALLBACK_PRIMES = (13, 29)


class ConfigError(ValueError):
    """Malformed invocation: bad flags, files, or field specs."""


@dataclass(frozen=True)
class RunConfig:
    """Validated plumbing shared by the subcommands."""

    command: str
    field_spec: str = "Q"
    primes: Tuple[int, ...] = FALLBACK_PRIMES
    seed: int = 0
    coeffs_path: Optional[str] = None
    retry_budget: int = 3
    output_path: Optional[str] = None

    def __post_init__(self):
        for p in self.primes:
            if p == 2 or not is_prime(p):
                raise ConfigError(f"test primes must be odd primes, got {p}")
        if self.retry_budget < 0:
            raise ConfigError(f"retry budget must be >= 0, got {self.retry_budget}")

    def require_one_mod_four(self) -> None:
        for p in self.primes:
            if p % 4 != 1:
                raise ConfigError(
                    f"the order-4 symmetry needs p = 1 mod 4, got p = {p}"
                )


def default_primes() -> Tuple[int, ...]:
    raw = os.environ.get(PRIMES_ENV)
    if raw is None:
        return FALLBACK_PRIMES
    try:
        primes = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {PRIMES_ENV}={raw!r}: {exc}") from None
    if not primes:
        raise ConfigError(f"{PRIMES_ENV} is set but empty")
    return primes


def _primes_from(args) -> Tuple[int, ...]:
    listed = getattr(args, "prime", None)
    if listed:
        return tuple(listed)
    return default_primes()


def _config_payload(args) -> Dict[str, object]:
    skip = {"func", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# table1


def _family_from_args(args):
    if getattr(args, "coeffs", None):
        config = _load_json(args.coeffs)
        try:
            params = params_from_config(config)
        except ValueError as exc:
            raise ConfigError(f"bad coefficient file: {exc}") from None
    else:
        try:
            params = random_params(args.field, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    try:
        return build_family(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_table1(args) -> List[CheckReport]:
    fam = _family_from_args(args)
    clash = lift_sign_clash(fam)
    if clash is not None:
        note = "a quartic is not sign-homogeneous under an involution lift"
        return [CheckReport(check="table1", status="error", witness=clash, notes=(note,))]
    lifts = {
        fam.sigma.label: sigma_table(fam, fam.sigma),
        fam.sigma_g2.label: sigma_table(fam, fam.sigma_g2),
    }
    results = {}
    cells = {}
    for label, table in lifts.items():
        results[label] = match_reference_table(table)
        cells[label] = {
            f"m={d},c={c}": [st.plus, st.minus]
            for (d, c), st in sorted(table.items())
        }
    matched = [label for label, r in results.items() if r["unordered_match"]]
    print(render_sigma_tables(fam))
    return [
        CheckReport(
            check="table1",
            status="pass" if matched else "fail",
            witness=None if matched else {"results": results},
            data={
                "matched_lifts": sorted(matched),
                "match": results,
                "cells": cells,
            },
        )
    ]


# ---------------------------------------------------------------------------
# verify


def _verify_runners() -> Dict[str, Callable[..., CheckReport]]:
    # built per call, so that a check rebound on this module (as
    # perfbench's tracer does) is the one that runs
    return {
        "quasi-smooth": check_quasi_smooth,
        "free-action": check_free_action,
        "fixed-locus": check_fixed_locus,
    }


VERIFY_CHECKS = tuple(_verify_runners())


def cmd_verify(args) -> List[CheckReport]:
    cfg = RunConfig(
        command="verify",
        primes=_primes_from(args),
        seed=args.seed,
        retry_budget=args.retry_budget,
        output_path=args.output,
    )
    cfg.require_one_mod_four()
    for p in cfg.primes:
        if p > MAX_ENUM_PRIME:
            raise ConfigError(
                f"exhaustive enumeration is limited to p <= {MAX_ENUM_PRIME}, got {p}"
            )
    runners = _verify_runners()
    names = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    unknown = [n for n in names if n not in runners]
    if unknown:
        raise ConfigError(
            f"unknown checks {unknown}; choose from {sorted(runners)}"
        )
    if not names:
        raise ConfigError("no checks requested")
    if args.draws < 1:
        raise ConfigError(f"draws must be >= 1, got {args.draws}")
    rng = random.Random(cfg.seed)
    reports: List[CheckReport] = []
    for p in cfg.primes:
        for draw in range(args.draws):
            attempts = 0
            while True:
                draw_seed = rng.randrange(1 << 31)
                fam = build_family(random_params(p, seed=draw_seed))
                batch = [runners[name](fam, p) for name in names]
                attempts += 1
                if all(r.ok for r in batch) or attempts > cfg.retry_budget:
                    for r in batch:
                        r.provenance.update(
                            {"draw": draw, "draw_seed": draw_seed, "attempts": attempts}
                        )
                    reports.extend(batch)
                    break
    return reports


# ---------------------------------------------------------------------------
# cover


def cmd_cover_validate(args) -> List[CheckReport]:
    data = enriques_double_data() if args.preset == "enriques" else f2_bidouble_data()
    return [validate(data)]


def cmd_cover_invariants(args) -> List[CheckReport]:
    if args.preset == "enriques":
        model = preset_model("enriques")
        chi, ksq = double_invariants(model, enriques_double_data(model), 1)
        data = {
            "chi": chi,
            "ksq": ksq,
            "contracted_curves": 5,
            "minimal_ksq": ksq + 5,
        }
        status = "pass" if (chi, ksq) == (1, -4) and ksq + 5 == 1 else "fail"
        notes = (
            "double cover of an Enriques surface branched on B plus five"
            " disjoint nodal curves; contracting the five (-1)-curves"
            " upstairs gives the minimal model",
        )
    elif args.preset == "f2":
        model = preset_model("f2")
        chi, ksq = bidouble_invariants(model, f2_bidouble_data(model), 1)
        quotient = free_quotient_invariants(chi, ksq + 2)
        data = {
            "chi_T0": chi,
            "ksq_T0": ksq,
            "ksq_T": ksq + 2,
            "free_quotient": list(quotient),
        }
        status = (
            "pass"
            if (chi, ksq) == (2, 0) and ksq + 2 == 2 and quotient == (1, 1)
            else "fail"
        )
        notes = (
            "bidouble cover of the ruled-surface model; contracting the two"
            " (-1)-curves over the section gives the stable cover, and a"
            " free involution halves both invariants",
        )
    else:
        model = preset_model("p2")
        h = model.named("H")
        chi, ksq = double_invariants(
            model, DoubleData(L=2 * h, B=(4 * h).as_effective()), 1
        )
        data = {"chi": chi, "ksq": ksq}
        status = "pass" if (chi, ksq) == (1, 2) else "fail"
        notes = ("double plane branched on a quartic curve",)
    return [
        CheckReport(
            check=f"cover-invariants[{args.preset}]",
            status=status,
            notes=notes,
            data=data,
        )
    ]


def cmd_cover_lift(args) -> List[CheckReport]:
    try:
        spec = LiftSpec(case=args.case, rho_order=args.rho_order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    labels = sorted(classify_lift(spec))
    data: Dict[str, object] = {"case": args.case, "labels": labels}
    if args.case == "b":
        wit = dihedral_witness()
        data["witness"] = {k: v for k, v in wit.items() if k != "group"}
    if args.case == "a":
        data["witness_labels"] = sorted(case_a_witnesses())
    return [CheckReport(check="lift-classification", status="pass", data=data)]


def cmd_cover_even_set(args) -> List[CheckReport]:
    model = preset_model(args.preset)
    if args.classes:
        names = [tok.strip() for tok in args.classes.split(",") if tok.strip()]
    elif args.preset == "even8":
        names = [f"C{i}" for i in range(1, 9)]
    else:
        names = ["C1", "C2", "C3", "C4"]
    try:
        classes = [model.named(n) for n in names]
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return [even_node_set(model, classes)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_cover_enriques(args) -> List[CheckReport]:
    return [enriques_arithmetic()]


# ---------------------------------------------------------------------------
# group


def cmd_group_divisibility(args) -> List[CheckReport]:
    try:
        factors = parse_group_label(args.group)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    group = FinAbGroup(factors)
    try:
        element = tuple(int(tok) for tok in args.element.split(","))
        modulo = [
            tuple(int(tok) for tok in m.split(",")) for m in (args.modulo or [])
        ]
    except ValueError as exc:
        raise ConfigError(f"bad element coordinates: {exc}") from None
    try:
        divisible, half = is_two_divisible(group, element, modulo=modulo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return [
        CheckReport(
            check="two-divisibility",
            status="pass" if divisible else "fail",
            witness={"half": list(half)} if divisible else None,
            notes=() if divisible else ("element is not 2-divisible",),
            data={
                "group": args.group,
                "invariant_factors": list(group.invariant_factors),
                "element": list(group.reduce(element)),
                "modulo": [list(group.reduce(m)) for m in modulo],
                "divisible": divisible,
            },
        )
    ]


# ---------------------------------------------------------------------------
# cone


def cmd_cone_image_check(args) -> List[CheckReport]:
    cfg = RunConfig(command="cone image-check", primes=_primes_from(args))
    return [verify_invariant_map(cone_setup(), prime=cfg.primes[0])]


def cmd_cone_fixed_points(args) -> List[CheckReport]:
    if args.symbolic:
        return [tau_fixed_points(cone_setup())]
    cfg = RunConfig(command="cone fixed-points", primes=_primes_from(args))
    return [tau_fixed_points(cone_setup(), prime=cfg.primes[0])]


_CASE_ALIASES = {"1": "deg1", "2": "deg2", "3": "deg3", "4": "deg4"}


def _branch_config_from_file(path: str, fallback_case: Optional[str]) -> BranchConfig:
    raw = _load_json(path)
    known = {"case", "field", "q1", "h3", "r1", "h", "h0", "h1", "ht"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown branch-config keys: {sorted(extra)}")
    case = raw.get("case", fallback_case)
    if case is None:
        raise ConfigError("branch config needs a case (in the file or via --case)")
    case = _CASE_ALIASES.get(str(case), str(case))
    if fallback_case and case != fallback_case:
        raise ConfigError(
            f"--case {fallback_case} conflicts with case {case!r} in the file"
        )
    if "q1" not in raw or "h3" not in raw:
        raise ConfigError("branch config needs q1 and h3 polynomial strings")
    setup = cone_setup(raw.get("field", "Q"))

    def poly(key):
        if key not in raw:
            return None
        try:
            return parse_poly(setup.ring, raw[key])
        except ValueError as exc:
            raise ConfigError(f"bad polynomial for {key!r}: {exc}") from None

    try:
        return BranchConfig(
            case=case,
            q1=poly("q1"),
            h3=poly("h3"),
            r1=tuple(raw["r1"]) if "r1" in raw else None,
            h=poly("h"),
            h0=poly("h0"),
            h1=poly("h1"),
            ht=poly("ht"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid branch configuration: {exc}") from None


def cmd_cone_degenerate(args) -> List[CheckReport]:
    cfg = RunConfig(command="cone degenerate", primes=_primes_from(args))
    case = _CASE_ALIASES.get(args.case, args.case) if args.case else None
    if case is not None and case not in DEGENERATION_CASES:
        raise ConfigError(f"case {case!r} not one of {DEGENERATION_CASES}")
    if args.config:
        branch = _branch_config_from_file(args.config, case)
    else:
        branch = default_branch_config(case or "general")
    verdict = classify_degeneration(branch, p=cfg.primes[0])
    print(
        f"case {verdict.case}: normalization {verdict.normalization}, "
        f"gorenstein={verdict.gorenstein}, "
        f"cartier indices (T, S) = ({verdict.cartier_index_T}, "
        f"{verdict.cartier_index_S})"
    )
    reports = [degeneration_report(verdict)]
    if args.intersections:
        reports.append(intersection_count(branch, p=cfg.primes[0]))
    return reports


def cmd_cone_pencil(args) -> List[CheckReport]:
    if args.points:
        raw = _load_json(args.points)
        if (
            not isinstance(raw, list)
            or len(raw) != 4
            or any(len(pt) != 3 for pt in raw)
        ):
            raise ConfigError("points file must hold four [a, b, c] triples")
        points = [tuple(int(x) for x in pt) for pt in raw]
    else:
        points = None
    try:
        rep = pencil_report(points) if points else pencil_report()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print("phi rows:", rep.data["phi"])
    print("reducible fixed member:", rep.data["reducible_member"])
    print("smooth fixed member:", rep.data["smooth_member"])
    return [rep]


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write canonical JSON reports here")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--field", default="Q", help="field spec (Q or a prime)")

    prime_opt = argparse.ArgumentParser(add_help=False)
    prime_opt.add_argument(
        "--prime",
        type=int,
        action="append",
        help=f"test prime (repeatable; default from ${PRIMES_ENV} or 13)",
    )

    parser = argparse.ArgumentParser(
        prog="godeaux",
        description="certificates and bookkeeping for a family of Godeaux"
        " surfaces with an extra involution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser(
        "table1", parents=[common], help="sigma-type tables vs the reference"
    )
    t1.add_argument("--coeffs", help="JSON coefficient file (else a seeded draw)")
    t1.set_defaults(func=cmd_table1)

    v = sub.add_parser(
        "verify", parents=[common, prime_opt], help="seeded randomized certificates"
    )
    v.add_argument("--checks", default=",".join(VERIFY_CHECKS))
    v.add_argument("--draws", type=int, default=1)
    v.add_argument("--retry-budget", type=int, default=3, dest="retry_budget")
    v.set_defaults(func=cmd_verify)

    cover = sub.add_parser("cover", help="building data and cover invariants")
    csub = cover.add_subparsers(dest="action", required=True)
    c = csub.add_parser("validate", parents=[common])
    c.add_argument("--preset", choices=("enriques", "f2"), default="enriques")
    c.set_defaults(func=cmd_cover_validate)
    c = csub.add_parser("invariants", parents=[common])
    c.add_argument("--preset", choices=("enriques", "f2", "p2"), default="enriques")
    c.set_defaults(func=cmd_cover_invariants)
    c = csub.add_parser("lift", parents=[common])
    c.add_argument("--case", choices=("a", "b", "double"), required=True)
    c.add_argument("--rho-order", type=int, default=2, dest="rho_order")
    c.set_defaults(func=cmd_cover_lift)
    c = csub.add_parser("even-set", parents=[common])
    c.add_argument("--preset", choices=("even8", "enriques"), default="even8")
    c.add_argument("--classes", help="comma-separated class names from the preset")
    c.set_defaults(func=cmd_cover_even_set)
    c = csub.add_parser("enriques", parents=[common])
    c.set_defaults(func=cmd_cover_enriques)

    group = sub.add_parser("group", help="2-divisibility in abelian groups")
    gsub = group.add_subparsers(dest="action", required=True)
    g = gsub.add_parser("divisibility", parents=[common])
    g.add_argument("--group", required=True, help='abelian label, e.g. "Z2xZ4"')
    g.add_argument("--element", required=True, help="comma-separated coordinates")
    g.add_argument(
        "--modulo", action="append", help="allow adding this class (repeatable)"
    )
    g.set_defaults(func=cmd_group_divisibility)

    cone = sub.add_parser("cone", help="quadric-cone geometry")
    ksub = cone.add_subparsers(dest="action", required=True)
    k = ksub.add_parser("image-check", parents=[common, prime_opt])
    k.set_defaults(func=cmd_cone_image_check)
    k = ksub.add_parser("fixed-points", parents=[common, prime_opt])
    k.add_argument("--symbolic", action="store_true", help="skip enumeration")
    k.set_defaults(func=cmd_cone_fixed_points)
    k = ksub.add_parser("degenerate", parents=[common, prime_opt])
    k.add_argument(
        "--case",
        help="general, 1/deg1, 2/deg2, 3/deg3, 4/deg4, or exP",
    )
    k.add_argument("--config", help="JSON branch configuration file")
    k.add_argument(
        "--intersections",
        action="store_true",
        help="also report the B1.B2 census",
    )
    k.set_defaults(func=cmd_cone_degenerate)
    k = ksub.add_parser("pencil", parents=[common])
    k.add_argument("--points", help="JSON file with four plane points")
    k.set_defaults(func=cmd_cone_pencil)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code else 0
    try:
        reports = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    stamp = config_hash(_config_payload(args))
    for rep in reports:
        rep.provenance.setdefault("config", stamp)
        rep.provenance.setdefault("seed", getattr(args, "seed", 0))
    for rep in reports:
        print(rep.console_line())
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(reports_to_json(reports))
        except OSError as exc:
            print(f"config error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
        print(f"reports: {args.output}")
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
