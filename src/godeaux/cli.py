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
GODEAUX_PRIMES environment variable (comma-separated).  Each command imports
the modules it uses when it runs, so table1, cover and group start without
numpy and the point scans.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .reports import CheckReport, config_hash, exit_code, reports_to_json
from .scalars import PrimeField, comma_list, integer
from .wpoly import parse_poly

PRIMES_ENV = "GODEAUX_PRIMES"
# 13 is the fast lane, 29 the confirmation prime; both are 1 mod 4
FALLBACK_PRIMES = (13, 29)


class ConfigError(ValueError):
    """Malformed invocation: bad flags, files, or field specs."""


@contextlib.contextmanager
def _config_errors(prefix: str = "", kinds=(ValueError,)):
    """Report the errors of bad input raised in the block as config errors."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(f"{prefix}{exc}") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _int_option(text: str) -> int:
    """An integer option, by the shared rule, under argparse's message."""
    try:
        return integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def default_primes() -> Tuple[int, ...]:
    raw = os.environ.get(PRIMES_ENV)
    if raw is None:
        return FALLBACK_PRIMES
    with _config_errors(f"cannot parse {PRIMES_ENV}={raw!r}: "):
        return tuple(map(integer, comma_list(raw)))


def _primes_from(args) -> Tuple[int, ...]:
    """The --prime list, else the default primes; every one of them must be
    a prime the scans accept."""
    from .varieties import guard_prime

    primes = tuple(args.prime or default_primes())
    with _config_errors():
        for p in primes:
            guard_prime(p)
    return primes


def _cone_prime(args) -> int:
    """The one test prime of a cone command: its --prime, else the first
    default prime.  A repeated --prime is a config error, not a list."""
    primes = _primes_from(args)
    if len(args.prime or ()) > 1:
        raise ConfigError(f"a cone command takes one --prime, got {args.prime}")
    return primes[0]


# the options that name an input file: the stamp holds the sha256 of the
# file's bytes, not its path, so one file stamps the same from any
# directory, and an edit in place changes the stamp
_FILE_OPTIONS = ("coeffs", "config", "points")


def _config_payload(args) -> Dict[str, object]:
    # only table1 takes --field; the other commands keep the key at its
    # default in the stamp, so a given invocation keeps its stamp
    skip = {"func", "output"}
    payload = {"field": "Q", **vars(args)}
    for key in _FILE_OPTIONS:
        if payload.get(key) is not None:
            try:
                with open(payload[key], "rb") as fh:
                    payload[key] = hashlib.sha256(fh.read()).hexdigest()
            except OSError as exc:
                raise ConfigError(f"cannot read {payload[key]}: {exc}") from None
    return {k: v for k, v in sorted(payload.items()) if k not in skip}


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
    from .family import build_family, params_from_config, random_params

    if args.coeffs:
        config = _load_json(args.coeffs)
        with _config_errors("bad coefficient file: "):
            params = params_from_config(config)
    else:
        with _config_errors():
            params = random_params(args.field, seed=args.seed)
    with _config_errors():
        return build_family(params)


def cmd_table1(args) -> List[CheckReport]:
    from .family import (
        lift_sign_clash,
        match_reference_table,
        render_sigma_tables,
        sigma_tables,
    )

    fam = _family_from_args(args)
    clash = lift_sign_clash(fam)
    if clash is not None:
        note = "a quartic is not sign-homogeneous under an involution lift"
        return [CheckReport(check="table1", status="error", witness=clash, notes=(note,))]
    lifts = sigma_tables(fam)
    results = {}
    cells = {}
    for label, table in lifts.items():
        results[label] = match_reference_table(table)
        cells[label] = {
            f"m={d},c={c}": [st.plus, st.minus]
            for (d, c), st in sorted(table.items())
        }
    matched = [label for label, r in results.items() if r["unordered_match"]]
    print(render_sigma_tables(lifts))
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
    # read from varieties per call, so that a check rebound there (as
    # perfbench's tracer does) is the one that runs
    from .varieties import check_fixed_locus, check_free_action, check_quasi_smooth

    return {
        "quasi-smooth": check_quasi_smooth,
        "free-action": check_free_action,
        "fixed-locus": check_fixed_locus,
    }


VERIFY_CHECKS = ("quasi-smooth", "free-action", "fixed-locus")


def _refuse_repeats(kind: str, values: Sequence) -> None:
    """A list of verify names each prime and each check once: a repeat
    would write the same reports again, so it is a config error."""
    repeated = [v for k, v in enumerate(values) if v in values[:k]]
    if repeated:
        raise ConfigError(f"repeated {kind} {repeated[0]!r}; name each {kind} once")


def cmd_verify(args) -> List[CheckReport]:
    from .family import build_family, random_params

    primes = _primes_from(args)
    if args.retry_budget < 0:
        raise ConfigError(f"retry budget must be >= 0, got {args.retry_budget}")
    for p in primes:
        if p % 4 != 1:
            raise ConfigError(f"the order-4 symmetry needs p = 1 mod 4, got p = {p}")
    _refuse_repeats("prime", primes)
    runners = _verify_runners()
    with _config_errors():
        names = comma_list(args.checks)
    unknown = [n for n in names if n not in runners]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; choose from {sorted(runners)}")
    _refuse_repeats("check", names)
    if args.draws < 1:
        raise ConfigError(f"draws must be >= 1, got {args.draws}")
    rng = random.Random(args.seed)
    reports: List[CheckReport] = []
    for p in primes:
        for draw in range(args.draws):
            attempts = 0
            while True:
                draw_seed = rng.randrange(1 << 31)
                fam = build_family(random_params(p, seed=draw_seed))
                batch = [runners[name](fam, p) for name in names]
                attempts += 1
                if all(r.ok for r in batch) or attempts > args.retry_budget:
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
    from .covers import enriques_double_data, f2_bidouble_data, validate

    data = enriques_double_data() if args.preset == "enriques" else f2_bidouble_data()
    return [validate(data)]


def cmd_cover_invariants(args) -> List[CheckReport]:
    from .covers import (
        DoubleData,
        bidouble_invariants,
        double_invariants,
        enriques_double_data,
        f2_bidouble_data,
        free_quotient_invariants,
        preset_model,
    )

    if args.preset == "enriques":
        chi, ksq = double_invariants(enriques_double_data(), 1)
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
        chi, ksq = bidouble_invariants(f2_bidouble_data(), 1)
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
        h = preset_model("p2").named("H")
        chi, ksq = double_invariants(DoubleData(L=2 * h, B=(4 * h).as_effective()), 1)
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
    from .covers import LiftSpec, case_a_witnesses, classify_lift, dihedral_witness

    with _config_errors():
        spec = LiftSpec(case=args.case, rho_order=args.rho_order)
    labels = sorted(classify_lift(spec))
    data: Dict[str, object] = {"case": args.case, "labels": labels}
    if args.case == "b":
        wit = dihedral_witness()
        data["witness"] = {k: v for k, v in wit.items() if k != "group"}
    if args.case == "a":
        data["witness_labels"] = sorted(case_a_witnesses())
    return [CheckReport(check="lift-classification", status="pass", data=data)]


def cmd_cover_even_set(args) -> List[CheckReport]:
    from .covers import even_node_set, preset_model

    model = preset_model(args.preset)
    names = [f"C{i}" for i in range(1, 9 if args.preset == "even8" else 5)]
    with _config_errors(kinds=(KeyError, ValueError)):
        if args.classes is not None:
            names = comma_list(args.classes)
        classes = [model.named(n) for n in names]
    with _config_errors():
        return [even_node_set(model, classes)]


def cmd_cover_enriques(args) -> List[CheckReport]:
    from .covers import enriques_arithmetic

    return [enriques_arithmetic()]


# ---------------------------------------------------------------------------
# group


def cmd_group_divisibility(args) -> List[CheckReport]:
    from .abelian import FinAbGroup, is_two_divisible, parse_group_label

    def coordinates(text: str) -> Tuple[int, ...]:
        # the empty string is the one element of a rank-0 group such as Z1
        return tuple(map(integer, comma_list(text))) if text else ()

    with _config_errors("bad element coordinates: "):
        element = coordinates(args.element)
        modulo = [coordinates(m) for m in (args.modulo or [])]
    with _config_errors():
        # the element's length bounds the rank, so no power is built past it
        group = FinAbGroup(parse_group_label(args.group, max_rank=len(element)))
        divisible, half = is_two_divisible(group, element, modulo=modulo)
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
    from .cone import cone_setup, verify_invariant_map

    return [verify_invariant_map(cone_setup(), prime=_cone_prime(args))]


def cmd_cone_fixed_points(args) -> List[CheckReport]:
    from .cone import cone_setup, tau_fixed_points

    # --symbolic skips the scan, but its --prime is checked like any other
    prime = _cone_prime(args)
    if args.symbolic:
        return [tau_fixed_points(cone_setup())]
    return [tau_fixed_points(cone_setup(), prime=prime)]


_CASE_ALIASES = {"1": "deg1", "2": "deg2", "3": "deg3", "4": "deg4"}


def _branch_config_from_file(path: str, fallback_case: Optional[str]):
    """The cone.BranchConfig of a JSON branch-configuration file."""
    from .cone import BranchConfig, cone_setup

    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("branch config must be a JSON object")
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
    with _config_errors("bad field in branch config: "):
        setup = cone_setup(raw.get("field", "Q"))

    def poly(key):
        if key not in raw:
            return None
        if not isinstance(raw[key], str):
            raise ConfigError(f"bad polynomial for {key!r}: expected a string, got {raw[key]!r}")
        with _config_errors(f"bad polynomial for {key!r}: "):
            return parse_poly(setup.ring, raw[key])

    if "r1" in raw:
        r1 = raw["r1"]
        if not (isinstance(r1, list) and len(r1) == 4):
            raise ConfigError(f"bad point for 'r1': expected four coordinates, got {r1!r}")
        # bool is a subclass of int, and the field would read 1.0 or "1" as 1
        if any(type(x) is not int for x in r1):
            raise ConfigError(f"bad point for 'r1': coordinates must be integers, got {r1!r}")
    polys = {key: poly(key) for key in ("q1", "h3", "h", "h0", "h1", "ht")}
    with _config_errors("invalid branch configuration: ", (TypeError, ValueError)):
        return BranchConfig(case=case, r1=tuple(raw["r1"]) if "r1" in raw else None, **polys)


def cmd_cone_degenerate(args) -> List[CheckReport]:
    from .cone import (
        DEGENERATION_CASES,
        classify_degeneration,
        default_branch_config,
        intersection_count,
    )

    p = _cone_prime(args)
    case = _CASE_ALIASES.get(args.case, args.case) if args.case else None
    if case is not None and case not in DEGENERATION_CASES:
        raise ConfigError(f"case {case!r} not one of {DEGENERATION_CASES}")
    if args.config:
        branch = _branch_config_from_file(args.config, case)
    else:
        branch = default_branch_config(case or "general")
    field = branch.setup.field
    if isinstance(field, PrimeField) and field.p != p:
        raise ConfigError(
            f"branch config is over GF({field.p}) but the test prime is {p}: "
            f"its equations have no reduction to GF({p})"
        )
    # the scans reduce q1, its image q2 (same denominators) and h3 mod p
    for name in ("q1", "h3") if field.characteristic == 0 else ():
        bad = [c for c in getattr(branch, name).terms.values() if c.denominator % p == 0]
        if bad:
            raise ConfigError(f"{name} has bad reduction mod {p}: coefficient {bad[0]}")
    report = classify_degeneration(branch, p=p)
    d = report.data
    print(
        f"case {d['case']}: normalization {d['normalization']}, "
        f"gorenstein={d['gorenstein']}, "
        f"cartier indices (T, S) = ({d['cartier_index_T']}, {d['cartier_index_S']})"
    )
    reports = [report]
    if args.intersections:
        reports.append(intersection_count(branch, p=p))
    return reports


def cmd_cone_pencil(args) -> List[CheckReport]:
    from .cone import pencil_report

    if args.points:
        raw = _load_json(args.points)
        if (
            not isinstance(raw, list)
            or len(raw) != 4
            or any(not isinstance(pt, list) or len(pt) != 3 for pt in raw)
        ):
            raise ConfigError("points file must hold four [a, b, c] triples")
        # bool is a subclass of int, and int() would truncate a float
        bad = [x for pt in raw for x in pt if type(x) is not int]
        if bad:
            raise ConfigError(f"points file coordinates must be integers, got {bad[0]!r}")
        points = [tuple(pt) for pt in raw]
    else:
        points = None
    with _config_errors():
        rep = pencil_report(points) if points else pencil_report()
    print("phi rows:", rep.data["phi"])
    print("reducible fixed member:", rep.data["reducible_member"])
    print("smooth fixed member:", rep.data["smooth_member"])
    return [rep]


# ---------------------------------------------------------------------------
# wiring


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and returns a fresh namespace per call, and no default is a
    mutable object (--prime appends to a list argparse makes per call)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write canonical JSON reports here")
    common.add_argument("--seed", type=_int_option, default=0)

    prime_opt = argparse.ArgumentParser(add_help=False)
    prime_opt.add_argument(
        "--prime",
        type=_int_option,
        action="append",
        help=f"test prime (repeatable for verify, once for a cone command; default: "
        f"the primes in ${PRIMES_ENV}, else {' and '.join(map(str, FALLBACK_PRIMES))}, "
        f"all run by verify, the first by a cone command)",
    )

    parser = _Parser(
        prog="godeaux",
        description="certificates and bookkeeping for a family of Godeaux"
        " surfaces with an extra involution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser(
        "table1", parents=[common], help="sigma-type tables vs the reference"
    )
    t1.add_argument("--field", default="Q", help="field spec (Q or a prime)")
    t1.add_argument("--coeffs", help="JSON coefficient file (else a seeded draw)")
    t1.set_defaults(func=cmd_table1)

    v = sub.add_parser(
        "verify", parents=[common, prime_opt], help="seeded randomized certificates"
    )
    v.add_argument("--checks", default=",".join(VERIFY_CHECKS))
    v.add_argument("--draws", type=_int_option, default=1)
    v.add_argument("--retry-budget", type=_int_option, default=3, dest="retry_budget")
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
    c.add_argument("--rho-order", type=_int_option, default=2, dest="rho_order")
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
        reports = args.func(args)
        stamp = config_hash(_config_payload(args))
    except SystemExit as exc:
        # --help; every other argparse exit is a ConfigError
        return 2 if exc.code else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        rep.provenance.setdefault("config", stamp)
        rep.provenance.setdefault("seed", args.seed)
    for rep in reports:
        print(rep.console_line())
    if args.output:
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
