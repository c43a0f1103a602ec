"""End-to-end command-line runs: exit codes, determinism, report files."""

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from godeaux import cli, snf, varieties
from godeaux.cli import ConfigError, default_primes, main


def run(argv):
    return main(argv)


def test_table1_passes_and_prints_tables(capsys):
    assert run(["table1"]) == 0
    out = capsys.readouterr().out
    assert "{5,2} | {4,3} | {5,2} | {4,3}" in out
    assert "[PASS ] table1" in out


def test_table1_with_explicit_coefficients(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"field": "Q", "seed": 5}))
    assert run(["table1", "--coeffs", str(coeffs)]) == 0


def test_table1_bad_coeff_file(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"seed": 5, "bogus": 1}))
    assert run(["table1", "--coeffs", str(coeffs)]) == 2
    assert "config error" in capsys.readouterr().err


def test_table1_reports_error_for_sign_mixed_member(tmp_path):
    # with enforce_involution off, seed 5 draws x1^4 and x1 x2 y1 into q0,
    # which have opposite signs under sigma
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"field": "Q", "seed": 5,
                                  "enforce_involution": False}))
    out = tmp_path / "out.json"
    assert run(["table1", "--coeffs", str(coeffs), "--output", str(out)]) == 2
    rep, = json.loads(out.read_text())
    assert rep["check"] == "table1"
    assert rep["status"] == "error"
    assert rep["witness"] == {"lift": "sigma", "poly": "q0",
                              "monomials": ["x1^4", "x1 x2 y1"]}


def test_verify_example_invocation():
    assert run(
        ["verify", "--checks", "quasi-smooth,free-action", "--prime", "13",
         "--seed", "42"]
    ) == 0


def test_verify_all_checks_single_draw():
    assert run(["verify", "--prime", "13", "--seed", "7"]) == 0


def test_verify_rejects_unknown_check(capsys):
    assert run(["verify", "--checks", "nonsense", "--prime", "13"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_verify_rejects_bad_primes(capsys):
    assert run(["verify", "--prime", "7"]) == 2
    assert "1 mod 4" in capsys.readouterr().err
    assert run(["verify", "--prime", "9"]) == 2
    # 109 is 1 mod 4 but above the exhaustive-enumeration cap
    assert run(["verify", "--prime", "109"]) == 2
    assert "limited to" in capsys.readouterr().err


def test_primes_env_override(monkeypatch):
    monkeypatch.setenv("GODEAUX_PRIMES", "29")
    assert default_primes() == (29,)
    monkeypatch.setenv("GODEAUX_PRIMES", "not-a-prime")
    with pytest.raises(ConfigError):
        default_primes()


def test_run_config_validates(capsys):
    # odd primes only, up to the scan's cap, a budget >= 0, and p = 1 mod 4
    for argv, message in ((["--prime", "2"], "odd prime"),
                          (["--prime", "13", "--retry-budget", "-1"], "retry budget"),
                          (["--prime", "109"], "limited to"),
                          (["--prime", "13", "--prime", "11"], "1 mod 4")):
        assert run(["verify", *argv]) == 2
        assert message in capsys.readouterr().err
    assert run(["verify", "--prime", "13", "--prime", "29"]) == 0


def test_cover_subcommands_pass():
    assert run(["cover", "validate"]) == 0
    assert run(["cover", "validate", "--preset", "f2"]) == 0
    assert run(["cover", "invariants", "--preset", "enriques"]) == 0
    assert run(["cover", "invariants", "--preset", "f2"]) == 0
    assert run(["cover", "invariants", "--preset", "p2"]) == 0
    assert run(["cover", "lift", "--case", "b"]) == 0
    assert run(["cover", "lift", "--case", "double", "--rho-order", "3"]) == 0
    assert run(["cover", "even-set"]) == 0
    assert run(["cover", "enriques"]) == 0


def test_even_set_of_four_nodal_classes_fails():
    # the four disjoint nodal classes of the Enriques preset are not even
    assert run(["cover", "even-set", "--preset", "enriques"]) == 1


def test_even_set_rejects_unknown_class(capsys):
    assert run(["cover", "even-set", "--classes", "C1,Zz"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cover_lift_rejects_bad_order(capsys):
    assert run(["cover", "lift", "--case", "a", "--rho-order", "3"]) == 2
    assert "involution" in capsys.readouterr().err


def test_group_divisibility_verdicts():
    assert run(["group", "divisibility", "--group", "Z2xZ4",
                "--element", "0,2"]) == 0
    assert run(["group", "divisibility", "--group", "Z2xZ4",
                "--element", "1,0"]) == 1
    assert run(["group", "divisibility", "--group", "Z4",
                "--element", "1", "--modulo", "2"]) == 1
    assert run(["group", "divisibility", "--group", "Zq",
                "--element", "1"]) == 2
    # a power below 1 is not a group label, not the trivial group Z1
    for label in ("Z2^-1", "Z2^0"):
        assert run(["group", "divisibility", "--group", label,
                    "--element", ""]) == 2


def test_group_labels_are_never_expanded_unchecked(monkeypatch, capsys):
    # Z2^N has rank N, so an element of one coordinate refuses Z2^100 before
    # any Smith form is built; a power of Z1 adds no factor at all
    calls = []

    def spy(m):
        calls.append(m)
        return real(m)

    real = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", spy)
    assert run(["group", "divisibility", "--group", "Z2^100", "--element", "1"]) == 2
    assert "rank at least 2, above 1" in capsys.readouterr().err
    assert calls == []
    # a hundred coprime orders make a cyclic group, no 100 x 100 matrix
    label = "x".join(f"Z{q}" for q in range(2, 542) if all(q % r for r in range(2, q)))
    assert run(["group", "divisibility", "--group", label, "--element", "0"]) == 0
    assert run(["group", "divisibility", "--group", "Z1^999999999", "--element", ""]) == 0
    assert run(["group", "divisibility", "--group", "Z1^999999999xZ2^2",
                "--element", "0,1"]) == 1
    # a three-coordinate element admits Z2^3
    assert run(["group", "divisibility", "--group", "Z2^3", "--element", "0,0,0"]) == 0
    assert calls and max(max([len(m), *map(len, m)]) for m in calls) < 10


def test_group_divisibility_beyond_enumeration_size(tmp_path):
    # Z4096 x Z4096 has 2^24 elements, too many to enumerate the subgroup
    out = tmp_path / "out.json"
    assert run(["group", "divisibility", "--group", "Z4096xZ4096",
                "--element", "1,3", "--modulo", "1,0", "--modulo", "0,1",
                "--output", str(out)]) == 0
    rep, = json.loads(out.read_text())
    assert rep["status"] == "pass"
    assert rep["witness"] == {"half": [0, 0]}


def test_group_divisibility_in_the_trivial_group(tmp_path, capsys):
    # Z1 has rank 0: its one element is the empty coordinate list
    out = tmp_path / "out.json"
    assert run(["group", "divisibility", "--group", "Z1", "--element", "",
                "--output", str(out)]) == 0
    rep, = json.loads(out.read_text())
    assert rep["status"] == "pass"
    assert rep["witness"] == {"half": []}
    for element in ("1", "1,,2", "x"):
        assert run(["group", "divisibility", "--group", "Z1",
                    "--element", element]) == 2
    assert run(["group", "divisibility", "--group", "Z2xZ4",
                "--element", "1,"]) == 2
    assert "bad element coordinates" in capsys.readouterr().err


def test_verify_scans_each_draw_once(monkeypatch, tmp_path):
    import godeaux.varieties as varieties

    calls = {"enumerate_points": 0, "fixed_locus": 0}
    for name in calls:
        original = getattr(varieties, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(varieties, name, counting)
    out = tmp_path / "out.json"
    assert run(["verify", "--prime", "13", "--draws", "3", "--output", str(out)]) == 0
    reports = json.loads(out.read_text())
    attempts = sum(r["provenance"]["attempts"] for r in reports
                   if r["check"] == "quasi-smooth")
    assert attempts >= 3
    assert calls == {"enumerate_points": attempts, "fixed_locus": 0}


def test_verify_draws_share_the_allowed_supports(monkeypatch):
    # allowed_support is memoized per (ring, character, enforce_involution):
    # five draws over GF(13) need at most the four degree-4 eigenspaces
    import godeaux.family as family

    calls = []
    original = family.eigenspace_basis

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(family, "eigenspace_basis", counting)
    family.allowed_support.cache_clear()
    family._support_names.cache_clear()
    assert run(["verify", "--prime", "13", "--draws", "5"]) == 0
    assert 0 < len(calls) <= 4


def test_verify_checks_are_the_runners_and_the_default():
    assert cli.VERIFY_CHECKS == tuple(cli._verify_runners())
    args = cli._build_parser().parse_args(["verify"])
    assert args.checks == ",".join(cli.VERIFY_CHECKS)


@pytest.mark.parametrize("check, name", [("quasi-smooth", "check_quasi_smooth"),
                                         ("free-action", "check_free_action"),
                                         ("fixed-locus", "check_fixed_locus")])
def test_verify_runs_the_check_bound_on_varieties(check, name, monkeypatch, tmp_path):
    # the benchmark's tracer rebinds the checks on godeaux.varieties, and
    # verify reads them there on every call
    calls = []
    original = getattr(varieties, name)

    def counting(fam, p):
        calls.append(p)
        return original(fam, p)

    monkeypatch.setattr(varieties, name, counting)
    out = tmp_path / "out.json"
    assert run(["verify", "--prime", "13", "--checks", check, "--output", str(out)]) == 0
    [report] = json.loads(out.read_text())
    assert calls == [13] * report["provenance"]["attempts"]


@pytest.mark.parametrize("argv", [["cone", "image-check"],
                                  ["cone", "fixed-points"],
                                  ["cone", "degenerate"]])
def test_cone_rejects_primes_above_the_cap(argv, capsys):
    assert run(argv + ["--prime", "109"]) == 2
    assert "limited to" in capsys.readouterr().err
    # every listed prime is checked before a repeated --prime is refused
    assert run(argv + ["--prime", "13", "--prime", "109"]) == 2
    assert "limited to" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["cone", "image-check"],
                                  ["cone", "fixed-points"],
                                  ["cone", "degenerate", "--case", "1", "--intersections"]])
def test_cone_commands_take_one_prime(argv, tmp_path, monkeypatch, capsys):
    # a cone command scans at one prime: a repeated --prime is a config
    # error, where it once dropped every prime after the first
    assert run(argv + ["--prime", "13", "--prime", "17"]) == 2
    err = capsys.readouterr().err
    assert "a cone command takes one --prime, got [13, 17]" in err
    assert "Traceback" not in err
    # the default list still gives its first prime
    monkeypatch.setenv("GODEAUX_PRIMES", "29,13")
    out = tmp_path / "out.json"
    assert run(argv + ["--output", str(out)]) == 0
    assert {r.get("prime") for r in json.loads(out.read_text())} - {None} == {29}


@pytest.mark.parametrize("argv, primes", [(["--prime", "4", "--prime", "9"], None),
                                           ([], "abc")])
def test_symbolic_fixed_points_check_the_prime(argv, primes, monkeypatch, capsys):
    # --symbolic scans nothing, yet it refuses the primes every other cone
    # command refuses, where it once passed with exit 0
    if primes is not None:
        monkeypatch.setenv("GODEAUX_PRIMES", primes)
    assert run(["cone", "fixed-points", "--symbolic", *argv]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "Traceback" not in err


def test_table1_builds_each_sigma_table_once(monkeypatch, capsys):
    import godeaux.family as family

    calls = []
    original = family.sigma_table

    def counting(fam, lift):
        calls.append(lift.exponents)
        return original(fam, lift)

    monkeypatch.setattr(family, "sigma_table", counting)
    assert run(["table1"]) == 0
    assert "reference match" in capsys.readouterr().out
    assert len(calls) == 2


def test_cone_degenerate_builds_one_cone_setup(monkeypatch, capsys):
    import godeaux.cone as cone

    builds = []
    original = cone.ConeSetup.__post_init__

    def counting(self):
        builds.append(self.field)
        original(self)

    monkeypatch.setattr(cone.ConeSetup, "__post_init__", counting)
    cone._cone_setup.cache_clear()
    assert run(["cone", "degenerate", "--case", "1", "--intersections"]) == 0
    assert "N-elliptic" in capsys.readouterr().out
    assert len(builds) == 1


def test_cone_degenerate_scans_each_configuration_once(monkeypatch, capsys):
    # the gates and the census read one scan of B1 and B2 on the cone, and
    # the gates at the fixed points evaluate no polynomial
    import godeaux.cone as cone
    from godeaux.wpoly import WPoly

    scans, evaluations = [], []
    original_scan, original_evaluate = cone.enumerate_points, WPoly.evaluate

    def counting_scan(ring, p, eqs, *rest):
        scans.append(len(eqs))
        return original_scan(ring, p, eqs, *rest)

    def counting_evaluate(self, point):
        evaluations.append(point)
        return original_evaluate(self, point)

    monkeypatch.setattr(cone, "enumerate_points", counting_scan)
    monkeypatch.setattr(WPoly, "evaluate", counting_evaluate)
    for case in ("general", "1", "3"):
        scans.clear()
        code = run(["cone", "degenerate", "--case", case, "--intersections"])
        assert code == (2 if case == "3" else 0)
        assert scans == [3], case
    assert "N-elliptic" in capsys.readouterr().out
    evaluations.clear()
    assert run(["cone", "degenerate", "--case", "general"]) == 0
    assert evaluations == []


def test_cone_image_check_evaluates_no_polynomial_per_point(monkeypatch, capsys):
    from godeaux.wpoly import WPoly

    calls = []
    original = WPoly.evaluate

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(WPoly, "evaluate", counting)
    assert run(["cone", "image-check", "--prime", "13"]) == 0
    assert "[PASS ] invariant-map" in capsys.readouterr().out
    assert calls == []


# the deg1 preset (nodes at r1 and tau(r1)) as a config file over GF(13)
DEG1_F13 = {"case": "deg1", "field": 13,
            "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
            "h3": "y0 + 2*y3", "r1": [1, 1, 1, 0]}


# exit status and sha256 of the canonical JSON of each cone command, as
# computed before the cone module moved onto the shared kernels; the reports
# are meant to stay byte-identical.  The two config files and the deg4 run at
# GF(29) pin the verdict paths the default cases miss: a general q1 through
# the vertex (status fail), and a q1 with tau(q1) = -q1, a shared component
# found at scale -1 (census error).  The four file runs were re-pinned when
# the config stamp came to hash the file's bytes instead of its path; their
# reports are otherwise unchanged.  Every degenerate run was re-pinned when
# the gate smooth_fixed_points_on_B3, which BranchConfig's check on h3 made
# always true, left the gates; nothing else in those reports changed
PINNED_CONE_REPORTS = {
    ("image-check", "--prime", "13"):
        (0, "0c0f1ee6dbfbf94325f18890259ccd5562e128e233b2c56d825a0987eae341e8"),
    ("image-check", "--prime", "29"):
        (0, "7b05f753a76f852f19e83f7182b49fc379ba40512432019e195c11f208606130"),
    ("fixed-points", "--symbolic"):
        (0, "2fb3880e36305e7b0bff4f1b28ea353ef58b8115785b1e9d004fe22e9956c287"),
    ("fixed-points", "--prime", "13"):
        (0, "695f59c4e2ba923560b42b3e0adbbb07082b245f007eb131c448e936c720698d"),
    ("degenerate", "--case", "general", "--intersections", "--prime", "13"):
        (0, "55cd88d5a1455469af1e052279912873a7cd7a336b90fbee5380a7ecb5dad8c8"),
    ("degenerate", "--case", "1", "--intersections", "--prime", "13"):
        (0, "81e12e2c7a189803d4ab7d44bbb62007398b5ea58bec6e32320f15f2ab3d7aa0"),
    ("degenerate", "--case", "2", "--intersections", "--prime", "13"):
        (0, "87ac4d447231f168ce5dbff76f7e0923e3f257a37b28f37db10996f5e6397f1b"),
    ("degenerate", "--case", "3", "--intersections", "--prime", "13"):
        (2, "14960d48e60785b36dcb1bed96d6648beeec4b04fae7efecd710ec150e9acac7"),
    ("degenerate", "--case", "4", "--intersections", "--prime", "13"):
        (0, "d06d02fbeeeaaab4499a89d2f116c45b4c30c21e7f55e606d54cc95ac345c07f"),
    # re-pinned when the exP note came to name `cone pencil` (pencil_report)
    ("degenerate", "--case", "exP", "--intersections", "--prime", "13"):
        (0, "89d9fe30920f68c0496d1f75dad50912ae846aed4b842392e8ae595501134585"),
    ("degenerate", "--case", "4", "--intersections", "--prime", "29"):
        (0, "0e8c7542bb03ecedcb98b45aec7204df2985ebbb25894bd5c918534f6717c73f"),
    ("degenerate", "--config", "through-vertex.json"):
        (1, "d29b0b81d485ed99d7439eb35a37bd94adef5eaac8b63b28c27329656506e55c"),
    ("degenerate", "--config", "anti-invariant.json", "--intersections"):
        (2, "284e19ae64be0132412ab469ab8942d542dfd0aba0efcddfb7dc2faee968070f"),
    # the deg1 preset over GF(13): the GF(p) rank test of its nodes and the
    # GF(p) normalization of tau(r1) in the census
    ("degenerate", "--config", "deg1-f13.json", "--intersections"):
        (0, "569cc7dba3d7726fbfbf11150d9602d7e4c4301e1caeb1e133712b626a0ab03d"),
    ("pencil",):
        (0, "8561ae751297b19ae4f4310aa9911f51d15619324f580fecd1eb9f63f0c98148"),
    ("pencil", "--points", "frame-a.json"):
        (0, "50d733258b9a462daac5fa886256ef6fbab57f6ebe9ff8a0dae7c36cacca3002"),
    ("pencil", "--points", "frame-b.json"):
        (0, "4434343a33abbd18c94059bc1393efcde570ef923b535d6af309afac6c0c5bbb"),
}


def test_cone_reports_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GODEAUX_PRIMES", raising=False)
    (tmp_path / "frame-a.json").write_text(
        json.dumps([[1, 2, 3], [-1, 0, 2], [2, -3, 1], [0, 1, -1]]))
    (tmp_path / "frame-b.json").write_text(
        json.dumps([[3, -1, 2], [1, 1, 1], [-2, 0, 1], [0, 3, -1]]))
    (tmp_path / "through-vertex.json").write_text(json.dumps(
        {"case": "general", "q1": "y1^2 + y2^2 + y0 y1", "h3": "y0 + 2*y3"}))
    (tmp_path / "anti-invariant.json").write_text(json.dumps(
        {"case": "general", "q1": "y0 y1 + y2 y3", "h3": "y0 + 2*y3"}))
    (tmp_path / "deg1-f13.json").write_text(json.dumps(DEG1_F13))
    for argv, (code, digest) in PINNED_CONE_REPORTS.items():
        out = tmp_path / "reports.json"
        if out.exists():
            out.unlink()
        assert run(["cone", *argv, "--output", "reports.json"]) == code, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


# exit status and sha256 of the canonical JSON of verify runs, as computed
# before the surface scan filtered its grid rows by the eliminant; the
# reports are meant to stay byte-identical.  The three failing draws, pinned
# before the quasi-smoothness check moved onto the orbit representatives of
# g, cover the witness path: Jacobian rank below 2 at [1, 2, 12, 0, 0],
# [1, 3, 4, 5, 15] and [1, 3, 17, 5, 4].  The last two, pinned before the
# free-action and fixed-locus checks moved onto one row per orbit of g,
# cover their witnesses: g^2 fixes [1, 0, 4, 0, 0], and the fixed locus
# of the involution misses the surface.  The last, pinned before the
# Jacobian test took the minor in s and t first, is singular at
# [1, 5, 45, 7, 8], off x2 = 0 with s and t nonzero, at a large prime
PINNED_VERIFY_REPORTS = {
    ("--prime", "13", "--draws", "20", "--seed", "42"):
        (0, "ca3ad9936583e179b48e88ef0538840f7b5bf9acc451b90efe83b9da1ac3b95e"),
    ("--prime", "61", "--seed", "5"):
        (0, "fdc7c00dd4f906a030def52244460cb9aad3af6b4e73fe900b4e5161a55b9e83"),
    ("--prime", "101", "--seed", "3"):
        (0, "3fcccbc52953f72a0954f1d0b63b812344e120179ac6002f4672d9a55aeb3b6c"),
    ("--prime", "13", "--seed", "21", "--retry-budget", "0"):
        (1, "fa3538be9dcf8ba10a5d382fcc993276fb182b7797954204863ece23bed52a87"),
    ("--prime", "17", "--seed", "114", "--retry-budget", "0"):
        (1, "7bc565a46e7d1b2e38ddc197546a6075030b3573a754b0f44d27082b3c8649af"),
    ("--prime", "29", "--seed", "109", "--retry-budget", "0"):
        (1, "1c35e62c640e76c840243c6402c64470b9827e99f171ea2079584b14748ac8b9"),
    ("--prime", "13", "--seed", "52", "--retry-budget", "0"):
        (1, "1b3c64ce5400dec8eceb736f7e30306a2d774a69e79530139e05806707f297bd"),
    ("--prime", "13", "--seed", "42", "--retry-budget", "0"):
        (1, "5250cf2cea246426400299362b41a07dcab4dcc809d09dbc46dfc9aa25201570"),
    ("--prime", "61", "--seed", "123", "--retry-budget", "0", "--checks", "quasi-smooth"):
        (1, "4ee69c575331514925adf63589bb8073f6cfc07e08046f791bf91726d99873b8"),
}


def test_verify_reports_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GODEAUX_PRIMES", raising=False)
    for argv, (code, digest) in PINNED_VERIFY_REPORTS.items():
        out = tmp_path / "reports.json"
        if out.exists():
            out.unlink()
        assert run(["verify", *argv, "--output", "reports.json"]) == code, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_singular_draw_at_a_large_prime_keeps_its_witness(tmp_path):
    # the minor in s and t vanishes at the witness, so it is found by the
    # test of every minor on the few rows where that one vanishes
    out = tmp_path / "reports.json"
    argv = ["verify", "--prime", "61", "--seed", "123", "--retry-budget", "0",
            "--checks", "quasi-smooth", "--output", str(out)]
    assert run(argv) == 1
    (report,) = json.loads(out.read_text())
    assert report["status"] == "fail"
    assert report["witness"] == [1, 5, 45, 7, 8]
    assert "failure_mode" not in report["data"]


# sha256 of the canonical JSON and the exit status of the table1, cover and
# group commands, as computed before the scan decisions were merged
PINNED_REPORTS = {
    ("table1", "--seed", "0"):
        (0, "42829b6d06a2332990c8b9aba19f2f3897fa9c51f1240c9eb7e4d0a6e75a6446"),
    ("table1", "--seed", "7"):
        (0, "b656cb88fd009b04d0746fe0e74772eb7273aae66d31f107b8045d259ce15f06"),
    # the sigma-type ranks over GF(p)
    ("table1", "--field", "13", "--seed", "0"):
        (0, "5823ce4f1971897a95658c7514269817b5b97685cbb3c9a9a03a5dcbc5cf185f"),
    ("table1", "--field", "29", "--seed", "7"):
        (0, "45e4504141c31f576919c630d361aaea8952af88bac0c9462f65d0a6049f1ea5"),
    ("cover", "validate", "--preset", "enriques"):
        (0, "f7f63714eb3c626d531b320009bf46b72db0b99217cde8cca80fb894558d3205"),
    ("cover", "validate", "--preset", "f2"):
        (0, "07c4eca5721add91047ed60391f4e497f2d3011aff19d85d25f5aa0699cc78ac"),
    ("cover", "invariants", "--preset", "enriques"):
        (0, "27e712b54d9d5bd07c9cb2307ec7514c57f050b213eccbd8b4985f83d50d178e"),
    ("cover", "invariants", "--preset", "f2"):
        (0, "d9787c6cbea5f0debf3ed13aa0b6e113846e07204216152cd556126a2c93aec6"),
    ("cover", "invariants", "--preset", "p2"):
        (0, "c5ce3b2c6d4cb8362f70fd9c6e341986aad5a48abe5c96c12ec9ca5ff65cc313"),
    ("cover", "lift", "--case", "a"):
        (0, "b3745d4a50fdfcd20826fe8989824af5dff56677c1ce27cceee08846ed5e2320"),
    ("cover", "lift", "--case", "b"):
        (0, "5a824841023be0b9bbb07817cb1efda09525cbd5687ff216750bf64a78dcc450"),
    ("cover", "lift", "--case", "double"):
        (0, "4512f9c46ad26c05b9bb1e6757d5ab1657900700a6b80ab6de5573babf1f80e2"),
    ("cover", "lift", "--case", "double", "--rho-order", "3"):
        (0, "a86bd5dbb3caa217143b6e741a56edc150a56687bb7e4ff3be9268d9173a981b"),
    ("cover", "even-set", "--preset", "even8"):
        (0, "47e57d8e68b0fa4e4284beb04cd804e2e5800bb975a52548cc7057573dc99c4a"),
    ("cover", "even-set", "--preset", "enriques"):
        (1, "a0dc2ada6684a282848e0750a3b9a1a8eb41423803b87ac78fa18c7280de00db"),
    ("cover", "enriques"):
        (0, "f8137691f239a6cadc7b3d6e802c25040ac117990cba195ed7cca66f89cb8d83"),
    ("group", "divisibility", "--group", "Z2xZ4", "--element", "0,2"):
        (0, "b78fe40f34d73340edcb4acb6217b1b30accded1ac605c5c6c0571965536f3c9"),
    ("group", "divisibility", "--group", "Z2xZ4", "--element", "1,0"):
        (1, "fea5a0808d0d5e7a75837f43d214a130f96c516653b2fed9dbebfe013c4a7c5a"),
    ("group", "divisibility", "--group", "Z4", "--element", "1", "--modulo", "2"):
        (1, "c84190be1b3b4b27a0120ca923b4518a21bc6d42899aa108756b828d5e2a6190"),
    ("group", "divisibility", "--group", "Z4096xZ4096", "--element", "1,3",
     "--modulo", "1,0", "--modulo", "0,1"):
        (0, "22c9634cf1f002c1ac8fb09b0fe531b1fac527f1c17a8f727dcf6bca506b684f"),
}


def test_table1_cover_and_group_reports_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GODEAUX_PRIMES", raising=False)
    for argv, (code, digest) in PINNED_REPORTS.items():
        out = tmp_path / "reports.json"
        if out.exists():
            out.unlink()
        assert run([*argv, "--output", "reports.json"]) == code, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_cone_image_and_fixed_points():
    assert run(["cone", "image-check"]) == 0
    assert run(["cone", "fixed-points", "--symbolic"]) == 0
    assert run(["cone", "fixed-points", "--prime", "13"]) == 0


DEGENERATE_SUMMARIES = {
    "general": "case general: normalization smooth-Godeaux, gorenstein=True,"
               " cartier indices (T, S) = (1, 1)",
    "1": "case deg1: normalization N-elliptic, gorenstein=True,"
         " cartier indices (T, S) = (1, 1)",
    "2": "case deg2: normalization P2, gorenstein=True,"
         " cartier indices (T, S) = (1, 1)",
    "3": "case deg3: normalization Enriques-4-nodes, gorenstein=False,"
         " cartier indices (T, S) = (2, 2)",
    "4": "case deg4: normalization dP1, gorenstein=False,"
         " cartier indices (T, S) = (None, 2)",
    "deg1": "case deg1: normalization N-elliptic, gorenstein=True,"
            " cartier indices (T, S) = (1, 1)",
    "exP": "case exP: normalization P2, gorenstein=True,"
           " cartier indices (T, S) = (1, 1)",
}


def test_cone_degenerate_all_cases(capsys):
    for case, summary in DEGENERATE_SUMMARIES.items():
        assert run(["cone", "degenerate", "--case", case]) == 0
        assert capsys.readouterr().out.splitlines()[0] == summary, case


def test_cone_degenerate_rejects_unknown_case(capsys):
    assert run(["cone", "degenerate", "--case", "9"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cone_degenerate_intersections_error_for_shared_component():
    # in scenario 3 the two branch quadrics share the invariant plane,
    # so the census is ill-posed and the run signals an error
    assert run(["cone", "degenerate", "--case", "3", "--intersections"]) == 2


def test_cone_degenerate_from_config_file(tmp_path):
    cfg = tmp_path / "branch.json"
    cfg.write_text(json.dumps({
        "case": "deg1",
        "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
        "h3": "y0 + 2*y3",
        "r1": [1, 1, 1, 0],
    }))
    assert run(["cone", "degenerate", "--config", str(cfg)]) == 0
    assert run(["cone", "degenerate", "--case", "1", "--config", str(cfg)]) == 0
    assert run(["cone", "degenerate", "--case", "2", "--config", str(cfg)]) == 2


def test_cone_degenerate_config_rejections(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"case": "general", "q1": "y1^2",
                                   "h3": "y0", "zz": 1}))
    assert run(["cone", "degenerate", "--config", str(bad_key)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"case": "general", "q1": "y1^2"}))
    assert run(["cone", "degenerate", "--config", str(missing)]) == 2
    structural = tmp_path / "structural.json"
    structural.write_text(json.dumps({
        "case": "deg2", "q1": "y1^2 + y3^2", "h3": "y0",
        "h": "y1 + y3",
    }))
    assert run(["cone", "degenerate", "--config", str(structural)]) == 2
    assert "config error" in capsys.readouterr().err
    # a general configuration with the fields of deg1 and deg2, which it
    # does not read, is refused by name and not classified
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps({
        "case": "general", "q1": "y0^2 + y1^2 + 2*y2^2 + 3*y3^2 + y0 y3 + y0 y1",
        "h3": "y0 + 2*y3", "h": "y0 + y1", "r1": [1, 1, 1, 0],
    }))
    assert run(["cone", "degenerate", "--config", str(unread)]) == 2
    captured = capsys.readouterr()
    assert "case general does not read r1" in captured.err
    assert "degeneration" not in captured.out


MALFORMED_CONFIGS = {
    "r1-not-a-list": (["cone", "degenerate", "--config"], {
        "case": "deg1",
        "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
        "h3": "y0 + 2*y3",
        "r1": 5,
    }, "'r1'"),
    "r1-whole-float": (["cone", "degenerate", "--config"], {
        "case": "deg1",
        "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
        "h3": "y0 + 2*y3",
        "r1": [1.0, 1, 1, 0],
    }, "'r1'"),
    "r1-boolean": (["cone", "degenerate", "--config"], {
        "case": "deg1",
        "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
        "h3": "y0 + 2*y3",
        "r1": [True, 1, 1, 0],
    }, "'r1'"),
    "r1-string": (["cone", "degenerate", "--config"], {
        "case": "deg1",
        "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
        "h3": "y0 + 2*y3",
        "r1": ["1", 1, 1, 0],
    }, "'r1'"),
    "q1-not-a-string": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": 5, "h3": "y0",
    }, "'q1'"),
    "q1-division-by-zero": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "1/0*y0^2 + y1^2", "h3": "y0 + 2*y3",
    }, "'q1'"),
    "h3-division-by-zero": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "y0^2 + y1^2", "h3": "1/0*y0 + 2*y3",
    }, "'h3'"),
    # Fraction would expand the exponent into a hundred-million-digit integer
    "q1-exponent-notation": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "1e99999999*y0^2 + y1^2", "h3": "y0 + 2*y3",
    }, "'q1'"),
    "h3-exponent-notation": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "y0^2 + y1^2", "h3": "y0 + 1e99999999*y3",
    }, "'h3'"),
    "points-not-triples": (["cone", "pencil", "--points"], [1, 2, 3, 4], "triples"),
    "points-not-integers": (["cone", "pencil", "--points"],
                            [["a", 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]], "integers"),
    "points-floats": (["cone", "pencil", "--points"],
                      [[1.7, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]], "integers"),
    "points-whole-floats": (["cone", "pencil", "--points"],
                            [[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]], "integers"),
    "points-booleans": (["cone", "pencil", "--points"],
                        [[True, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]], "integers"),
    "q0-not-a-map": (["table1", "--coeffs"], {"q0": [1], "q2": {}}, "q0"),
    "enforce-involution-string": (["table1", "--coeffs"], {
        "field": "Q", "seed": 5, "enforce_involution": "no",
    }, "enforce_involution"),
    "enforce-involution-number": (["table1", "--coeffs"], {
        "field": "Q", "seed": 5, "enforce_involution": 1,
    }, "enforce_involution"),
    "seed-float": (["table1", "--coeffs"], {"field": "Q", "seed": 5.9}, "seed"),
    "seed-boolean": (["table1", "--coeffs"], {"field": "Q", "seed": True}, "seed"),
    "seed-string": (["table1", "--coeffs"], {"field": "Q", "seed": "5"}, "seed"),
    "coefficient-float": (["table1", "--coeffs"], {
        "field": "Q", "q0": {"x1^4": 0.1}, "q2": {"x1^2 x2^2": 1},
    }, "q0"),
    "coefficient-boolean": (["table1", "--coeffs"], {
        "field": "Q", "q0": {"x1^4": True}, "q2": {"x1^2 x2^2": 1},
    }, "q0"),
    "coefficient-infinity": (["table1", "--coeffs"], {
        "field": "Q", "q0": {"x1^4": float("inf")}, "q2": {"x1^2 x2^2": 1},
    }, "q0"),
    "coefficient-division-by-zero": (["table1", "--coeffs"], {
        "field": "Q", "q0": {"x1^4": "1/0"}, "q2": {"x1^2 x2^2": 1},
    }, "x1^4"),
    "coefficient-decimal-string": (["table1", "--coeffs"], {
        "field": "Q", "q0": {"x1^4": "0.5"}, "q2": {"x1^2 x2^2": 1},
    }, "x1^4"),
    "coefficient-not-a-number": (["table1", "--coeffs"], {
        "field": 13, "q0": {"x1^4": "1/2"}, "q2": {"x1^2 x2^2": 1},
    }, "x1^4"),
    # GF(p) coefficients are ASCII integers: no digit separator, sign or
    # non-ASCII digit
    "coefficient-digit-separator": (["table1", "--coeffs"], {
        "field": 13, "q0": {"x1^4": "1_2"}, "q2": {"x1^2 x2^2": 1},
    }, "x1^4"),
    "coefficient-plus-sign": (["table1", "--coeffs"], {
        "field": 13, "q0": {"x1^4": "+5"}, "q2": {"x1^2 x2^2": 1},
    }, "x1^4"),
    "coefficient-arabic-indic-digit": (["table1", "--coeffs"], {
        "field": 13, "q0": {"x1^4": "\u0663"}, "q2": {"x1^2 x2^2": 1},
    }, "x1^4"),
    # a field spec is ASCII digits too
    "field-arabic-indic-digits": (["table1", "--coeffs"], {
        "field": "\u0661\u0663", "seed": 5,
    }, "field spec"),
    "branch-field-arabic-indic-digits": (["cone", "degenerate", "--config"], {
        "case": "general", "field": "\u0661\u0663", "q1": "y0^2 + y1^2", "h3": "y0 + 2*y3",
    }, "field"),
    # a polynomial has no empty term
    "q1-empty-term": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "y0^2 + + y1^2", "h3": "y0 + 2*y3",
    }, "'q1'"),
    "q1-leading-plus": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "+ y0^2 + y1^2", "h3": "y0 + 2*y3",
    }, "'q1'"),
    "h3-trailing-plus": (["cone", "degenerate", "--config"], {
        "case": "general", "q1": "y0^2 + y1^2", "h3": "y0 + 2*y3 +",
    }, "'h3'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_values_are_config_errors(name, tmp_path, capsys):
    argv, content, key = MALFORMED_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    assert run([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert "Traceback" not in err


def test_cone_pencil_default_and_custom(tmp_path, capsys):
    assert run(["cone", "pencil"]) == 0
    out = capsys.readouterr().out
    assert "phi rows" in out
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3]]))
    assert run(["cone", "pencil", "--points", str(pts)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]))
    assert run(["cone", "pencil", "--points", str(bad)]) == 2
    short = tmp_path / "short.json"
    short.write_text(json.dumps([[1, 0, 0]]))
    assert run(["cone", "pencil", "--points", str(short)]) == 2


def test_reports_are_byte_identical_for_same_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    argv = ["verify", "--prime", "13", "--draws", "2", "--seed", "42"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["verify", "--prime", "13", "--draws", "2", "--seed", "43",
                "--output", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("argv, content", [
    (["table1", "--coeffs"], {"field": "Q", "seed": 5}),
    (["cone", "degenerate", "--config"],
     {"case": "general", "q1": "y1^2 + y2^2 + y3^2 + y0 y1", "h3": "y0 + 2*y3"}),
    (["cone", "pencil", "--points"], [[1, 2, 3], [-1, 0, 2], [2, -3, 1], [0, 1, -1]]),
], ids=["coeffs", "config", "points"])
def test_config_stamp_is_the_file_content(argv, content, tmp_path):
    # one file in two directories stamps the same, so the reports are
    # byte-identical; an edit in place (here a reformatting) changes the
    # stamp and nothing else
    paths = [tmp_path / folder / "input.json" for folder in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        path.write_text(json.dumps(content))

    def report(path):
        out = tmp_path / "out.json"
        code = run([*argv, str(path), "--output", str(out)])
        return code, out.read_bytes()

    first = report(paths[0])
    assert report(paths[1]) == first
    paths[0].write_text(json.dumps(content, indent=1))
    code, edited = report(paths[0])
    assert code == first[0]
    before, after = json.loads(first[1]), json.loads(edited)
    stamps = [[r["provenance"].pop("config") for r in reps] for reps in (before, after)]
    assert len(set(stamps[0])) == len(set(stamps[1])) == 1
    assert stamps[0] != stamps[1]
    assert before == after


def test_repeated_verify_runs_in_one_process_write_the_same_report(tmp_path, monkeypatch):
    # the surface memo is keyed by the member object, so a run never meets
    # a surface of an earlier run, whatever ran in between: each run scans
    # once per attempt, the same call back to back included
    scans = []
    original = varieties.enumerate_points

    def counting(*args):
        scans.append(args[1])
        return original(*args)

    monkeypatch.setattr(varieties, "enumerate_points", counting)

    def verify(argv, out):
        del scans[:]
        assert run(["verify", "--prime", "13", *argv, "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(scans) == sum(r["provenance"]["attempts"] for r in reports
                                 if r["check"] == "quasi-smooth")
        return out.read_bytes()

    a, b, c, d, e = (tmp_path / f"{n}.json" for n in "abcde")
    argv = ["--draws", "20", "--seed", "42"]
    first = verify(argv, a)
    verify(["--draws", "3", "--seed", "7"], c)
    assert verify(argv, b) == first
    assert len(json.loads(first)) == 60
    # one member per run: the second run draws the member the first ended on
    single = ["--seed", "1", "--retry-budget", "0"]
    assert verify(single, d) == verify(single, e)


def test_report_file_schema(tmp_path):
    out = tmp_path / "r.json"
    assert run(["cone", "image-check", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and len(payload) == 1
    rep = payload[0]
    assert rep["check"] == "invariant-map"
    assert rep["status"] == "pass"
    assert "config" in rep["provenance"]
    assert "version" in rep["provenance"]
    assert "elapsed_ms" not in rep


def test_unwritable_output_is_config_error(capsys):
    assert run(["cone", "image-check", "--output",
                "/nonexistent-dir/r.json"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "29", "--prime", "13"],
    ["cone", "image-check", "--field", "13", "--prime", "29"],
    ["cone", "degenerate", "--field", "13"],
    ["cover", "validate", "--field", "Q"],
    ["group", "divisibility", "--group", "Z2", "--element", "0", "--field", "Q"],
])
def test_field_is_a_table1_option_only(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments: --field" in capsys.readouterr().err


def test_table1_takes_a_field():
    assert run(["table1", "--field", "13"]) == 0


@pytest.mark.parametrize("spec", ["\u0661\u0663", "\uff11\uff13", "f\u0661\u0663"])
def test_table1_field_takes_ascii_digits_only(spec, capsys):
    # Arabic-Indic and fullwidth digits for 13 are no field spec
    assert run(["table1", "--field", spec]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unrecognized field spec" in err


def test_cone_degenerate_config_field_must_match_the_prime(tmp_path, capsys):
    cfg = tmp_path / "branch.json"
    cfg.write_text(json.dumps({
        "case": "deg1",
        "field": "13",
        "q1": "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
        "h3": "y0 + 2*y3",
        "r1": [1, 1, 1, 0],
    }))
    assert run(["cone", "degenerate", "--config", str(cfg), "--prime", "13"]) == 0
    capsys.readouterr()
    for argv in (["--prime", "29"], ["--prime", "29", "--intersections"]):
        assert run(["cone", "degenerate", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "GF(13)" in err and "29" in err
    cfg.write_text(json.dumps({"case": "general", "field": "4",
                               "q1": "y1^2", "h3": "y0"}))
    assert run(["cone", "degenerate", "--config", str(cfg)]) == 2
    assert "config error: bad field in branch config" in capsys.readouterr().err


@pytest.mark.parametrize("name, q1, h3", [
    ("q1", "1/13*y1^2 + y2^2 + y3^2", "y0 + y3"),
    ("h3", "y1^2 + y2^2 + y3^2", "y0 + 1/13*y3"),
])
def test_cone_degenerate_config_bad_reduction_is_a_config_error(name, q1, h3, tmp_path,
                                                                capsys):
    cfg = tmp_path / "branch.json"
    cfg.write_text(json.dumps({"case": "general", "q1": q1, "h3": h3}))
    for argv in ([], ["--intersections"]):
        assert run(["cone", "degenerate", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert f"config error: {name} has bad reduction mod 13" in err
        assert "Traceback" not in err
    # at a prime that divides no denominator the same file runs
    assert run(["cone", "degenerate", "--config", str(cfg), "--prime", "29"]) in (0, 1)
    assert "config error" not in capsys.readouterr().err


def test_bad_usage_exits_2():
    assert run([]) == 2
    assert run(["cover"]) == 2
    assert run(["cover", "lift"]) == 2
    assert run(["nope"]) == 2


# ---------------------------------------------------------------------------
# one parser per process


def _verify_primes(tmp_path, argv):
    out = tmp_path / "primes.json"
    assert run(["verify", "--checks", "fixed-locus", *argv, "--output", str(out)]) == 0
    return [rep["prime"] for rep in json.loads(out.read_text())]


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    assert run(["cover", "enriques"]) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    hits = cli._build_parser.cache_info().hits
    assert run(["cover", "enriques"]) == 0
    assert run(["verify", "--prime", "13", "--seed", "1"]) == 0
    assert built == []
    assert cli._build_parser.cache_info().hits == hits + 2


@pytest.mark.parametrize("argv, primes, message", [
    (["--prime", "13", "--prime", "13", "--seed", "1"], None, "repeated prime 13"),
    (["--prime", "29", "--prime", "13", "--prime", "29"], None, "repeated prime 29"),
    (["--seed", "1"], "13,13", "repeated prime 13"),
    (["--checks", "quasi-smooth,quasi-smooth", "--prime", "13"], None,
     "repeated check 'quasi-smooth'"),
    (["--checks", "fixed-locus,free-action,fixed-locus", "--prime", "13"], None,
     "repeated check 'fixed-locus'"),
])
def test_verify_refuses_a_repeated_prime_or_check(argv, primes, message, tmp_path,
                                                   monkeypatch, capsys):
    # a repeat once wrote its reports again, as draw 0 with another draw
    # seed, and exited 0; it is a config error that names the repeat, and
    # no report is written
    monkeypatch.delenv("GODEAUX_PRIMES", raising=False)
    if primes is not None:
        monkeypatch.setenv("GODEAUX_PRIMES", primes)
    out = tmp_path / "out.json"
    assert run(["verify", *argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_repeated_prime_options_do_not_leak(tmp_path, monkeypatch):
    monkeypatch.delenv("GODEAUX_PRIMES", raising=False)
    assert _verify_primes(tmp_path, ["--prime", "29", "--prime", "13"]) == [29, 13]
    assert _verify_primes(tmp_path, []) == [13, 29]
    assert _verify_primes(tmp_path, ["--prime", "29"]) == [29]
    assert _verify_primes(tmp_path, []) == [13, 29]


def test_primes_env_is_read_per_call(tmp_path, monkeypatch):
    monkeypatch.setenv("GODEAUX_PRIMES", "29")
    assert _verify_primes(tmp_path, []) == [29]
    monkeypatch.setenv("GODEAUX_PRIMES", "13")
    assert _verify_primes(tmp_path, []) == [13]
    monkeypatch.delenv("GODEAUX_PRIMES")
    assert _verify_primes(tmp_path, []) == [13, 29]


def test_parse_error_leaves_the_next_call_alone(tmp_path, capsys):
    argv = ["cone", "degenerate", "--case", "1", "--intersections"]
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert run([*argv, "--output", str(before)]) == 0
    first = capsys.readouterr()
    errors = []
    for bad in (["verify", "--prime", "x"], ["cone", "degenerate", "--bogus"]):
        for _ in range(2):
            assert run(bad) == 2
            errors.append(capsys.readouterr())
    assert all(e.out == "" and e.err.startswith("usage: godeaux") for e in errors)
    assert errors[0] == errors[1] and errors[2] == errors[3]
    assert "invalid int value: 'x'" in errors[0].err
    assert "unrecognized arguments: --bogus" in errors[2].err
    assert run([*argv, "--output", str(after)]) == 0
    second = capsys.readouterr()
    assert after.read_bytes() == before.read_bytes()
    assert second.out.replace(str(after), "") == first.out.replace(str(before), "")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["cone", "pencil", "-h"]])
def test_help_works_twice(argv, capsys):
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("usage: godeaux")


# ---------------------------------------------------------------------------
# one ASCII grammar for every string the command line reads

_BRANCH = '"case": "general", "h3": "y0 + 2*y3"'
_COEFFS = '"field": 13, "q2": {"x1^2 x2^2": 1}'
_POINTS = '[0, 1, 0], [0, 0, 1], [1, 2, 3]'

# (argv, GODEAUX_PRIMES or None, JSON text of a file whose path ends argv)
HOSTILE_SPELLINGS = [
    # argparse values
    (["verify", "--prime", "\u0661\u0663"], None, None),
    (["verify", "--prime", "1_3"], None, None),
    (["verify", "--prime", "+13"], None, None),
    (["verify", "--prime", " 13"], None, None),
    (["verify", "--seed", "\u0664\u0662", "--prime", "13"], None, None),
    (["verify", "--draws", "1_0", "--prime", "13"], None, None),
    (["verify", "--retry-budget", "\uff13", "--prime", "13"], None, None),
    (["table1", "--seed", "5 "], None, None),
    (["cover", "lift", "--case", "double", "--rho-order", "1_0"], None, None),
    # GODEAUX_PRIMES
    (["verify"], "\u0661\u0663", None),
    (["verify"], "1_3", None),
    (["verify"], "13,,29", None),
    (["verify"], "13,", None),
    (["verify"], "", None),
    # comma lists
    (["verify", "--checks", "quasi-smooth,,"], None, None),
    (["verify", "--checks", ""], None, None),
    (["cover", "even-set", "--classes", "C1,,C2"], None, None),
    (["cover", "even-set", "--classes", ""], None, None),
    # group labels and elements
    (["group", "divisibility", "--group", "Z4", "--element", "2_0"], None, None),
    (["group", "divisibility", "--group", "Z4", "--element", "\u0662"], None, None),
    (["group", "divisibility", "--group", "Z2xZ4", "--element", "1,+1"], None, None),
    (["group", "divisibility", "--group", "Z4", "--element", "1",
      "--modulo", "1,"], None, None),
    (["group", "divisibility", "--group", "Z\u0664", "--element", "2"], None, None),
    (["group", "divisibility", "--group", "Z4^1_0", "--element", "2"], None, None),
    (["group", "divisibility", "--group", " Z4", "--element", "2"], None, None),
    (["group", "divisibility", "--group", "Z2^100", "--element", "1"], None, None),
    # table1 --coeffs keys, values and fields, and JSON NaN and Infinity
    (["table1", "--coeffs"], None, '{"q0": {"x1^0_4": 1}, ' + _COEFFS + '}'),
    (["table1", "--coeffs"], None, '{"q0": {"x1^\u0664": 1}, ' + _COEFFS + '}'),
    (["table1", "--coeffs"], None, '{"q0": {"x1^4 ": 1}, ' + _COEFFS + '}'),
    (["table1", "--coeffs"], None, '{"q0": {"x1^99999999999999999999": 1}, ' + _COEFFS + '}'),
    (["table1", "--coeffs"], None, '{"q0": {"x1^4": " 5"}, ' + _COEFFS + '}'),
    (["table1", "--coeffs"], None, '{"q0": {"x1^4": NaN}, ' + _COEFFS + '}'),
    (["table1", "--coeffs"], None, '{"field": "F1_3", "seed": 5}'),
    (["table1", "--coeffs"], None, '{"field": "Q", "seed": Infinity}'),
    # cone --config polynomials, fields and points
    (["cone", "degenerate", "--config"], None, '{"q1": "y0^\u0662 + y1^2", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None, '{"q1": "y0^1_0 + y1^2", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None, '{"q1": "y0^2 + 3 * ", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None, '{"q1": "3 * ", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None, '{"q1": "y0^2 + y1^0", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None,
     '{"q1": "y0^2 + y1^99999999999999999999", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None, '{"q1": "y0^2\u00a0+ y1^2", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None, '{"q1": "- 1 * y0^2 + y1^2", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None,
     '{"q1": "y0^2 + y1^2", "field": "F1_3", ' + _BRANCH + '}'),
    (["cone", "degenerate", "--config"], None,
     '{"case": "deg1", "q1": "y1^2", "h3": "y0", "r1": [NaN, 1, 1, 0]}'),
    (["cone", "degenerate", "--config"], None,
     '{"case": "general", "q1": "y0^2 + y1^2", "h3": "y0 + 1"}'),
    (["cone", "pencil", "--points"], None, '[[Infinity, 0, 0], ' + _POINTS + ']'),
    # a prime or a check named twice
    (["verify", "--prime", "13", "--prime", "13", "--seed", "1"], None, None),
    (["verify", "--seed", "1"], "13,13", None),
    (["verify", "--checks", "quasi-smooth,quasi-smooth", "--prime", "13"], None, None),
]


@pytest.mark.parametrize("argv, primes, text", HOSTILE_SPELLINGS,
                         ids=[f"{i:02d}-{case[0][0]}" for i, case in enumerate(HOSTILE_SPELLINGS)])
def test_hostile_spellings_are_config_errors(argv, primes, text, tmp_path, monkeypatch, capsys):
    if primes is not None:
        monkeypatch.setenv("GODEAUX_PRIMES", primes)
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = [*argv, str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# no garbage for the cycle collector


def _perfbench(name):
    """A module of the benchmark in perfbench/, imported by name."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def _workload_ops(work):
    """One op of each kind of the three benchmark workloads, plus its probe."""
    workloads = _perfbench("workloads")
    return [
        next(workloads.certify_stream(13, 1)),
        next(workloads.certify_stream(61, 1)),
        *itertools.islice(workloads.exact_algebra_stream(1, work), workloads.ROTATION),
        workloads.table1_odd_member_op(1, work),
    ]


def test_ops_leave_nothing_for_the_cycle_collector(tmp_path):
    # a reference cycle per call (a self-calling closure, a parser rebuilt
    # per call) is freed only by the collector, which then runs mid-scan
    ops = _workload_ops(str(tmp_path))
    kinds = {op.kind for op in ops}
    assert {"verify-p13", "verify-p61", "table1", "cone-pencil"} <= kinds

    def quiet(op):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return run(op.argv)

    # the first calls fill the per-process caches and the parser
    codes = [quiet(op) for op in ops]
    gc.collect()
    gc.disable()
    try:
        left = []
        for op, code in zip(ops, codes):
            assert quiet(op) == code, op.kind
            left.append((op.kind, gc.collect()))
    finally:
        gc.enable()
    assert [kind for kind, count in left if count] == [], left


# ---------------------------------------------------------------------------
# the templates of a support call nothing the benchmark traces


def test_template_memos_change_no_traced_count(tmp_path):
    # the traced benchmark run requires equal counters across its passes,
    # so a template built on a miss may call nothing it traces
    tracing, workloads = _perfbench("tracing"), _perfbench("workloads")
    ops = [next(workloads.certify_stream(13, 1)),
           workloads.cone_config_op(random.Random(1), str(tmp_path), "trace")]
    assert [op.argv[:2] for op in ops] == [["verify", "--prime"], ["cone", "degenerate"]]

    def quiet(op):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return run(op.argv)

    # every other per-process cache is filled first
    codes = [quiet(op) for op in ops]
    # the verify op's sigma member builds the closed form's split and the
    # Jacobian terms, and the cone op's scan, of three equations, the
    # eliminant and its layout; each op's scan asks for the closed form
    memos = (varieties._eliminant_template, varieties._split_layout, varieties._jacobian_terms,
             varieties._sigma_split)
    for memo in memos:
        memo.cache_clear()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        for op_id, (op, code) in enumerate(zip(ops, codes)):
            with tracer.installed(op_id):
                assert quiet(op) == code
        counts.append({name: stats["calls"] for name, stats in tracer.stats.items()})
        # the first pass built every template, the second built none
        assert [memo.cache_info().misses for memo in memos] == [1, 1, 1, 2]
    assert counts[0] == counts[1]
    assert counts[0]["varieties.enumerate_points"] == 2
    assert counts[0]["cone.classify_degeneration"] == 1
    assert counts[0]["wpoly.jacobian"] == 0


def test_branch_locus_never_carries_over_to_another_configuration(tmp_path):
    # the traced benchmark run runs each op traced, untraced and traced
    # again; each run builds its own BranchConfig, equal in value to the one
    # of the run before.  The scan of its branch locus is keyed by the
    # object, so every run scans once and both traced runs count the same
    tracing, workloads = _perfbench("tracing"), _perfbench("workloads")
    config = workloads.cone_config_op(random.Random(1), str(tmp_path), "trace")
    argvs = [["cone", "degenerate", "--case", "1", "--intersections"],
             config.argv + ["--intersections"]]

    def quiet(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return run(argv)

    for argv in argvs:
        code = quiet(argv)
        counts = []
        for traced in (True, False, True):
            tracer = tracing.Tracer()
            with tracer.installed(0) if traced else nullcontext():
                assert quiet(argv) == code
            if traced:
                counts.append({name: stats["calls"] for name, stats in tracer.stats.items()})
        assert counts[0] == counts[1], argv
        assert counts[0]["varieties.enumerate_points"] == 1, argv
        assert counts[0]["cone.intersection_count"] == 1, argv


# ---------------------------------------------------------------------------
# each command imports the modules it uses when it runs

# argv (None: import godeaux.cli and run nothing) -> (modules it must not
# load, modules it must load) in a fresh interpreter
FRESH_IMPORTS = [
    (None, ("numpy", "godeaux.varieties"), ("godeaux.reports",)),
    (["table1", "--seed", "7"], ("numpy", "godeaux.varieties", "godeaux.cone"),
     ("godeaux.family",)),
    (["cover", "even-set"], ("numpy", "godeaux.varieties", "godeaux.cone"),
     ("godeaux.covers",)),
    (["cover", "enriques"], ("numpy", "godeaux.varieties", "godeaux.cone"),
     ("godeaux.covers",)),
    (["group", "divisibility", "--group", "Z4", "--element", "2"],
     ("numpy", "godeaux.varieties", "godeaux.cone"), ("godeaux.abelian",)),
    (["verify", "--prime", "13"], ("godeaux.cone", "godeaux.covers"),
     ("numpy", "godeaux.varieties")),
]


def _fresh_modules(argv, cwd):
    """Exit code of cli.main(argv) in a fresh interpreter (None when argv is
    None) and the names in its sys.modules afterwards."""
    snippet = (
        "import contextlib, io, json, sys\n"
        "import godeaux.cli as cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = None if argv is None else cli.main(argv)\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "GODEAUX_PRIMES"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", snippet, json.dumps(argv)],
                          capture_output=True, text=True, env=env, cwd=cwd, check=True)
    code, modules = json.loads(done.stdout)
    return code, set(modules)


@pytest.mark.parametrize("argv, unloaded, loaded", FRESH_IMPORTS,
                         ids=["_".join(argv or ["import"]) for argv, _, _ in FRESH_IMPORTS])
def test_commands_import_only_what_they_use(argv, unloaded, loaded, tmp_path):
    code, modules = _fresh_modules(argv, tmp_path)
    assert code == (None if argv is None else 0)
    assert modules.isdisjoint(unloaded), sorted(modules & set(unloaded))
    assert modules.issuperset(loaded), sorted(set(loaded) - modules)
