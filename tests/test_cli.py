"""End-to-end command-line runs: exit codes, determinism, report files."""

import json

import pytest

from godeaux.cli import ConfigError, RunConfig, default_primes, main


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


def test_run_config_validates():
    with pytest.raises(ConfigError, match="odd primes"):
        RunConfig(command="x", primes=(2,))
    with pytest.raises(ConfigError, match="retry budget"):
        RunConfig(command="x", retry_budget=-1)
    RunConfig(command="x", primes=(13, 29)).require_one_mod_four()
    with pytest.raises(ConfigError, match="1 mod 4"):
        RunConfig(command="x", primes=(11,)).require_one_mod_four()


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


def test_cone_image_and_fixed_points():
    assert run(["cone", "image-check"]) == 0
    assert run(["cone", "fixed-points", "--symbolic"]) == 0
    assert run(["cone", "fixed-points", "--prime", "13"]) == 0


def test_cone_degenerate_all_cases(capsys):
    for case in ("general", "1", "2", "3", "4", "deg1", "exP"):
        assert run(["cone", "degenerate", "--case", case]) == 0
    out = capsys.readouterr().out
    assert "normalization P2" in out
    assert "normalization Enriques-4-nodes" in out


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


def test_bad_usage_exits_2():
    assert run([]) == 2
    assert run(["cover"]) == 2
    assert run(["cover", "lift"]) == 2
    assert run(["nope"]) == 2
