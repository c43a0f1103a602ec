"""Benchmark of the godeaux command line, run in process.

    python3 perfbench/run.py --workload certify-p13 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation calls ``godeaux.cli.main(argv)`` in this process, in a closed
loop with one client: the next op starts when the previous one has returned
and been checked.  Stdout is captured and ``--output`` names a file in the
work directory, so argument parsing, the retry loop and report serialization
are all inside the timed call.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
fresh interpreters), then ops for ``--seconds`` of op time: the loop stops
before an op that would end past it at the mean op time so far.  Op times
are scaled to a nominal machine speed (see calibration.py).
``--trace 1`` runs each op of a fixed, seed-determined list three times
(traced, untraced, traced) and reports per-module self time and counters;
the two traced runs must give equal counters.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Run from the repository root; the package is imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, Calibration  # noqa: E402
from tracing import TRACED_FUNCTIONS, EXACT_RANK_CALLERS, Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS, Op, expected_exit  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
CALIBRATE_EVERY_S = 0.25  # of op time, between two calibration samples
MIN_CALIBRATION_SAMPLES = 20
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import godeaux.cli as c; "
    "sys.exit(c.main(sys.argv[2:]))"
)


# ---------------------------------------------------------------------------
# running and judging one op


class Outcome(NamedTuple):
    wall: float  # s
    cpu: float  # s of process CPU time
    code: Optional[int]  # exit code, None when the call raised
    error: Optional[str]  # the exception the call raised
    output: Optional[bytes]  # the canonical JSON it wrote


def run_op(cli, op: Op, out_path: str) -> Outcome:
    """One timed call of cli.main; the canonical JSON it wrote is read back
    after the clock stops."""
    if os.path.exists(out_path):
        os.remove(out_path)
    sink = io.StringIO()
    code, error = None, None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op.argv + ["--output", out_path])
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    output = None
    if error is None and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            output = fh.read()
    return Outcome(wall, cpu, code, error, output)


class Verdict(NamedTuple):
    failed: Optional[str]  # why the op failed, None when it did not
    wrong: bool  # whether a wrong answer was returned
    alternative: Optional[str]  # the other correct outcome the op gave


def judge(op: Op, res: Outcome) -> Verdict:
    """Raising is a failure; a wrong status or exit code, or wrong report
    data, is also a wrong answer, unless the op names the statuses as
    another correct outcome."""
    if res.error is not None:
        return Verdict(f"raised {res.error}", False, None)
    if res.output is None:
        return Verdict(f"exit {res.code} and no report file", True, None)
    reports = json.loads(res.output)
    statuses = [r.get("status") for r in reports]
    if res.code != expected_exit(statuses):
        return Verdict(f"exit {res.code} disagrees with statuses {statuses}", True, None)
    if len(statuses) != len(op.statuses) or any(
        s not in allowed for s, allowed in zip(statuses, op.statuses)
    ):
        other = op.alternative(reports) if op.alternative else None
        if other is None:
            return Verdict(f"statuses {statuses}, expected {list(op.statuses)}", True, None)
        return Verdict(None, False, other)
    if op.extra is not None:
        why = op.extra(reports)
        if why is not None:
            return Verdict(why, True, None)
    return Verdict(None, False, None)


def draw_counters(output: Optional[bytes]) -> Tuple[int, int]:
    """(attempts, discarded draws) from the verify provenance: one entry per
    (prime, draw)."""
    if not output:
        return 0, 0
    per_draw = {}
    for rep in json.loads(output):
        prov = rep.get("provenance", {})
        if "attempts" in prov:
            per_draw[(rep.get("prime"), prov.get("draw"))] = prov["attempts"]
    attempts = sum(per_draw.values())
    return attempts, attempts - len(per_draw)


class Tally:
    """Op outcomes of one pass."""

    def __init__(self):
        self.walls: List[float] = []
        self.busy = 0.0
        self.cpus: List[float] = []
        self.failed = 0
        self.wrong = 0
        self.digests: List[Optional[str]] = []
        self.attempts = 0
        self.discarded = 0
        self.failures: Dict[str, int] = {}
        self.alternatives: Dict[str, int] = {}

    def add(self, op: Op, res: Outcome) -> None:
        self.walls.append(res.wall)
        self.busy += res.wall
        self.cpus.append(res.cpu)
        verdict = judge(op, res)
        if verdict.failed is not None:
            self.failed += 1
            self.wrong += verdict.wrong
            key = f"{op.kind}: {verdict.failed}"[:160]
            self.failures[key] = self.failures.get(key, 0) + 1
        if verdict.alternative is not None:
            key = f"{op.kind}: {verdict.alternative}"
            self.alternatives[key] = self.alternatives.get(key, 0) + 1
        self.digests.append(
            hashlib.sha256(res.output).hexdigest() if res.output else None
        )
        a, d = draw_counters(res.output)
        self.attempts += a
        self.discarded += d


# ---------------------------------------------------------------------------
# measurements


def measure_setup(op: Op, work: Path) -> Tuple[List[float], List[int]]:
    """Wall times and exit codes of fresh interpreters that import
    godeaux.cli and complete one op."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = op.argv + ["--output", str(work / "setup.json")]
    times, codes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
            cwd=str(ROOT), timeout=150,
        )
        times.append(time.perf_counter() - t0)
        codes.append(proc.returncode)
    return times, codes


def percentile(values: List[float], q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(cli, workload, seed: int, seconds: float, work: Path):
    metrics: Dict[str, Tuple[float, str, int]] = {}
    problems: List[str] = []
    setup_op = workload.setup_op(seed, str(work))
    setup, codes = measure_setup(setup_op, work)
    metrics["setup_s"] = (statistics.median(setup), "s", len(setup))

    out = str(work / "op.json")
    for op in workload.warmup(seed, str(work)):  # first-call costs
        run_op(cli, op, out)
    stream = workload.stream(seed, str(work))
    ops: List[Op] = []
    tally = Tally()
    cal = Calibration()
    next_sample = CALIBRATE_EVERY_S
    # stop before an op that would, at the mean op time so far, end past
    # --seconds of op time; a certify-p61 run therefore holds one member
    while not ops or tally.busy * (len(ops) + 1) / len(ops) <= seconds:
        op = next(stream)
        ops.append(op)
        tally.add(op, run_op(cli, op, out))
        if tally.busy >= next_sample:
            cal.sample(tally.busy)
            next_sample = tally.busy + CALIBRATE_EVERY_S

    # the peak of the timed ops, before the checks below run ops of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # determinism: re-run one sampled op, compare canonical JSON bytes; an
    # op longer than a quarter of the run is left to the traced run, which
    # runs every op of its list three times
    pick = random.Random(f"rerun:{seed}").randrange(len(ops))
    if tally.walls[pick] <= seconds / 4:
        again = run_op(cli, ops[pick], out)
        digest = hashlib.sha256(again.output).hexdigest() if again.output else None
        if digest != tally.digests[pick]:
            problems.append(f"re-run of op {pick} ({ops[pick].kind}) gave different JSON")

    # the set-up op must end as it does in process (checked last, so that
    # it leaves no trace in this process's heap before the timed ops)
    ref = run_op(cli, setup_op, out)
    if any(code != ref.code for code in codes) or ref.error:
        problems.append(f"set-up op {setup_op.argv} exited {codes}, in process "
                        f"{ref.code} {ref.error or ''}")

    # each op is scaled by the snippet timed around its midpoint on the
    # clock of op time, when the snippet was sampled often enough while the
    # ops ran: a run of a few long ops (certify-p61) stays unscaled
    n = len(tally.walls)
    if len(cal.samples) >= MIN_CALIBRATION_SAMPLES:
        ends = list(itertools.accumulate(tally.walls))
        scales = [cal.scale_at(end - w / 2) for end, w in zip(ends, tally.walls)]
        overall = sum(w * f for w, f in zip(tally.walls, scales)) / tally.busy
        notes = [f"op times scaled by {overall:.4f} overall: "
                 f"{len(cal.samples)} calibration samples, median "
                 f"{statistics.median(cal.samples) * 1000:.3f} ms, nominal "
                 f"{REFERENCE_S * 1000:g} ms"]
    else:
        scales = [1.0] * n
        notes = [f"op times not scaled: {len(cal.samples)} calibration samples "
                 f"between ops, fewer than {MIN_CALIBRATION_SAMPLES}"]
    walls = [w * f for w, f in zip(tally.walls, scales)]
    lat_ms = [w * 1000 for w in walls]
    metrics["throughput_ops_per_s"] = (n / sum(walls), "1/s", n)
    metrics["latency_p50_ms"] = (statistics.median(lat_ms), "ms", n)
    metrics["latency_p95_ms"] = (percentile(lat_ms, 95), "ms", n)
    metrics["cpu_ms_per_op"] = (
        sum(c * f for c, f in zip(tally.cpus, scales)) * 1000 / n, "ms", n)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    if n < 200:
        notes.append(f"latency_p95_ms rests on {n} ops (fewer than 10 beyond p95)")
    return metrics, tally, problems, notes


def run_probe(cli, workload, seed: int, work: Path) -> Tuple[List[str], List[str]]:
    """(problems, notes) of the workload's known-defect probe.

    The probe op is neither timed nor counted.  Raising is the known defect
    and gives a note; any other wrong outcome is a wrong answer."""
    if workload.probe is None:
        return [], []
    op = workload.probe(seed, str(work))
    res = run_op(cli, op, str(work / "probe.json"))
    verdict = judge(op, res)
    if verdict.wrong:
        return [f"probe {op.kind}: {verdict.failed}"], []
    if verdict.failed is not None:
        want = [allowed[0] for allowed in op.statuses]
        return [], [f"known defect, not counted: probe {op.kind} {verdict.failed}; "
                    f"expected statuses {want}, exit {expected_exit(want)}"]
    return [], [f"probe {op.kind} gave the expected outcome"]


def layer_metrics(stats: Dict[str, Dict[str, int]], tally: Tally) -> Dict[str, float]:
    """Per-module values of one traced pass."""
    m: Dict[str, float] = {}

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    names = [f"{mod}.{fn}" for mod, fn in TRACED_FUNCTIONS]
    names += [f"scalars.exact_rank.{c}" for c in EXACT_RANK_CALLERS]
    names.append("wpoly.WPoly.evaluate")
    for name in names:
        m[f"{name}.self_ms"] = get(name, "self_ns") / 1e6
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("varieties.enumerate_points", "varieties.fixed_locus"):
        m[f"{name}.scanned"] = get(name, "scanned")
        m[f"{name}.found"] = get(name, "found")
    scanned = get("varieties.enumerate_points", "scanned")
    m["varieties.enumerate_points.ns_per_scanned"] = (
        get("varieties.enumerate_points", "self_ns") / scanned if scanned else 0.0)
    m["varieties.found_per_scanned"] = (
        get("varieties.enumerate_points", "found") / scanned if scanned else 0.0)
    m["reports.reports_to_json.bytes"] = get("reports.reports_to_json", "bytes")
    m["abelian.subgroup_span.elements"] = get("abelian.subgroup_span", "elements")
    m["cli.attempts"] = tally.attempts
    m["cli.discarded_draws"] = tally.discarded
    return m


# the per-module metrics a traced run prints, in BENCHMARK.json's order
PER_LAYER = (
    "varieties.enumerate_points.self_ms",
    "varieties.enumerate_points.calls",
    "varieties.enumerate_points.scanned",
    "varieties.enumerate_points.found",
    "varieties.enumerate_points.ns_per_scanned",
    "varieties.fixed_locus.self_ms",
    "varieties.fixed_locus.calls",
    "varieties.fixed_locus.scanned",
    "varieties.fixed_locus.found",
    "varieties.found_per_scanned",
    "varieties.check_quasi_smooth.self_ms",
    "scalars.exact_rank.varieties.self_ms",
    "scalars.exact_rank.varieties.calls",
    "wpoly.WPoly.evaluate.self_ms",
    "wpoly.WPoly.evaluate.calls",
    "varieties.check_free_action.self_ms",
    "varieties.sigma_fixed_components.self_ms",
    "family.build_family.self_ms",
    "family.build_family.calls",
    "family.random_params.self_ms",
    "cli.attempts",
    "cli.discarded_draws",
    "grouprep.sigma_type.self_ms",
    "grouprep.sigma_type.calls",
    "family.sigma_table.self_ms",
    "scalars.exact_rank.grouprep.self_ms",
    "scalars.exact_rank.grouprep.calls",
    "wpoly.apply_map.self_ms",
    "wpoly.jacobian.self_ms",
    "cone.verify_invariant_map.self_ms",
    "cone.classify_degeneration.self_ms",
    "cone.intersection_count.self_ms",
    "cone.tau_fixed_points.self_ms",
    "cone.pencil_report.self_ms",
    "scalars.exact_rank.cone.self_ms",
    "covers.even_node_set.self_ms",
    "covers.enriques_arithmetic.self_ms",
    "covers.validate.self_ms",
    "covers.classify_lift.self_ms",
    "covers.double_invariants.self_ms",
    "snf.smith_normal_form.self_ms",
    "snf.smith_normal_form.calls",
    "snf.solve_lattice_membership.self_ms",
    "snf.solve_lattice_membership.calls",
    "abelian.is_two_divisible.self_ms",
    "abelian.subgroup_span.self_ms",
    "abelian.subgroup_span.elements",
    "groups.abelian_label.self_ms",
    "groups.generated_group.self_ms",
    "groups.classify_order8.self_ms",
    "reports.reports_to_json.self_ms",
    "reports.reports_to_json.bytes",
    "cli.main.self_ms",
    "trace.overhead_ratio",
)

EXACT_SUFFIXES = (".calls", ".scanned", ".found", ".bytes", ".elements")
EXACT_NAMES = ("cli.attempts", "cli.discarded_draws")


def traced_run(cli, workload, seed: int, seconds: float, work: Path, spans_path: Path):
    """One fixed op list, each op run traced, untraced and traced again.

    Interleaving the three runs of an op exposes them to the same load, so
    their ratio is the tracing overhead; the two traced runs must give
    equal counters."""
    problems: List[str] = []
    count = max(1, int(seconds / 3 / workload.nominal_op_s))
    stream = workload.stream(seed, str(work))
    ops = [next(stream) for _ in range(count)]
    out = str(work / "op.json")
    for op in workload.warmup(seed, str(work)):
        run_op(cli, op, out)

    tracer_a, tracer_b = Tracer(), Tracer()
    first, plain, second = Tally(), Tally(), Tally()
    for i, op in enumerate(ops):
        for tracer, tally in ((tracer_a, first), (None, plain), (tracer_b, second)):
            with tracer.installed(i) if tracer else contextlib.nullcontext():
                tally.add(op, run_op(cli, op, out))
    write_spans(str(spans_path), tracer_a.spans)

    a = layer_metrics(tracer_a.stats, first)
    b = layer_metrics(tracer_b.stats, second)
    for name in a:
        if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES:
            if a[name] != b[name]:
                problems.append(f"counter {name} differs between passes: {a[name]} != {b[name]}")
    for i, op in enumerate(ops):
        if not plain.digests[i] == first.digests[i] == second.digests[i]:
            problems.append(f"op {i} ({op.kind}) gave different JSON across passes")
    a["trace.overhead_ratio"] = (first.busy + second.busy) / 2 / plain.busy
    metrics: Dict[str, Tuple[float, str, int]] = {}
    for name in PER_LAYER:
        value = a[name]
        if name.endswith((".self_ms", ".ns_per_scanned")):
            value = (value + b[name]) / 2
        metrics[name] = (value, unit_of(name), len(ops))
    return metrics, [plain, first, second], problems


def unit_of(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith(".ns_per_scanned"):
        return "ns"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_per_scanned"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point


def import_cli():
    """godeaux.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "godeaux" / "cli.py").is_file():
        raise ImportError(f"no godeaux sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import godeaux
    import godeaux.cli

    if Path(godeaux.__file__).resolve().parent != (SRC / "godeaux").resolve():
        raise ImportError(f"godeaux imported from {godeaux.__file__}, not {SRC}")
    return godeaux.cli


def report(workload: str, seed: int, trace: int, correct: bool, attempted: int,
           failed: int, metrics, failures: Dict[str, int], notes: List[str]) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"correct {'yes' if correct else 'NO'}  attempted {attempted}  failed {failed}")
    for why, count in sorted(failures.items()):
        print(f"  failed x{count}: {why}")
    for note in notes:
        print(f"  note: {note}")
    width = max(len(k) for k in metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }), flush=True)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT),
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import godeaux: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("GODEAUX_PRIMES", None)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
            metrics, tallies, problems = traced_run(
                cli, workload, args.seed, args.seconds, work, spans_path)
            notes = [f"spans: {spans_path.relative_to(ROOT)}"]
        else:
            metrics, tally, problems, notes = timed_run(
                cli, workload, args.seed, args.seconds, work)
            tallies = [tally]
        probe_problems, probe_notes = run_probe(cli, workload, args.seed, work)
        problems += probe_problems
        notes += probe_notes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(t.walls) for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    failures: Dict[str, int] = {}
    for t in tallies:
        for why, count in t.failures.items():
            failures[why] = failures.get(why, 0) + count
    for problem in problems:
        failures[problem] = failures.get(problem, 0) + 1
    for t in tallies:
        for what, count in sorted(t.alternatives.items()):
            notes.append(f"x{count} {what}")
    correct = wrong == 0 and not problems
    report(args.workload, args.seed, args.trace, correct, attempted, failed,
           metrics, failures, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
