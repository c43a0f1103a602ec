"""Spans around calls into godeaux's modules, recorded from outside the package.

The tracer wraps public functions of the godeaux modules and rebinds every
module attribute that refers to the original function, so calls made through
names re-exported by ``from .x import f`` (cli, cone, varieties, grouprep,
family, ...) are caught as well as calls through the defining module.
``scalars.exact_rank`` is wrapped once per importing module, so its time is
split by caller.  Spans (op id, name, start, end, parent) are kept in memory
and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from typing import Callable, Dict, List, Tuple

# (defining module, function) pairs; the span name is "<module>.<function>"
TRACED_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("varieties", "enumerate_points"),
    ("varieties", "fixed_locus"),
    ("varieties", "check_quasi_smooth"),
    ("varieties", "check_free_action"),
    ("varieties", "sigma_fixed_components"),
    ("family", "build_family"),
    ("family", "random_params"),
    ("family", "sigma_table"),
    ("grouprep", "sigma_type"),
    ("wpoly", "apply_map"),
    ("wpoly", "jacobian"),
    ("cone", "verify_invariant_map"),
    ("cone", "classify_degeneration"),
    ("cone", "intersection_count"),
    ("cone", "tau_fixed_points"),
    ("cone", "pencil_report"),
    ("covers", "even_node_set"),
    ("covers", "enriques_arithmetic"),
    ("covers", "validate"),
    ("covers", "classify_lift"),
    ("covers", "double_invariants"),
    ("snf", "smith_normal_form"),
    ("snf", "solve_lattice_membership"),
    ("abelian", "is_two_divisible"),
    ("abelian", "subgroup_span"),
    ("groups", "abelian_label"),
    ("groups", "generated_group"),
    ("groups", "classify_order8"),
    ("reports", "reports_to_json"),
)

# modules whose own ``exact_rank`` binding gets a wrapper of its own
EXACT_RANK_CALLERS = ("varieties", "grouprep", "cone")

MODULES = (
    "scalars", "wpoly", "reports", "snf", "abelian", "groups", "grouprep",
    "family", "varieties", "covers", "cone", "cli",
)


def _point_counts(stats, result) -> None:
    stats["scanned"] = stats.get("scanned", 0) + result.scanned
    stats["found"] = stats.get("found", 0) + len(result)


def _json_bytes(stats, result) -> None:
    stats["bytes"] = stats.get("bytes", 0) + len(result.encode("utf-8"))


def _span_elements(stats, result) -> None:
    stats["elements"] = stats.get("elements", 0) + len(result)


# counters read off the value a traced call returns
RESULT_COUNTERS: Dict[str, Callable] = {
    "varieties.enumerate_points": _point_counts,
    "varieties.fixed_locus": _point_counts,
    "reports.reports_to_json": _json_bytes,
    "abelian.subgroup_span": _span_elements,
}


class Tracer:
    """Installs wrappers, records spans and aggregates self time per name.

    Self time is a span's duration minus the durations of its direct child
    spans; calls are single-threaded, so children never overlap.
    """

    def __init__(self):
        self.op_id = -1
        self.spans: List[Tuple[int, str, int, int, int]] = []
        self.stats: Dict[str, Dict[str, int]] = {}
        self._stack: List[List[int]] = []  # [span index, child ns]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = RESULT_COUNTERS.get(name)
        stats = self.stats.setdefault(name, {"calls": 0, "self_ns": 0})
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (self.op_id, name, start, end, parent)
                stats["calls"] += 1
                stats["self_ns"] += duration - frame[1]
            if counter is not None:
                counter(stats, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Wrappers in place for the calls of one op."""
        self.op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        mods = {m: importlib.import_module(f"godeaux.{m}") for m in MODULES}
        for mod_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods.values():
                if getattr(mod, fn_name, None) is original:
                    self._rebind(mod, fn_name, wrapper)
        original = mods["scalars"].exact_rank
        for caller in EXACT_RANK_CALLERS:
            if getattr(mods[caller], "exact_rank", None) is original:
                wrapper = self._wrap(f"scalars.exact_rank.{caller}", original)
                self._rebind(mods[caller], "exact_rank", wrapper)
        wpoly_cls = mods["wpoly"].WPoly
        self._rebind(
            wpoly_cls, "evaluate",
            self._wrap("wpoly.WPoly.evaluate", wpoly_cls.evaluate),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def write_spans(path: str, spans) -> None:
    """One tab-separated line per span: index, op id, name, start, end (ns
    from the first span), parent index (-1 at an op's root)."""
    base_ns = spans[0][2] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index\top\tname\tstart_ns\tend_ns\tparent\n")
        for index, (op, name, start, end, parent) in enumerate(spans):
            fh.write(
                f"{index}\t{op}\t{name}\t{start - base_ns}\t{end - base_ns}\t{parent}\n"
            )
