"""Check reports with a canonical serialized form.

Reports from identical (seed, config, version) runs must be byte-identical,
so the canonical JSON excludes wall-clock timing; elapsed milliseconds are
still carried on the object for console display.  Status values:

  pass    computed and the claim holds
  fail    computed and the claim does not hold
  error   the inputs never produced a well-posed check
  lookup  transcribed verdict, recorded rather than computed
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from . import __version__

STATUSES = ("pass", "fail", "error", "lookup")


@dataclass
class CheckReport:
    check: str
    status: str
    prime: Optional[int] = None
    witness: Any = None
    points_scanned: Optional[int] = None
    elapsed_ms: Optional[float] = None
    notes: Tuple[str, ...] = ()
    data: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"status {self.status!r} not in {STATUSES}")
        self.notes = tuple(self.notes)
        self.provenance.setdefault("version", __version__)

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "lookup")

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "check": self.check,
            "status": self.status,
            "provenance": dict(sorted(self.provenance.items())),
        }
        if self.prime is not None:
            d["prime"] = self.prime
        if self.witness is not None:
            d["witness"] = self.witness
        if self.points_scanned is not None:
            d["points_scanned"] = self.points_scanned
        if self.notes:
            d["notes"] = list(self.notes)
        if self.data:
            d["data"] = self.data
        return d

    def console_line(self) -> str:
        parts = [f"[{self.status.upper():5s}]", self.check]
        if self.prime is not None:
            parts.append(f"p={self.prime}")
        if self.points_scanned is not None:
            parts.append(f"scanned={self.points_scanned}")
        if self.elapsed_ms is not None:
            parts.append(f"{self.elapsed_ms:.0f}ms")
        return " ".join(parts)


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def config_hash(config: Any) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return canonical_json([r.to_dict() for r in reports])


def exit_code(reports: Sequence[CheckReport]) -> int:
    """0 when every check passed, 1 on any failed check, 2 on any error."""
    if any(r.status == "error" for r in reports):
        return 2
    if any(r.status == "fail" for r in reports):
        return 1
    return 0
