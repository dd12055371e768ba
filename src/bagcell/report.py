"""Run traces, campaign reports, table rendering, and safety scans.

A trace is an append-only JSONL stream: one record per line with a version
tag, a globally monotone sequence number and a non-decreasing timestamp.
Bus messages, device commands and events, fault decisions, phase marks and
invariant violations all land in the same stream, so a trace alone is enough
to audit interlock ordering after the fact.

Reports aggregate a campaign into per-test rows (detected / picked / placed
/ duration) plus means and percentage rates. All serialization sorts keys
and rounds floats the same way, so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from bagcell.config import ENCLOSURE_COUNT

TRACE_VERSION = 1
# One encoder for every trace line; json.dumps with options builds a new one per call.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class MalformedTrace(ValueError):
    def __init__(self, path: str, line_no: Optional[int], reason: str):
        self.path = path
        self.line_no = line_no
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {reason}")


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    time: float
    kind: str
    data: Dict[str, Any]

    def to_line(self) -> str:
        payload = {
            "v": TRACE_VERSION,
            "seq": self.seq,
            "t": round(self.time, 9),
            "kind": self.kind,
            "data": self.data,
        }
        return _LINE_ENCODER.encode(payload)


class Tracer:
    """Collects trace records with monotone seq and non-decreasing time."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._next_seq = 0
        self._last_time = 0.0

    def record(self, kind: str, time: float, data: Dict[str, Any]) -> TraceRecord:
        if time < self._last_time - 1e-12:
            raise ValueError(
                f"trace time went backwards: {time} after {self._last_time}"
            )
        self._last_time = max(self._last_time, time)
        rec = TraceRecord(seq=self._next_seq, time=time, kind=kind, data=data)
        self._next_seq += 1
        self.records.append(rec)
        return rec


def write_trace(path: str | Path, records: Sequence[TraceRecord]) -> None:
    lines = [r.to_line() for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_trace(path: str | Path) -> List[TraceRecord]:
    p = Path(path)
    out: List[TraceRecord] = []
    prev_seq = -1
    prev_time = 0.0
    for line_no, raw in enumerate(p.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedTrace(str(p), line_no, f"invalid JSON: {exc}")
        if obj.get("v") != TRACE_VERSION:
            raise MalformedTrace(str(p), line_no, f"unsupported version {obj.get('v')!r}")
        for key in ("seq", "t", "kind", "data"):
            if key not in obj:
                raise MalformedTrace(str(p), line_no, f"missing field {key!r}")
        if obj["seq"] != prev_seq + 1:
            raise MalformedTrace(
                str(p), line_no, f"sequence gap: {prev_seq} -> {obj['seq']}"
            )
        if obj["t"] < prev_time - 1e-9:
            raise MalformedTrace(
                str(p), line_no, f"timestamp regression: {prev_time} -> {obj['t']}"
            )
        prev_seq = obj["seq"]
        prev_time = obj["t"]
        out.append(
            TraceRecord(seq=obj["seq"], time=obj["t"], kind=obj["kind"], data=obj["data"])
        )
    return out


# --- reports --------------------------------------------------------------


@dataclass
class RunReport:
    """Outcome of one test run (a fixed number of feeding cycles)."""

    test_index: int
    seed: int
    cycles: int
    stacks_offered: int
    detected: int
    picked: int
    placed: int
    delivered: int
    failed_unhandled: int
    duration_s: float
    phase_durations_s: Dict[str, float] = field(default_factory=dict)
    violations: int = 0
    pusher_stalls: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def duration_min(self) -> float:
        return self.duration_s / 60.0

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["duration_s"] = round(self.duration_s, 6)
        d["phase_durations_s"] = {
            k: round(v, 6) for k, v in sorted(self.phase_durations_s.items())
        }
        return d


@dataclass
class CampaignReport:
    runs: List[RunReport]
    seed: int
    config_digest: str
    mean_detected: float = 0.0
    mean_picked: float = 0.0
    mean_placed: float = 0.0
    detected_rate_pct: float = 0.0
    picked_rate_pct: float = 0.0
    placed_rate_pct: float = 0.0
    mean_duration_min: float = 0.0
    unconsumed_script_entries: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "tests": [r.to_dict() for r in self.runs],
            "mean_detected": round(self.mean_detected, 6),
            "mean_picked": round(self.mean_picked, 6),
            "mean_placed": round(self.mean_placed, 6),
            "detected_rate_pct": round(self.detected_rate_pct, 6),
            "picked_rate_pct": round(self.picked_rate_pct, 6),
            "placed_rate_pct": round(self.placed_rate_pct, 6),
            "mean_duration_min": round(self.mean_duration_min, 6),
            "unconsumed_script_entries": self.unconsumed_script_entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def config_digest(config_json: str) -> str:
    return hashlib.sha256(config_json.encode()).hexdigest()[:16]


def summarize_campaign(
    runs: Sequence[RunReport],
    seed: int,
    digest: str,
    unconsumed_script_entries: int = 0,
) -> CampaignReport:
    n = len(runs)
    if n == 0:
        raise ValueError("campaign has no runs")
    offered = sum(r.stacks_offered for r in runs)
    rep = CampaignReport(
        runs=list(runs),
        seed=seed,
        config_digest=digest,
        unconsumed_script_entries=unconsumed_script_entries,
    )
    rep.mean_detected = sum(r.detected for r in runs) / n
    rep.mean_picked = sum(r.picked for r in runs) / n
    rep.mean_placed = sum(r.placed for r in runs) / n
    if offered > 0:
        rep.detected_rate_pct = 100.0 * sum(r.detected for r in runs) / offered
        rep.picked_rate_pct = 100.0 * sum(r.picked for r in runs) / offered
        rep.placed_rate_pct = 100.0 * sum(r.placed for r in runs) / offered
    rep.mean_duration_min = sum(r.duration_min for r in runs) / n
    return rep


def render_table(report: CampaignReport, fmt: str = "markdown") -> str:
    """Per-test results table with mean and rate rows.

    Counts are integers, rates are percentages with two decimals, durations
    are minutes with one decimal.
    """
    header = ["Test", "Detected", "Picked", "Placed", "Time (min)"]
    rows: List[List[str]] = []
    for r in report.runs:
        rows.append(
            [
                str(r.test_index + 1),
                str(r.detected),
                str(r.picked),
                str(r.placed),
                f"{r.duration_min:.1f}",
            ]
        )
    rows.append(
        [
            "Mean",
            f"{report.mean_detected:.2f}",
            f"{report.mean_picked:.2f}",
            f"{report.mean_placed:.2f}",
            f"{report.mean_duration_min:.1f}",
        ]
    )
    rows.append(
        [
            "Rate (%)",
            f"{report.detected_rate_pct:.2f}",
            f"{report.picked_rate_pct:.2f}",
            f"{report.placed_rate_pct:.2f}",
            "",
        ]
    )
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join(["---"] * len(header)) + "|",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


# --- trace-based safety auditing -----------------------------------------


def scan_violations(records: Sequence[TraceRecord]) -> List[TraceRecord]:
    return [r for r in records if r.kind == "violation"]


def audit_interlocks(records: Sequence[TraceRecord]) -> List[str]:
    """Re-derive device state from a trace and check interlock ordering.

    Returns a list of human-readable problems (empty when the trace is
    clean): cutter starts without every bottom line secured, and pusher
    extensions while the door is not open.
    """
    problems: List[str] = []
    secured: set[str] = set()
    door_open = False
    for rec in records:
        d = rec.data
        if rec.kind == "device_event":
            name = d.get("device", "")
            ev = d.get("event")
            if ev == "secured":
                secured.add(name)
            elif ev == "lost":
                secured.discard(name)
            elif ev == "done" and name == "door":
                door_open = d.get("op") == "extend"
        elif rec.kind == "device_cmd":
            name = d.get("device", "")
            op = d.get("op")
            if name == "door":
                # door state is unknown while moving
                door_open = False
            if name == "cutter" and op == "extend":
                n = sum(1 for s in secured if s.startswith("bottom_"))
                if n != ENCLOSURE_COUNT:
                    problems.append(
                        f"seq {rec.seq}: cutter started with {n}/{ENCLOSURE_COUNT} "
                        "bottom lines secured"
                    )
            if name.startswith("pusher_") and op == "extend" and not door_open:
                problems.append(f"seq {rec.seq}: {name} extended while door not open")
    return problems


def audit_retry_caps(records: Sequence[TraceRecord], caps: Dict[str, int]) -> List[str]:
    """Check that no action context exceeded its configured attempt cap."""
    problems: List[str] = []
    for rec in records:
        if rec.kind != "fault_decision":
            continue
        d = rec.data
        action = d.get("action", "")
        if action not in caps:
            continue
        attempt = d.get("attempt", 1)
        if attempt > caps[action]:
            problems.append(
                f"seq {rec.seq}: {action} attempt {attempt} exceeds cap {caps[action]}"
            )
    return problems
