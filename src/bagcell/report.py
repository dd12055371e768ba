"""Run traces, campaign reports, table rendering, and safety scans.

A trace is an append-only JSONL stream: one record per line with a version
tag, a globally monotone sequence number and a finite, non-decreasing timestamp.
Published messages, device commands and events, fault decisions, phase marks and
invariant violations all land in the same stream, so a trace alone is enough
to audit interlock ordering after the fact, and to read the run's report.
Reading a trace back checks each line's envelope and the payload fields those
readers index, so a hand-edited line fails with its line number and field
instead of crashing an audit. The file is read and parsed by the rule of
every input file (``config.read_text``, ``config.parse_json``), so a trace
is rejected with the reasons a config, fault-script or box file would be.

Every line is built by ``_line`` from one envelope template, with its keys in
sorted order, and one JSON encoder made at import encodes the payload; a
time is formatted once for the consecutive records that share it. A
line is parsed by the decoder's scanner alone when the scan ends at the end of
the line; any other line goes through ``parse_json``, which either accepts it
(padding whitespace) or names the line and the reason.

Reports aggregate a campaign into per-test rows (detected / picked / placed
/ duration), each read off its run's trace, plus means and percentage rates.
All serialization sorts keys and rounds floats the same way, so identical
runs produce byte-identical files.
"""

import functools
import json
import sys
from collections import defaultdict
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from bagcell.config import ENCLOSURE_COUNT, MalformedInput, parse_json, read_text

TRACE_VERSION = 1
# One C encoder for every trace value, with the options of
# json.dumps(sort_keys=True, separators=(",", ":")); JSONEncoder.encode builds
# a new one per call. No circular-reference markers: a payload holds no cycles,
# and a cyclic one fails with RecursionError instead of ValueError.
_ENCODE = c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,  # raises TypeError for a value JSON has no form for
    encode_basestring_ascii,
    None,  # indent
    ":",
    ",",
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)
# The decoder's scanner parses one JSON value from a given index; json.loads
# wraps it in whitespace skipping, an end check and the error reasons.
_SCAN = json.JSONDecoder().scan_once
_FLOAT_MAX = sys.float_info.max

# Payload fields the trace readers index, by record kind: (field, type, required).
# A field that is not required has a default where it is read; if present, it
# must still have its type. A ``session_done`` note must also carry ``cycles``.
PAYLOAD_FIELDS: Dict[str, Tuple[Tuple[str, type, bool], ...]] = {
    "outcome": (("kind", str, True), ("stack", int, True)),
    "stack": (("stack", int, True), ("state", str, True)),
    "phase": (("phase", str, True), ("edge", str, True)),
    "fault_decision": (("action", str, True), ("outcome", str, True), ("attempt", int, False)),
    "note": (("text", str, True), ("cycles", int, False)),
    "device_event": (("device", str, False), ("event", str, False), ("op", str, False)),
    "device_cmd": (("device", str, False), ("op", str, False)),
}
_ABSENT = object()


class MalformedTrace(MalformedInput):
    """A trace that cannot be read, or a line of it that is not a record."""


class TraceRecord(NamedTuple):
    """One trace line. A tuple, because a cycle builds hundreds of them.

    The tracer and the reader build it with ``tuple.__new__``, which skips the
    NamedTuple's Python-level ``__new__``; ``TraceRecord(...)`` is the same value.
    """

    seq: int
    time: float
    kind: str
    data: Dict[str, Any]

    def to_line(self) -> str:
        return _line(self, _time_text(self.time))


def _time_text(time: float) -> str:
    return "".join(_ENCODE(round(time, 9), 0))


def _line(rec: TraceRecord, time_text: str) -> str:
    """``rec`` as json.dumps writes its envelope with sorted keys, no spaces."""
    return (
        f'{{"data":{"".join(_ENCODE(rec.data, 0))},"kind":{encode_basestring_ascii(rec.kind)},'
        f'"seq":{rec.seq},"t":{time_text},"v":{TRACE_VERSION}}}'
    )


class Tracer:
    """Collects trace records with monotone seq and non-decreasing time."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._last_time = 0.0

    def record(self, kind: str, time: float, data: Dict[str, Any]) -> TraceRecord:
        if time < self._last_time - 1e-12:
            raise ValueError(
                f"trace time went backwards: {time} after {self._last_time}"
            )
        if time > self._last_time:
            self._last_time = time
        rec = tuple.__new__(TraceRecord, (len(self.records), time, kind, data))
        self.records.append(rec)
        return rec


def write_trace(path: str | Path, records: Sequence[TraceRecord]) -> None:
    lines = []
    last_time = time_text = None
    for rec in records:
        # Records of one instant share its float; equal times need not share a
        # text (0.0 and -0.0, 1 and 1.0), so reuse it only for the same object.
        if rec.time is not last_time:
            last_time, time_text = rec.time, _time_text(rec.time)
        lines.append(_line(rec, time_text))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_trace(path: str | Path) -> List[TraceRecord]:
    where = str(path)
    text = read_text(path, functools.partial(MalformedTrace, where, None))
    out: List[TraceRecord] = []
    prev_seq = -1
    prev_time = 0.0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        try:
            obj, end = _SCAN(raw, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(raw):  # blank, padded or malformed
            if not raw.strip():
                continue
            obj = parse_json(raw, functools.partial(MalformedTrace, where, line_no))
        if type(obj) is not dict:
            raise MalformedTrace(where, line_no, "record is not a JSON object")
        v = obj.get("v")
        if type(v) is not int or v != TRACE_VERSION:
            raise MalformedTrace(where, line_no, f"unsupported version {v!r}")
        try:
            seq, t, kind, data = obj["seq"], obj["t"], obj["kind"], obj["data"]
        except KeyError as exc:
            raise MalformedTrace(where, line_no, f"missing field {exc.args[0]!r}")
        if type(seq) is not int:  # a bool is no int
            raise MalformedTrace(where, line_no, "field 'seq' is not int")
        if type(kind) is not str:
            raise MalformedTrace(where, line_no, "field 'kind' is not str")
        if type(data) is not dict:
            raise MalformedTrace(where, line_no, "field 'data' is not dict")
        if seq != prev_seq + 1:
            raise MalformedTrace(where, line_no, f"sequence gap: {prev_seq} -> {seq}")
        if type(t) is not float and type(t) is not int:  # a bool is not a time
            raise MalformedTrace(where, line_no, f"timestamp is not a number: {t!r}")
        if not prev_time - 1e-9 <= t <= _FLOAT_MAX:  # also False for NaN
            if not abs(t) <= _FLOAT_MAX:  # NaN, infinity or an int too large for a float
                raise MalformedTrace(where, line_no, f"timestamp is not a finite number: {t!r}")
            raise MalformedTrace(
                where, line_no, f"timestamp regression: {prev_time} -> {t}"
            )
        for key, want, required in PAYLOAD_FIELDS.get(kind, ()):
            value = data.get(key, _ABSENT)
            if type(value) is want:  # a bool is no int
                continue
            if value is not _ABSENT:
                raise MalformedTrace(
                    where, line_no, f"{kind} field {key!r} is not {want.__name__}"
                )
            if required or (key == "cycles" and data["text"] == "session_done"):
                raise MalformedTrace(where, line_no, f"{kind} is missing field {key!r}")
        prev_seq = seq
        prev_time = t
        out.append(tuple.__new__(TraceRecord, (seq, t, kind, data)))
    return out


# --- reports --------------------------------------------------------------


class RunReport(NamedTuple):
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
    phase_durations_s: Dict[str, float] = {}  # one dict for every default: never mutated
    violations: int = 0
    pusher_stalls: int = 0
    notes: Tuple[str, ...] = ()

    @property
    def duration_min(self) -> float:
        return self.duration_s / 60.0

    def to_dict(self) -> Dict[str, Any]:
        d = self._asdict()
        d["notes"] = list(self.notes)
        d["duration_s"] = round(self.duration_s, 6)
        d["phase_durations_s"] = {
            k: round(v, 6) for k, v in sorted(self.phase_durations_s.items())
        }
        return d


def summarize_run(
    records: Sequence[TraceRecord], test_index: int, seed: int, end_s: float
) -> RunReport:
    """One run's report, read off its trace in one pass.

    A run that never noted ``session_done`` lasted until ``end_s``, the
    runtime's final clock.
    """
    marks: Dict[str, set] = defaultdict(set)
    last_state: Dict[int, str] = {}
    opened: Dict[str, float] = {}
    spans: Dict[str, List[float]] = defaultdict(list)
    cycles = violations = stalls = 0
    done_at = None
    for rec in records:
        kind = rec.kind
        # Most records are device and motion traffic, which the report never reads.
        if kind not in {"outcome", "stack", "phase", "violation", "fault_decision", "message", "note"}:
            continue
        d = rec.data
        if kind == "outcome" and d["stack"] >= 0:
            marks[d["kind"]].add(d["stack"])
        elif kind == "stack":
            last_state[d["stack"]] = d["state"]
        elif kind == "phase":
            if d["edge"] == "start":
                opened[d["phase"]] = rec.time
            elif d["phase"] in opened:
                spans[d["phase"]].append(rec.time - opened.pop(d["phase"]))
        elif kind == "violation":
            violations += 1
        elif kind == "fault_decision":
            stalls += d["action"] == "push" and d["outcome"] != "ok"
        elif kind == "message":
            cycles += d.get("topic") == "cycle_finished"
        elif kind == "note" and d["text"] == "session_done":
            cycles, done_at = d["cycles"], rec.time
    return RunReport(
        test_index=test_index,
        seed=seed,
        cycles=cycles,
        stacks_offered=len(marks["detected"] | marks["detect_failed"]),
        **{stage: len(marks[stage]) for stage in ("detected", "picked", "placed", "delivered")},
        failed_unhandled=sum(state == "failed_unhandled" for state in last_state.values()),
        duration_s=end_s if done_at is None else done_at,
        phase_durations_s={name: sum(s) / len(s) for name, s in sorted(spans.items())},
        violations=violations,
        pusher_stalls=stalls,
    )


class CampaignReport(NamedTuple):
    runs: List[RunReport]
    seed: int
    config_digest: str
    mean_detected: float
    mean_picked: float
    mean_placed: float
    detected_rate_pct: float
    picked_rate_pct: float
    placed_rate_pct: float
    mean_duration_min: float
    unconsumed_script_entries: int

    def to_dict(self) -> Dict[str, Any]:
        d = self._asdict()
        d["tests"] = [r.to_dict() for r in d.pop("runs")]
        return {k: round(v, 6) if isinstance(v, float) else v for k, v in d.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def config_digest(config_json: str) -> str:
    import hashlib  # imported here: eval, --help and dump-config never hash

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
    detected = sum(r.detected for r in runs)
    picked = sum(r.picked for r in runs)
    placed = sum(r.placed for r in runs)

    def pct(count: int) -> float:
        return 100.0 * count / offered if offered > 0 else 0.0

    return CampaignReport(
        runs=list(runs),
        seed=seed,
        config_digest=digest,
        mean_detected=detected / n,
        mean_picked=picked / n,
        mean_placed=placed / n,
        detected_rate_pct=pct(detected),
        picked_rate_pct=pct(picked),
        placed_rate_pct=pct(placed),
        mean_duration_min=sum(r.duration_min for r in runs) / n,
        unconsumed_script_entries=unconsumed_script_entries,
    )


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
        kind = rec.kind
        if kind not in {"device_event", "device_cmd"}:
            continue
        d = rec.data
        name = d.get("device", "")
        if kind == "device_event":
            ev = d.get("event")
            if ev == "secured":
                secured.add(name)
            elif ev == "lost":
                secured.discard(name)
            elif ev == "done" and name == "door":
                door_open = d.get("op") == "extend"
        else:
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
