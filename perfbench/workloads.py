"""The three benchmark workloads: inputs, one op, and the checks on its output.

Each workload builds its inputs from the workload seed in ``__init__``.
``op(i)`` is the timed unit of work; ``check(i, out)`` runs untimed and
returns the op's fingerprint key, its SHA-256 over the op's output bytes,
and the list of failed output checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checkout

checkout.use_checkout_src()

from bagcell import cli, report, scenarios, simulate, vision  # noqa: E402
from bagcell.config import CellConfig  # noqa: E402

DEFAULT_SEED = 0
FINGERPRINTS = checkout.HERE / "fingerprints.json"

# The paper's ten-test replay table: stage rates in % and minutes per test.
PAPER_RATES_PCT = {"detected": 96.25, "picked": 86.25, "placed": 82.50}
PAPER_MINUTES = 8.3
PAPER_MINUTES_TOL = 0.05

Checked = Tuple[str, str, List[str]]


def retry_caps(config: CellConfig) -> Dict[str, int]:
    o = config.orchestrator
    return {
        "detect": o.detect_attempts,
        "pick": o.pick_attempts,
        "place": o.place_attempts,
        "secure": o.secure_attempts,
        "remove": o.remove_attempts,
    }


def audit(records, caps: Dict[str, int]) -> List[Any]:
    """Findings of the three trace audits the acceptance gate runs."""
    return (
        report.scan_violations(records)
        + report.audit_interlocks(records)
        + report.audit_retry_caps(records, caps)
    )


def load_recorded() -> Dict[str, Dict[str, str]]:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text())


class Fingerprints:
    """Output hashes per key: the recorded ones, and the first seen in this run.

    An op fails when its hash differs from the recorded hash for its key, or
    from the hash an earlier op of this run gave for the same key.
    """

    def __init__(self, recorded: Dict[str, str]):
        self.recorded = recorded
        self.seen: Dict[str, str] = {}

    def check(self, key: str, digest: str) -> Optional[str]:
        want = self.recorded.get(key)
        if want is not None and digest != want:
            return f"{key}: fingerprint {digest[:16]} differs from recorded {want[:16]}"
        first = self.seen.setdefault(key, digest)
        if digest != first:
            return f"{key}: fingerprint {digest[:16]} differs from first op's {first[:16]}"
        return None

    def combined(self) -> str:
        h = hashlib.sha256()
        for key, digest in self.seen.items():
            h.update(f"{key}={digest}\n".encode())
        return h.hexdigest()

    def checked_against_recorded(self) -> int:
        return sum(1 for key in self.seen if key in self.recorded)


class Workload:
    name = ""
    warmup = 1
    # Ops per seed that have distinct inputs; recording fingerprints runs each once.
    distinct_ops = 1

    def __init__(self, seed: int, run_dir: Path):
        """Build this seed's inputs; ``run_dir`` is scratch space for files."""
        self.seed = seed

    def size(self) -> str:
        raise NotImplementedError

    def probe_args(self) -> List[str]:
        """Arguments for ``setup_probe.py`` after the workload name."""
        return []

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, out: Any) -> Checked:
        raise NotImplementedError

    def reference_lines(self) -> List[str]:
        """Outputs of the last checked op, each beside its error against reference."""
        return []


class Replay(Workload):
    """``bagcell replay`` of the built-in reference script, traces read back and audited.

    The input is the paper's fixed ten-test fixture, so the seed changes
    nothing and every op is checked against the recorded fingerprint.
    """

    name = "replay"
    trace_names = [f"trace_{i:02d}.jsonl" for i in range(scenarios.REFERENCE_TESTS)]

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.outdir = run_dir / "replay"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.caps = retry_caps(CellConfig())
        self.last: Dict[str, Any] = {}

    def size(self) -> str:
        return f"{scenarios.REFERENCE_TESTS} scripted single-cycle tests, 1 outdir of 12 files"

    def op(self, i: int) -> Tuple[int, List[Any]]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["replay", "--outdir", str(self.outdir)])
        findings: List[Any] = []
        for name in self.trace_names:
            findings += audit(report.read_trace(self.outdir / name), self.caps)
        return code, findings

    def check(self, i: int, out: Tuple[int, List[Any]]) -> Checked:
        code, findings = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if findings:
            problems.append(f"{len(findings)} audit findings, first: {findings[0]}")
        data = json.loads((self.outdir / "report.json").read_text())
        rows = tuple((t["detected"], t["picked"], t["placed"]) for t in data["tests"])
        if rows != scenarios.REFERENCE_CAMPAIGN:
            problems.append(f"count rows {rows} differ from REFERENCE_CAMPAIGN")
        for stage, want in PAPER_RATES_PCT.items():
            got = data[f"{stage}_rate_pct"]
            if abs(got - want) > 1e-9:
                problems.append(f"{stage} rate {got} % differs from paper {want} %")
        if abs(data["mean_duration_min"] - PAPER_MINUTES) > PAPER_MINUTES_TOL:
            problems.append(f"mean time {data['mean_duration_min']} min not {PAPER_MINUTES} +/- 0.05")
        violations = sum(t["violations"] for t in data["tests"])
        if violations:
            problems.append(f"{violations} safety violations")
        if data["unconsumed_script_entries"]:
            problems.append(f"{data['unconsumed_script_entries']} unconsumed script entries")
        self.last = data
        h = hashlib.sha256()
        for path in sorted(self.outdir.iterdir()):
            body = path.read_bytes()
            h.update(f"{path.name}\0{len(body)}\0".encode())
            h.update(body)
        return "reference", h.hexdigest(), problems

    def reference_lines(self) -> List[str]:
        data = self.last
        if not data:
            return []
        lines = []
        for t, want in zip(data["tests"], scenarios.REFERENCE_CAMPAIGN):
            got = (t["detected"], t["picked"], t["placed"])
            err = "/".join(f"{g - w:+d}" for g, w in zip(got, want))
            lines.append(
                f"test {t['test_index'] + 1:2d}: detected/picked/placed "
                f"{'/'.join(map(str, got))} (paper {'/'.join(map(str, want))}, error {err})"
            )
        for stage, want in PAPER_RATES_PCT.items():
            got = data[f"{stage}_rate_pct"]
            lines.append(f"{stage} rate {got:.2f} % (paper {want:.2f} %, error {got - want:+.2f} pp)")
        got = data["mean_duration_min"]
        lines.append(
            f"mean time per test {got:.3f} min (paper {PAPER_MINUTES} min, error {got - PAPER_MINUTES:+.3f} min)"
        )
        lines.append(
            f"violations {sum(t['violations'] for t in data['tests'])} (reference 0), "
            f"unconsumed script entries {data['unconsumed_script_entries']} (reference 0)"
        )
        return lines


class Sweep(Workload):
    """Randomized-fault single-cycle sessions on seeds base+i, each audited in memory.

    Op i runs cycle seed ``seed + i % cycles``, so a run repeats a fixed mix
    of sessions and repeated seeds must hash the same.
    """

    name = "sweep"
    warmup = 10
    cycles = 200
    distinct_ops = cycles

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.config = CellConfig()
        self.config.faults = scenarios.randomized_fault_profile()
        self.caps = retry_caps(self.config)
        self.totals: Counter = Counter()

    def size(self) -> str:
        return f"{self.cycles} randomized-fault cycles, seeds {self.seed}..{self.seed + self.cycles - 1}, repeated"

    def op(self, i: int):
        rep, tracer = simulate.run_single(
            self.config, seed=self.seed + i % self.cycles, cycles=1
        )
        return rep, tracer.records, audit(tracer.records, self.caps)

    def check(self, i: int, out) -> Checked:
        rep, records, findings = out
        problems = []
        if rep.violations:
            problems.append(f"seed {rep.seed}: {rep.violations} safety violations")
        if findings:
            problems.append(f"seed {rep.seed}: {len(findings)} audit findings, first: {findings[0]}")
        for key in ("stacks_offered", "detected", "picked", "placed", "delivered", "violations"):
            self.totals[key] += getattr(rep, key)
        self.totals["findings"] += len(findings)
        self.totals["cycles"] += 1
        h = hashlib.sha256()
        for rec in records:
            h.update(rec.to_line().encode())
            h.update(b"\n")
        h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
        return str(rep.seed), h.hexdigest(), problems

    def reference_lines(self) -> List[str]:
        t = self.totals
        offered = t["stacks_offered"] or 1
        rates = ", ".join(
            f"{stage} {100.0 * t[stage] / offered:.2f} %"
            for stage in ("detected", "picked", "placed", "delivered")
        )
        return [
            f"{t['cycles']} cycles checked: violations {t['violations']}, audit findings {t['findings']} (required 0)",
            f"stage rates over {t['stacks_offered']} offered stacks: {rates}",
            "the randomized fault profile has no measured counterpart: model unvalidated, no error figure",
        ]


def make_eval_boxes(
    seed: int, frames: int, stacks: int
) -> Tuple[List[vision.Box], List[vision.Box], Dict[str, int]]:
    """Ground truth and predictions with known tp, fp and fn.

    Stacks sit one per cell of a 4-column grid; a prediction is its stack's
    box with each edge moved by at most 6 px (IoU above 0.7), so it matches
    its own stack only. Misses drop a prediction (fn); spurious boxes sit in
    a band below every cell where they overlap no ground truth (fp).
    """
    miss_rate, spurious_rate = 0.05, 0.05
    rng = np.random.Generator(np.random.PCG64(seed))
    gts: List[vision.Box] = []
    preds: List[vision.Box] = []
    known = {"tp": 0, "fp": 0, "fn": 0}
    rows = -(-stacks // 4)
    band_y = rows * 400.0 + 20.0
    for frame in range(frames):
        for s in range(stacks):
            row, col = divmod(s, 4)
            cx = col * 320.0 + 160.0 + rng.uniform(-30.0, 30.0)
            cy = row * 400.0 + 200.0 + rng.uniform(-30.0, 30.0)
            w, h = rng.uniform(120.0, 200.0), rng.uniform(180.0, 300.0)
            gt = vision.Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, 1.0, "stack", frame)
            gts.append(gt)
            if rng.random() < miss_rate:
                known["fn"] += 1
            else:
                dx0, dy0, dx1, dy1 = np.clip(rng.normal(0.0, 2.0, 4), -6.0, 6.0)
                preds.append(
                    vision.Box(
                        gt.x_min + dx0, gt.y_min + dy0, gt.x_max + dx1, gt.y_max + dy1,
                        float(rng.uniform(0.3, 1.0)), "stack", frame,
                    )
                )
                known["tp"] += 1
            if rng.random() < spurious_rate:
                x0 = rng.uniform(0.0, 1180.0)
                y0 = band_y + rng.uniform(0.0, 20.0)
                preds.append(
                    vision.Box(
                        x0, y0, x0 + rng.uniform(40.0, 100.0), y0 + rng.uniform(40.0, 100.0),
                        float(rng.uniform(0.05, 0.9)), "stack", frame,
                    )
                )
                known["fp"] += 1
    return preds, gts, known


class Eval(Workload):
    """``bagcell eval`` on a seeded box-file pair written by ``vision.save_boxes``."""

    name = "eval"
    frames = 200
    stacks = 8

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.dir = run_dir / "eval"
        self.preds, self.gts, self.known = write_eval_inputs(
            seed, self.dir, self.frames, self.stacks
        )
        self.last: Dict[str, Any] = {}

    def size(self) -> str:
        k = self.known
        return (
            f"{self.frames} frames x {self.stacks} stacks: {k['tp'] + k['fn']} true boxes, "
            f"{k['tp'] + k['fp']} predictions"
        )

    def probe_args(self) -> List[str]:
        return [str(self.preds), str(self.gts)]

    def op(self, i: int) -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["eval", "--preds", str(self.preds), "--gts", str(self.gts)])
        return code, buf.getvalue()

    def check(self, i: int, out: Tuple[int, str]) -> Checked:
        code, text = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        data = json.loads(text)
        for key, want in self.known.items():
            if data[key] != want:
                problems.append(f"{key} {data[key]} differs from generated {want}")
        self.last = data
        return str(self.seed), hashlib.sha256(text.encode()).hexdigest(), problems

    def reference_lines(self) -> List[str]:
        data = self.last
        if not data:
            return []
        k = self.known
        lines = [
            f"{key} {data[key]} (generated {k[key]}, error {data[key] - k[key]:+d})"
            for key in ("tp", "fp", "fn")
        ]
        want = {
            "precision": k["tp"] / (k["tp"] + k["fp"]),
            "recall": k["tp"] / (k["tp"] + k["fn"]),
        }
        want["f1"] = 2 * want["precision"] * want["recall"] / (want["precision"] + want["recall"])
        for key, value in want.items():
            lines.append(
                f"{key} {data[key]:.6f} (from generated counts {value:.6f}, error {data[key] - value:+.6f})"
            )
        lines.append(f"ap {data['ap']} (no reference: depends on the confidence ranking)")
        return lines


def write_eval_inputs(
    seed: int, directory: Path, frames: int, stacks: int
) -> Tuple[Path, Path, Dict[str, int]]:
    """Write the seeded prediction and ground-truth files; return paths and known counts."""
    directory.mkdir(parents=True, exist_ok=True)
    preds, gts, known = make_eval_boxes(seed, frames, stacks)
    preds_path, gts_path = directory / "preds.txt", directory / "gts.txt"
    vision.save_boxes(preds_path, preds)
    vision.save_boxes(gts_path, gts)
    return preds_path, gts_path, known


WORKLOADS = {cls.name: cls for cls in (Replay, Sweep, Eval)}
