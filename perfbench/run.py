#!/usr/bin/env python3
"""bagcell benchmark: one workload, timed end to end or traced per layer.

Usage:
  python3 perfbench/run.py --workload replay|sweep|eval --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-fingerprints

A run is one process on one thread driving a closed loop with one client:
the next op starts only after the previous one ends. Every time reported is
host time. Simulated time is deterministic, so it is covered by the output
fingerprints instead.

The end-to-end times are scaled to a reference host: each op's host time is
multiplied by PROBE_REF_S over the time a fixed probe took around it (see
hostspeed.py), because this host's own speed moves by more than the bounds.
The raw figures are printed beside them. The per-layer times of a traced run
are raw host time.

--trace 0 times ops with nothing wrapped and reports the end-to-end metrics.
--trace 1 runs ops untraced, then the same ops again with spans around the
calls into each layer. It reports per-layer metrics and the tracing overhead,
and checks that tracing changed no output byte.

Human-readable lines come first. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--record-fingerprints rewrites perfbench/fingerprints.json from the default
seed. Do that only for a deliberate, documented change to output bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

import checkout
import hostspeed
from spans import SpanRecorder
from workloads import (
    DEFAULT_SEED,
    FINGERPRINTS,
    WORKLOADS,
    Fingerprints,
    Workload,
    load_recorded,
)

MIN_OPS = 20  # timed ops at least, so that op_ms_tail has 10 samples beyond it
SETUP_PROBES = 7  # fresh interpreters timed per run; setup_s is their median
HARD_STOP_S = 150.0  # measuring stops here even short of MIN_OPS: runs must end by 180 s
PROBE_SHARE = 0.1  # the host-speed probes after a timed op last at least this share of it

Metrics = Dict[str, Tuple[float, str]]


class Batch:
    """Times, output hashes and failures of a sequence of ops.

    With ``probe`` set, host-speed probes run before the first op and after
    each op, and ``probes`` holds their median times: op k ran between
    ``probes[k]`` and ``probes[k + 1]``.
    """

    def __init__(self, probe: bool = False) -> None:
        self.probe = probe
        self.times: List[float] = []
        self.probes: List[float] = []
        self.digests: List[str] = []
        self.failed = 0
        self.problems: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    def scaled_times(self) -> List[float]:
        """Op times scaled to the reference host by the probes on either side."""
        return [
            t * hostspeed.PROBE_REF_S * 2.0 / (before + after)
            for t, before, after in zip(self.times, self.probes, self.probes[1:])
        ]

    def run_op(self, wl: Workload, fps: Fingerprints, op: Callable, i: int) -> None:
        error = None
        if self.probe and not self.probes:
            self.probes.append(hostspeed.probe_s(0.0))
        t0 = time.perf_counter()
        try:
            out = op(i)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            error = f"op raised {exc!r}"
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        if self.probe:
            self.probes.append(hostspeed.probe_s(PROBE_SHARE * elapsed))
        digest, problems = "", [error] if error else []
        if error is None:
            try:
                key, digest, problems = wl.check(i, out)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            else:
                mismatch = fps.check(key, digest)
                if mismatch:
                    problems.append(mismatch)
        self.digests.append(digest)
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems]


def run_for(wl, fps, op, seconds: float, start: int, stop_at: float, probe=False) -> Batch:
    """Ops start, start+1, ... for ``seconds``, and at least MIN_OPS of them."""
    batch = Batch(probe)
    deadline = time.perf_counter() + seconds
    i = start
    while (
        time.perf_counter() < deadline or batch.attempted < MIN_OPS
    ) and time.perf_counter() < stop_at:
        batch.run_op(wl, fps, op, i)
        i += 1
    return batch


def run_indexes(wl, fps, op, indexes: Iterable[int], stop_at: float) -> Batch:
    batch = Batch()
    for i in indexes:
        if time.perf_counter() >= stop_at:
            break
        batch.run_op(wl, fps, op, i)
    return batch


def measure_setup(wl: Workload, stop_at: float) -> Tuple[float, List[str]]:
    """Median wall time, scaled to the reference host, of fresh interpreters
    importing bagcell.cli and loading inputs; see setup_probe.py."""
    cmd = [sys.executable, str(checkout.HERE / "setup_probe.py"), wl.name, *wl.probe_args()]
    times: List[float] = []
    raw: List[float] = []
    # The first interpreter is not timed: it writes the bytecode caches a user's
    # first run leaves behind.
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=checkout.ROOT, capture_output=True, text=True,
                timeout=max(1.0, stop_at - t0),
            )
        except subprocess.TimeoutExpired:
            return 0.0, ["setup probe did not finish before the run's hard stop"]
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return 0.0, [f"setup probe exited {proc.returncode}: {tail[0]}"]
        try:
            probe, probe_s = map(float, proc.stdout.split()[-2:])
        except ValueError:
            return 0.0, [f"setup probe printed no probe time: {proc.stdout[-200:]!r}"]
        if k:
            raw.append(elapsed - probe_s)
            times.append(raw[-1] * hostspeed.PROBE_REF_S / probe)
    print(f"# setup: raw median {statistics.median(raw):.4f} s over {len(raw)} fresh interpreters")
    return statistics.median(times), []


def tail_ms(times: List[float]) -> Tuple[float, float, int]:
    """(ms, percentile, samples beyond) at the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1] * 1e3, 100.0, 0
    k = n - 11
    return ordered[k] * 1e3, 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(batch: Batch, setup_s: float) -> Metrics:
    times = batch.scaled_times()
    tail, pct, beyond = tail_ms(times)
    raw = batch.times
    print(
        f"# {len(times)} timed ops; op_ms_tail is p{pct:.1f}, {beyond} of {len(times)} "
        f"samples beyond it"
    )
    print(
        f"# raw host time: {len(raw) / sum(raw):.4f} ops/s, median {statistics.median(raw) * 1e3:.3f} ms, "
        f"tail {tail_ms(raw)[0]:.3f} ms; median probe {statistics.median(batch.probes) * 1e3:.4f} ms "
        f"(reference {hostspeed.PROBE_REF_S * 1e3:g} ms)"
    )
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_tail": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rec: SpanRecorder, n: int, traced_s: float, plain_s: float) -> Metrics:
    """Per-op layer metrics from the spans of ``n`` traced ops.

    ``plain_s`` is the untraced host time of the same ops.
    """
    tot = rec.totals()

    def calls(name: str) -> float:
        return tot[name].calls / n

    def us_per_call(name: str) -> float:
        t = tot[name]
        return t.incl_s / t.calls * 1e6 if t.calls else 0.0

    def us_per_unit(name: str) -> float:
        units = rec.units.get(name, 0)
        return tot[name].incl_s / units * 1e6 if units else 0.0

    def self_ms(*names: str) -> float:
        return sum(tot[name].self_s for name in names) / n * 1e3

    transitions = tot["orchestrator.transition"].calls
    layer_self_ms = self_ms(*(name for name in tot if name != "bench.op"))
    m: Metrics = {
        "orchestrator.transition.calls": (calls("orchestrator.transition"), "count"),
        "orchestrator.transition.us_per_call": (us_per_call("orchestrator.transition"), "us"),
        "orchestrator.transition.self_ms": (self_ms("orchestrator.transition"), "ms"),
        "simulate.host_us_per_event": (
            plain_s / transitions * 1e6 if transitions else 0.0, "us"),
        "simulate.self_ms": (self_ms("simulate.run"), "ms"),
        "simulate.init_us": (us_per_call("simulate.init"), "us"),
        "simulate.init.self_ms": (self_ms("simulate.init"), "ms"),
        "world.check_invariants.calls": (calls("world.check_invariants"), "count"),
        "world.check_invariants.us_per_call": (us_per_call("world.check_invariants"), "us"),
        "world.check_invariants.self_ms": (self_ms("world.check_invariants"), "ms"),
        "motion.path_duration.calls": (calls("motion.path_duration"), "count"),
        "motion.path_duration.us_per_call": (us_per_call("motion.path_duration"), "us"),
        "motion.move_duration.calls": (calls("motion.move_duration"), "count"),
        "motion.move_duration.us_per_call": (us_per_call("motion.move_duration"), "us"),
        "motion.plan.calls": (calls("motion.plan_with_retries"), "count"),
        "motion.plan.retries": (rec.counts["motion.plan.retries"] / n, "count"),
        "motion.plan.failures": (rec.counts["motion.plan.failures"] / n, "count"),
        "motion.self_ms": (self_ms(
            "motion.path_duration", "motion.move_duration", "motion.plan_with_retries"), "ms"),
        "vision.observe.calls": (calls("vision.observe"), "count"),
        "vision.observe.us_per_call": (us_per_call("vision.observe"), "us"),
        "vision.observe.self_ms": (self_ms("vision.observe"), "ms"),
        "devices.script_consume.calls": (calls("devices.script_consume"), "count"),
        "devices.script_consume.us_per_call": (us_per_call("devices.script_consume"), "us"),
        "devices.script_consume.self_ms": (self_ms("devices.script_consume"), "ms"),
        "report.record.calls": (calls("report.record"), "count"),
        "report.record.us_per_call": (us_per_call("report.record"), "us"),
        "report.record.self_ms": (self_ms("report.record"), "ms"),
        "report.write_trace.us_per_record": (us_per_unit("report.write_trace"), "us"),
        "report.write_trace.self_ms": (self_ms("report.write_trace"), "ms"),
        "report.read_trace.us_per_record": (us_per_unit("report.read_trace"), "us"),
        "report.read_trace.self_ms": (self_ms("report.read_trace"), "ms"),
        "report.audit.us_per_record": (us_per_unit("report.audit"), "us"),
        "report.audit.self_ms": (self_ms("report.audit"), "ms"),
        "bus.publish.calls": (calls("bus.publish"), "count"),
        "bus.publish.self_ms": (self_ms("bus.publish"), "ms"),
        "config.validate.calls": (calls("config.validate"), "count"),
        "config.validate.us_per_call": (us_per_call("config.validate"), "us"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "vision.load_boxes.us_per_box": (us_per_unit("vision.load_boxes"), "us"),
        "vision.load_boxes.self_ms": (self_ms("vision.load_boxes"), "ms"),
        "vision.evaluate.self_ms": (self_ms("vision.evaluate"), "ms"),
        "vision.match_detections.ms": (tot["vision.match_detections"].incl_s / n * 1e3, "ms"),
        "vision.ap_at_threshold.ms": (tot["vision.ap_at_threshold"].incl_s / n * 1e3, "ms"),
        "trace.op_ms": (traced_s / n * 1e3, "ms"),
        "trace.untraced_op_ms": (plain_s / n * 1e3, "ms"),
        "trace.overhead_pct": ((traced_s / plain_s - 1.0) * 100.0, "%"),
        "trace.layer_self_sum_ms": (layer_self_ms, "ms"),
        "trace.unwrapped_ms": (self_ms("bench.op"), "ms"),
        "trace.spans": (len(rec.starts) / n, "count"),
    }
    return m


def timed_run(wl: Workload, fps: Fingerprints, seconds: float, stop_at: float):
    # Probes get at most a third of the hard stop, so the ops still get time.
    setup_s, problems = measure_setup(wl, time.perf_counter() + HARD_STOP_S / 3)
    warm = run_indexes(wl, fps, wl.op, range(wl.warmup), stop_at)
    gc.collect()
    batch = run_for(wl, fps, wl.op, seconds, wl.warmup, stop_at, probe=True)
    if not batch.attempted:
        return [warm, batch], problems + ["no timed op completed"], {}
    return [warm, batch], problems, end_to_end(batch, setup_s)


def traced_run(wl: Workload, fps: Fingerprints, seconds: float, stop_at: float):
    warm = run_indexes(wl, fps, wl.op, range(wl.warmup), stop_at)
    gc.collect()
    plain = run_for(wl, fps, wl.op, seconds / 2, wl.warmup, stop_at)
    rec = SpanRecorder()
    with rec.installed():
        traced = run_indexes(
            wl, fps, rec.wrap("bench.op", wl.op),
            range(wl.warmup, wl.warmup + plain.attempted), stop_at,
        )
    n = traced.attempted
    for point in rec.missing:
        print(f"# not traced, no longer in the program: {point}")
    if n == 0:
        return [warm, plain, traced], ["no traced op completed"], {}
    same = traced.digests == plain.digests[:n]
    problems = [] if same else ["traced outputs differ from untraced outputs"]
    traced_s, plain_s = sum(traced.times), sum(plain.times[:n])
    metrics = per_layer(rec, n, traced_s, plain_s)
    spans_path = checkout.RUN_DIR / f"spans-{wl.name}.tsv"
    rec.dump(spans_path)
    traced_ms, plain_ms = traced_s / n * 1e3, plain_s / n * 1e3
    overhead_ms = traced_ms - plain_ms
    gap_ms = metrics["trace.layer_self_sum_ms"][0] - plain_ms
    print(f"# {n} ops traced, {len(rec.starts)} spans written to {spans_path.name}")
    print(
        f"# traced op {traced_ms:.3f} ms vs untraced {plain_ms:.3f} ms: "
        f"tracing overhead {overhead_ms:.3f} ms per op"
    )
    print(
        f"# layers' self times sum to {gap_ms:+.3f} ms from the untraced op time, "
        f"{'within' if abs(gap_ms) <= abs(overhead_ms) else 'outside'} the tracing overhead"
    )
    print(f"# traced fingerprint {'equals' if same else 'DIFFERS FROM'} the untraced one")
    return [warm, plain, traced], problems, metrics


def record_fingerprints(run_dir) -> None:
    recorded = {}
    for cls in WORKLOADS.values():
        wl = cls(DEFAULT_SEED, run_dir)
        digests = {}
        for i in range(cls.distinct_ops):
            key, digest, problems = wl.check(i, wl.op(i))
            if problems:
                raise SystemExit(f"{cls.name} op {i} fails its checks: {problems}")
            digests[key] = digest
        recorded[cls.name] = digests
        print(f"{cls.name}: {len(digests)} fingerprints")
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_fingerprints and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    stop_at = time.perf_counter() + HARD_STOP_S
    run_dir = checkout.RUN_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_fingerprints:
            record_fingerprints(run_dir)
            return 0
        load_start = os.getloadavg()
        wl = WORKLOADS[args.workload](args.seed, run_dir)
        fps = Fingerprints(load_recorded().get(wl.name, {}))
        print(
            f"# python {platform.python_version()}, numpy {np.__version__}, "
            f"cpu_count {os.cpu_count()}, loadavg at start {load_start}"
        )
        print(f"# workload {wl.name}, seed {args.seed}, input: {wl.size()}")
        run = traced_run if args.trace else timed_run
        batches, problems, metrics = run(wl, fps, args.seconds, stop_at)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>14.6f} {unit}")
    print(f"{'op_fail_ratio':<38} {failed / attempted if attempted else 1.0:>14.6f} "
          f"({failed} failed of {attempted} attempted)")
    for line in wl.reference_lines():
        print(f"# {line}")
    print(
        f"# fingerprint {fps.combined()} over {len(fps.seen)} distinct ops, "
        f"{fps.checked_against_recorded()} checked against {FINGERPRINTS.name}"
    )
    for problem in (problems + [p for b in batches for p in b.problems])[:10]:
        print(f"# FAILED {problem}")
    print(f"# loadavg at end {os.getloadavg()}")
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
