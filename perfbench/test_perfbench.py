"""Self-tests of the benchmark harness.

Run with: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bagcell import motion  # noqa: E402


class SmallEval(workloads.Eval):
    frames = 10


def test_wrong_fingerprint_counts_as_failed_op(tmp_path):
    wl = SmallEval(3, tmp_path)
    key, digest, problems = wl.check(0, wl.op(0))
    assert problems == []

    batch = run.Batch()
    batch.run_op(wl, workloads.Fingerprints({key: digest}), wl.op, 0)
    assert (batch.attempted, batch.failed) == (1, 0)

    batch = run.Batch()
    batch.run_op(wl, workloads.Fingerprints({key: "0" * 64}), wl.op, 0)
    assert (batch.attempted, batch.failed) == (1, 1)
    assert "differs from recorded" in batch.problems[0]


def test_repeated_op_with_another_hash_fails():
    fps = workloads.Fingerprints({})
    assert fps.check("7", "a" * 64) is None
    assert fps.check("7", "a" * 64) is None
    assert "differs from first op" in fps.check("7", "b" * 64)


def test_wrapped_function_returns_what_unwrapped_returns(tmp_path):
    original = motion.path_duration
    waypoints = [(0.0, 0.0, 0.0), (0.4, 0.1, 0.0), (0.4, 0.5, 0.3)]
    plain = motion.path_duration(waypoints, 0.56, 1.2)
    rec = spans.SpanRecorder()
    with rec.installed():
        assert motion.path_duration is not original
        traced = motion.path_duration(waypoints, 0.56, 1.2)
        with pytest.raises(motion.PlanFailure):
            motion.plan_with_retries(1.0, 2.0, 3)
    assert motion.path_duration is original
    assert traced == plain
    totals = rec.totals()
    assert totals["motion.path_duration"].calls == 1
    assert totals["motion.move_duration"].calls == 2
    assert rec.counts["motion.plan.failures"] == 1
    assert rec.counts["motion.plan.retries"] == 2
    assert rec.missing == []

    # A whole op writes the same bytes with every layer wrapped.
    wl = workloads.Sweep(5, tmp_path)
    untraced = wl.check(0, wl.op(0))
    with spans.SpanRecorder().installed():
        traced_op = wl.check(0, wl.op(0))
    assert traced_op == untraced


def test_self_times_add_up_to_the_root_span(tmp_path):
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    assert outer() == [499500] * 3
    totals = rec.totals()
    assert totals["inner"].calls == 3
    assert totals["outer"].self_s + totals["inner"].self_s == pytest.approx(
        totals["outer"].incl_s, abs=1e-12
    )
    rec.dump(tmp_path / "spans.tsv")
    rows = [line.split("\t") for line in (tmp_path / "spans.tsv").read_text().splitlines()]
    assert [row[1] for row in rows] == ["name", "outer", "inner", "inner", "inner"]
    assert [row[4] for row in rows[1:]] == ["-1", "0", "0", "0"]


def test_same_seed_writes_byte_identical_inputs(tmp_path):
    a = workloads.write_eval_inputs(5, tmp_path / "a", 20, 8)
    b = workloads.write_eval_inputs(5, tmp_path / "b", 20, 8)
    c = workloads.write_eval_inputs(6, tmp_path / "c", 20, 8)
    for i in (0, 1):
        assert a[i].read_bytes() == b[i].read_bytes()
    assert a[2] == b[2]
    assert a[0].read_bytes() != c[0].read_bytes()


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    batch = run.Batch()
    batch.times = [0.001 * (k + 1) for k in range(30)]
    batch.probes = [hostspeed.PROBE_REF_S] * 31
    e2e = run.end_to_end(batch, 0.3)
    layers = run.per_layer(spans.SpanRecorder(), 1, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_probed_op_times_are_scaled_by_the_probes_around_them(tmp_path):
    wl = SmallEval(3, tmp_path)
    batch = run.Batch(probe=True)
    for i in range(3):
        batch.run_op(wl, workloads.Fingerprints({}), wl.op, i)
    assert len(batch.probes) == 4 and all(p > 0 for p in batch.probes)
    p = batch.probes
    assert batch.scaled_times() == [
        t * hostspeed.PROBE_REF_S * 2.0 / (p[k] + p[k + 1]) for k, t in enumerate(batch.times)
    ]


def _copy_benchmark(dest: Path) -> None:
    shutil.copytree(checkout.HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", dest)


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_refuses_to_run_without_program_sources(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run_benchmark(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_in_a_fresh_checkout(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(checkout.SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["orchestrator.transition.calls"]["value"] > 0
    assert (tmp_path / ".perfbench_run" / "spans-sweep.tsv").is_file()
