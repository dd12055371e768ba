"""Smoke tests: every script under scripts/ runs as its own process.

So does the benchmark's setup probe, which calls into ``bagcell`` directly,
and the functions the benchmark's per-layer tracing wraps must still resolve.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bagcell.config import CellConfig
from bagcell.vision import Box, save_boxes

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, folder="scripts"):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / folder / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_robustness_sweep_finds_nothing():
    out = run_script("robustness_sweep.py", "--cycles", "20")
    assert "cycles=20 " in out
    assert "audit findings: 0" in out.splitlines()


def test_pacing_sweep_reproduces_the_reference_test_time():
    out = run_script("pacing_sweep.py", "--detect", "15", "--plan", "4.5")
    detect_s, plan_s, minutes = out.splitlines()[1].split()
    assert (float(detect_s), float(plan_s)) == (15.0, 4.5)
    assert float(minutes) == pytest.approx(8.3, abs=0.05)


def test_make_reference_script_writes_the_shipped_file(tmp_path):
    out = tmp_path / "campaign.json"
    run_script("make_reference_script.py", "--out", str(out))
    assert out.read_bytes() == (ROOT / "scenarios" / "reference_campaign.json").read_bytes()


def test_fit_stage_rates_writes_a_fault_override(tmp_path):
    out = tmp_path / "stage_rates.json"
    run_script("fit_stage_rates.py", "--cycles", "10", "--out", str(out))
    fitted = CellConfig.from_file(out).to_dict()
    default = CellConfig().to_dict()
    fitted_faults, default_faults = fitted.pop("faults"), default.pop("faults")
    assert fitted == default
    changed = {k for k in default_faults if fitted_faults[k] != default_faults[k]}
    assert changed == {"detection_miss_prob", "pick_grip_fail_prob", "place_drop_fail_prob"}


@pytest.mark.parametrize("workload", ["replay", "sweep", "eval"])
def test_benchmark_setup_probe_runs(workload, tmp_path):
    # The probe calls what the benchmark's setup calls (``build_reference_script()``,
    # ``CellConfig().validate()``, ``load_boxes``), so a changed signature fails here first.
    box_files = []
    if workload == "eval":
        boxes = [Box(100.0 + 200 * i, 100.0, 220.0 + 200 * i, 240.0) for i in range(4)]
        for name, written in (("preds.txt", boxes[:3]), ("gts.txt", boxes)):
            save_boxes(tmp_path / name, written)
            box_files.append(str(tmp_path / name))
    run_script("setup_probe.py", workload, *box_files, folder="perfbench")


# Patch points the benchmark still names though the program no longer has
# them; the benchmark lists them as not traced. Mending the benchmark drops
# names from this set, and this test stays green.
STALE_PATCH_POINTS = {
    "bagcell.motion.path_duration",
    "bagcell.simulate.path_duration",
    "bagcell.motion.plan_with_retries",
    "bagcell.simulate.plan_with_retries",
    "bagcell.bus.Bus.publish",
}


def test_benchmark_patch_points_resolve(monkeypatch):
    # The per-layer benchmark wraps each patch point through its module
    # attribute; a renamed or deleted one drops out of its table unseen.
    # Nothing is patched here: each point is only looked up.
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclass looks itself up there
    spec.loader.exec_module(spans)
    unresolved = set()
    for _, points in spans.LAYERS:
        for module_name, attr_path, _ in points:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not callable(vars(owner).get(attr)):
                unresolved.add(f"{module_name}.{attr_path}")
    assert unresolved <= STALE_PATCH_POINTS
