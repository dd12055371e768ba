"""Top-level acceptance gate: one test per release criterion.

Each test states its tolerance inline and checks its own runtime budget,
so `pytest -v tests/test_acceptance.py` reads as a go/no-go checklist.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from bagcell.config import ENCLOSURE_COUNT, CellConfig, FaultConfig
from bagcell.devices import FaultScript
from bagcell.motion import plan_profile
from bagcell.report import (
    audit_interlocks,
    audit_retry_caps,
    config_digest,
    scan_violations,
    summarize_campaign,
    write_trace,
)
from bagcell.scenarios import REFERENCE_CAMPAIGN, randomized_fault_profile
from bagcell.simulate import run_campaign, run_single
from bagcell.vision import Box, evaluate, metrics_from_counts
from bagcell.world import build_world
from bagcell import vision
from test_motion import numeric_distance

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_SCRIPT = SCENARIOS / "reference_campaign.json"
STAGE_RATES = SCENARIOS / "stage_rates.json"

RETRY_CAPS = {"pick": 3, "place": 3, "detect": 3, "secure": 3, "remove": 3}


def test_detection_metrics_reproduce_reference_scores():
    # Counts chosen so precision and recall are exactly 0.995 and 0.987;
    # the harmonic mean must come out at 0.991 within 5e-4.
    tic = time.perf_counter()
    m = metrics_from_counts(tp=196_413, fp=987, fn=2_587)
    assert m.precision == pytest.approx(0.995, abs=1e-12)
    assert m.recall == pytest.approx(0.987, abs=1e-12)
    assert m.f1 == pytest.approx(0.991, abs=5e-4)

    # Scoring a prediction file against itself is a perfect score.
    boxes = [
        Box(x_min=50.0 + 180 * i, y_min=60.0, x_max=150.0 + 180 * i, y_max=210.0,
            confidence=0.9, frame_id=i % 3)
        for i in range(12)
    ]
    perfect = evaluate(boxes, boxes)
    assert perfect.precision == 1.0
    assert perfect.recall == 1.0
    assert perfect.f1 == 1.0
    assert perfect.ap50 == 1.0
    assert time.perf_counter() - tic < 1.0


def test_shipped_fault_script_replays_reference_campaign():
    # The checked-in fault script must force the exact ten-row count table
    # and the campaign means 96.25 / 86.25 / 82.50 % at 8.3 +/- 0.05 min.
    tic = time.perf_counter()
    script = FaultScript.from_file(SHIPPED_SCRIPT)
    cfg = CellConfig()
    reports = [r for r, _ in run_campaign(cfg.validate(), range(10), script=script)]
    rows = [(r.detected, r.picked, r.placed) for r in reports]
    assert tuple(rows) == REFERENCE_CAMPAIGN
    assert rows[2] == (7, 5, 5)
    assert rows[6] == (6, 6, 6)
    assert all(r.violations == 0 for r in reports)
    assert script.unconsumed() == []

    summary = summarize_campaign(
        reports, seed=cfg.seed, digest=config_digest(cfg.to_json())
    )
    assert summary.detected_rate_pct == pytest.approx(96.25, abs=1e-9)
    assert summary.picked_rate_pct == pytest.approx(86.25, abs=1e-9)
    assert summary.placed_rate_pct == pytest.approx(82.50, abs=1e-9)
    assert summary.mean_duration_min == pytest.approx(8.3, abs=0.05)
    assert time.perf_counter() - tic < 30.0


def test_fitted_fault_profile_reproduces_reference_stage_rates():
    # 1000 stochastic single-cycle sessions of the engine on the shipped
    # profile (scripts/fit_stage_rates.py fits it on other seeds) must land
    # within 2 percentage points of all three reference rates.
    tic = time.perf_counter()
    cfg = CellConfig.from_file(STAGE_RATES)
    reports = [run_single(cfg, seed=31_415 + i, cycles=1)[0] for i in range(1000)]
    assert all(r.placed <= r.picked <= r.detected <= r.stacks_offered for r in reports)
    summary = summarize_campaign(reports, seed=31_415, digest=config_digest(cfg.to_json()))
    offered = len(REFERENCE_CAMPAIGN) * ENCLOSURE_COUNT
    det, pick, place = (sum(column) / offered for column in zip(*REFERENCE_CAMPAIGN))
    assert summary.detected_rate_pct == pytest.approx(det * 100, abs=2.0)
    assert summary.picked_rate_pct == pytest.approx(pick * 100, abs=2.0)
    assert summary.placed_rate_pct == pytest.approx(place * 100, abs=2.0)
    assert time.perf_counter() - tic < 60.0


def test_velocity_profiles_integrate_to_distance():
    tic = time.perf_counter()
    rng = np.random.default_rng(97)
    for _ in range(10_000):
        d = float(rng.uniform(0.001, 6.0))
        v = float(rng.uniform(0.05, 2.0))
        a = float(rng.uniform(0.05, 10.0))
        profile = plan_profile(d, v, a)
        assert abs(numeric_distance(profile, n_grid=129) - d) <= 1e-9 * max(1.0, d)

    # Under the default speed scaling the arm never exceeds 0.56 m/s.
    mot = CellConfig().motion
    v_cap = mot.effective_max_speed_mps
    a_cap = mot.effective_acceleration_mps2
    assert v_cap == pytest.approx(0.56, abs=1e-12)
    for _ in range(500):
        profile = plan_profile(float(rng.uniform(0.001, 6.0)), v_cap, a_cap)
        assert profile.v_peak <= v_cap + 1e-12

    # Frozen oracle: the 2 m transfer takes 5.0075 s (+/- 1e-3) and its
    # speed curve integrates back to 2 m.
    ref = plan_profile(2.0, v_cap, a_cap)
    assert ref.t_total == pytest.approx(5.0075, abs=1e-3)
    assert numeric_distance(ref, n_grid=129) == pytest.approx(2.0, abs=1e-9)
    assert time.perf_counter() - tic < 30.0


def test_no_safety_violations_under_randomized_faults():
    # 1000 stochastic single-cycle sessions: the cutter only ever fires with
    # all eight bags secured, pushers only extend with the door open, no
    # enclosure is double-booked, at most one stack is held, and no action
    # exceeds its retry cap.
    tic = time.perf_counter()
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    violations = 0
    findings = []
    for i in range(1000):
        report, tracer = run_single(cfg, seed=7_000 + i, cycles=1)
        violations += report.violations
        findings += scan_violations(tracer.records)
        findings += audit_interlocks(tracer.records)
        findings += audit_retry_caps(tracer.records, RETRY_CAPS)
    assert violations == 0
    assert findings == []
    assert time.perf_counter() - tic < 60.0


def test_fault_free_phase_durations_match_reference():
    report, _ = run_single(CellConfig(), seed=2_026, cycles=1)
    phases = report.phase_durations_s
    assert phases["cutting"] == pytest.approx(15.7, abs=0.5)
    assert phases["removal"] == pytest.approx(38.9, abs=0.5)
    assert phases["delivery"] == pytest.approx(18.4, abs=0.5)


def test_identical_seed_and_config_reproduce_files_byte_for_byte(tmp_path):
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    cfg.seed = 55
    outputs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        outdir.mkdir()
        # Consumption mutates a script, so each replay loads its own copy.
        script = FaultScript.from_file(SHIPPED_SCRIPT)
        reports, tracers = zip(*run_campaign(cfg.validate(), range(3), script=script))
        for i, tracer in enumerate(tracers):
            write_trace(outdir / f"trace_{i}.jsonl", tracer.records)
        summary = summarize_campaign(
            reports, seed=55, digest=config_digest(cfg.to_json())
        )
        (outdir / "report.json").write_text(summary.to_json())
        outputs.append(outdir)
    a, b = outputs
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_hardware_measured_quantities_are_config_noise_knobs():
    # Detector quality and physical sensing error cannot be measured in a
    # pure simulation; they enter as explicit noise parameters that default
    # to zero and visibly degrade the subsystem when raised.
    faults = FaultConfig()
    for knob in ("detection_miss_prob", "detection_jitter_sigma_px",
                 "confidence_sigma", "spurious_box_prob",
                 "pressure_noise_sigma_kpa", "ultrasonic_noise_sigma_cm"):
        assert getattr(faults, knob) == 0.0

    cfg = CellConfig()
    world = build_world(cfg)
    camera = vision.CameraModel.from_config(cfg.camera)
    zone_4 = world.zone_stacks(4)
    boxes = vision.ground_truth_boxes(
        camera, {s.id: cfg.stack_top_position(s.zone, s.col) for s in zone_4},
        cfg.layout.stack_top_w_m, cfg.layout.stack_top_d_m,
    )
    rng = np.random.default_rng(5)
    clean = vision.observe(zone_4, boxes, camera, rng=rng, faults=FaultConfig())
    assert len(clean.detections) == len(clean.ground_truth)

    noisy_cfg = FaultConfig(detection_miss_prob=0.5, detection_jitter_sigma_px=3.0)
    missed = sum(
        len(vision.observe(zone_4, boxes, camera, rng=rng, faults=noisy_cfg).detections)
        for _ in range(40)
    )
    assert missed < 40 * len(clean.ground_truth)
