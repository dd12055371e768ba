import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bagcell.config import CameraConfig, FaultConfig, default_config
from bagcell.vision import (
    Box,
    CameraModel,
    EmptyGroundTruth,
    MalformedBoxFile,
    ap_at_threshold,
    estimate_zone_depth,
    evaluate,
    iou,
    load_boxes,
    match_detections,
    metrics_from_counts,
    observe,
    pixel_to_robot,
    save_boxes,
    select_pick_target,
)
from bagcell.world import build_world


def boxes_strategy():
    coords = st.floats(min_value=0.0, max_value=1800.0)
    size = st.floats(min_value=1.0, max_value=200.0)
    return st.builds(
        lambda x, y, w, h, c: Box(x, y, x + w, y + h, confidence=c),
        coords,
        coords,
        size,
        size,
        st.floats(min_value=0.0, max_value=1.0),
    )


# --- iou ------------------------------------------------------------------


def test_iou_identical_and_disjoint():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Box(20, 20, 30, 30)) == 0.0


def test_iou_half_overlap_reference():
    # Overlap area 50, union 150: matches a pixel-grid count of the same boxes.
    a = Box(0, 0, 10, 10)
    b = Box(5, 0, 15, 10)
    assert iou(a, b) == pytest.approx(50.0 / 150.0, abs=1e-12)


@given(a=boxes_strategy(), b=boxes_strategy())
@settings(max_examples=300, deadline=None)
def test_iou_symmetric_and_bounded(a, b):
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0 + 1e-12
    assert iou(a, a) == pytest.approx(1.0)


# --- matching -------------------------------------------------------------


def unit_row(n, pitch=30.0):
    return [Box(i * pitch, 0, i * pitch + 10, 10) for i in range(n)]


def test_match_exact_predictions():
    gts = unit_row(5)
    matches, fp, fn = match_detections(gts, gts)
    assert len(matches) == 5 and fp == [] and fn == []


def test_match_no_predictions():
    matches, fp, fn = match_detections([], unit_row(8))
    assert matches == [] and fp == [] and len(fn) == 8


def test_match_prefers_highest_overlap():
    g_good = Box(0, 0, 10, 10)
    g_other = Box(6, 0, 16, 10)
    pred = Box(0.5, 0, 10.5, 10, confidence=0.9)
    matches, fp, fn = match_detections([pred], [g_good, g_other], iou_threshold=0.3)
    assert len(matches) == 1
    assert matches[0].gt_index == 0
    assert fn == [1]


def test_match_respects_frame_and_label():
    g = Box(0, 0, 10, 10, frame_id=1)
    p = Box(0, 0, 10, 10, frame_id=2)
    matches, fp, fn = match_detections([p], [g])
    assert matches == [] and fp == [0] and fn == [0]


def brute_force_optimal_tp(preds, gts, thr):
    edges = [
        (i, j)
        for i in range(len(preds))
        for j in range(len(gts))
        if preds[i].frame_id == gts[j].frame_id and iou(preds[i], gts[j]) >= thr
    ]
    best = 0
    for k in range(min(len(preds), len(gts)), 0, -1):
        for combo in itertools.combinations(edges, k):
            if len({i for i, _ in combo}) == k and len({j for _, j in combo}) == k:
                return k
    return best


@given(
    preds=st.lists(boxes_strategy(), max_size=4),
    gts=st.lists(boxes_strategy(), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_match_counts_partition_inputs(preds, gts):
    matches, fp, fn = match_detections(preds, gts)
    assert len(matches) + len(fp) == len(preds)
    assert len(matches) + len(fn) == len(gts)
    optimal = brute_force_optimal_tp(preds, gts, 0.5)
    # Greedy can only lose matches relative to an optimal assignment.
    assert len(matches) <= optimal


def test_greedy_equals_optimal_on_unambiguous_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        # Well-separated boxes: each prediction overlaps at most one truth.
        n = int(rng.integers(1, 5))
        gts = [Box(i * 60.0, 0, i * 60.0 + 20, 20) for i in range(n)]
        preds = []
        for i in range(n):
            if rng.random() < 0.3:
                continue
            dx = float(rng.uniform(-4, 4))
            preds.append(
                Box(
                    i * 60.0 + dx,
                    0,
                    i * 60.0 + 20 + dx,
                    20,
                    confidence=float(rng.uniform(0.3, 1.0)),
                )
            )
        matches, _, _ = match_detections(preds, gts)
        assert len(matches) == brute_force_optimal_tp(preds, gts, 0.5)


# --- metrics --------------------------------------------------------------


def test_metrics_from_reference_counts():
    # tp/fp/fn chosen so precision and recall land exactly on 0.995 / 0.987.
    m = metrics_from_counts(tp=196413, fp=987, fn=2587)
    assert m.precision == pytest.approx(0.995, abs=1e-12)
    assert m.recall == pytest.approx(0.987, abs=1e-12)
    assert m.f1 == pytest.approx(0.991, abs=0.0005)
    assert m.f1 == pytest.approx(0.990984, abs=1e-5)


def test_metrics_all_empty_scores_perfect():
    m = metrics_from_counts(0, 0, 0)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_metrics_rejects_negative_counts():
    with pytest.raises(ValueError):
        metrics_from_counts(-1, 0, 0)


@given(
    tp=st.integers(min_value=0, max_value=10**6),
    fp=st.integers(min_value=0, max_value=10**6),
    fn=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_f1_harmonic_identity(tp, fp, fn):
    m = metrics_from_counts(tp, fp, fn)
    if m.precision + m.recall > 0:
        expect = 2 * m.precision * m.recall / (m.precision + m.recall)
        assert m.f1 == pytest.approx(expect, abs=1e-12)
    else:
        assert m.f1 == 0.0


def test_evaluate_perfect_predictions():
    gts = unit_row(6)
    m = evaluate(gts, gts)
    assert m.precision == m.recall == m.f1 == 1.0
    assert m.ap50 == pytest.approx(1.0)


def test_evaluate_seven_of_eight():
    gts = unit_row(8)
    m = evaluate(gts[:7], gts)
    assert m.precision == 1.0
    assert m.recall == pytest.approx(0.875)
    assert m.f1 == pytest.approx(2 * 0.875 / 1.875, abs=1e-12)


def test_evaluate_empty_ground_truth_is_an_error():
    with pytest.raises(EmptyGroundTruth):
        evaluate(unit_row(2), [])
    m = evaluate([], [])
    assert m.precision == m.recall == m.f1 == 1.0


def test_ap_hand_computed_case():
    g = unit_row(3, pitch=40.0)
    preds = [
        Box(*(g[0].x_min, g[0].y_min, g[0].x_max, g[0].y_max), confidence=0.9),
        Box(500, 500, 510, 510, confidence=0.8),  # false positive
        Box(*(g[1].x_min, g[1].y_min, g[1].x_max, g[1].y_max), confidence=0.7),
        Box(*(g[2].x_min, g[2].y_min, g[2].x_max, g[2].y_max), confidence=0.6),
    ]
    # Ranked precision: 1, 1/2, 2/3, 3/4 at recalls 1/3, 1/3, 2/3, 1.
    # All-point envelope gives 1/3*1 + 1/3*3/4 + 1/3*3/4 = 5/6.
    matches, _, _ = match_detections(preds, g)
    assert ap_at_threshold(preds, matches, len(g)) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert ap_at_threshold([], [], len(g)) == 0.0


# --- camera geometry ------------------------------------------------------


def default_camera():
    return CameraModel.from_config(CameraConfig())


def test_back_project_identity_extrinsic_examples():
    cam = CameraModel(1920, 1080, 1000.0, 1000.0, 960.0, 540.0, np.eye(4))
    assert pixel_to_robot(cam, 960.0, 540.0, 1.0) == pytest.approx((0.0, 0.0, 1.0))
    assert pixel_to_robot(cam, 1160.0, 540.0, 1.0) == pytest.approx((0.2, 0.0, 1.0))


def test_back_project_rejects_bad_depth():
    cam = default_camera()
    with pytest.raises(ValueError):
        pixel_to_robot(cam, 960.0, 540.0, 0.0)
    with pytest.raises(ValueError):
        pixel_to_robot(cam, 960.0, 540.0, -0.5)


@given(
    px=st.floats(min_value=0.0, max_value=1919.0),
    py=st.floats(min_value=0.0, max_value=1079.0),
    depth=st.floats(min_value=0.05, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
def test_project_back_project_round_trip(px, py, depth):
    cam = default_camera()
    point = cam.back_project(px, py, depth)
    px2, py2, depth2 = cam.project(point)
    assert px2 == pytest.approx(px, abs=1e-6)
    assert py2 == pytest.approx(py, abs=1e-6)
    assert depth2 == pytest.approx(depth, abs=1e-9)


def test_extrinsic_must_be_4x4():
    with pytest.raises(ValueError):
        CameraModel(1920, 1080, 1000.0, 1000.0, 960.0, 540.0, np.eye(3))


def test_zone_depth_reads_anchor_plane():
    cfg = default_config()
    world = build_world(cfg)
    cam = CameraModel.from_config(cfg.camera)
    # Camera sits 1.05 m up; zone 1 stack tops are at z = 0.30.
    assert estimate_zone_depth(cam, world.tote.anchors, 1) == pytest.approx(0.75, abs=1e-9)
    with pytest.raises(KeyError):
        estimate_zone_depth(cam, world.tote.anchors, 9)


# --- synthetic observation ------------------------------------------------


def test_observe_fault_free_matches_ground_truth():
    cfg = default_config()
    world = build_world(cfg)
    cam = CameraModel.from_config(cfg.camera)
    rng = np.random.default_rng(0)
    obs = observe(world, cam, zone=1, rng=rng, faults=FaultConfig())
    assert len(obs.ground_truth) == 4
    assert len(obs.detections) == 4
    assert obs.detection_sources == obs.gt_stack_ids
    for det, gt in zip(obs.detections, obs.ground_truth):
        assert det.x_min == gt.x_min and det.y_max == gt.y_max


def test_observe_total_miss_and_forced_miss():
    cfg = default_config()
    world = build_world(cfg)
    cam = CameraModel.from_config(cfg.camera)
    rng = np.random.default_rng(0)
    all_miss = observe(world, cam, 1, rng, FaultConfig(detection_miss_prob=1.0))
    assert all_miss.detections == [] and len(all_miss.ground_truth) == 4
    forced = observe(world, cam, 1, rng, FaultConfig(), force_miss=True)
    assert forced.detections == []


def test_observe_miss_rate_matches_probability():
    cfg = default_config()
    world = build_world(cfg)
    cam = CameraModel.from_config(cfg.camera)
    rng = np.random.default_rng(99)
    faults = FaultConfig(detection_miss_prob=0.125)
    total = missed = 0
    for frame in range(80):
        obs = observe(world, cam, zone=4, rng=rng, faults=faults, frame_id=frame)
        total += len(obs.ground_truth)
        missed += len(obs.ground_truth) - len(obs.detections)
    assert total == 80 * 8
    assert abs(missed / total - 0.125) < 0.05


def test_observe_deterministic_per_seed():
    cfg = default_config()
    world = build_world(cfg)
    cam = CameraModel.from_config(cfg.camera)
    faults = FaultConfig(
        detection_miss_prob=0.2, detection_jitter_sigma_px=2.0, spurious_box_prob=0.2
    )
    a = observe(world, cam, 2, np.random.default_rng(5), faults)
    b = observe(world, cam, 2, np.random.default_rng(5), faults)
    assert a.detections == b.detections
    assert a.detection_sources == b.detection_sources


# --- pick target ----------------------------------------------------------


def test_select_pick_target_rules():
    assert select_pick_target([]) is None
    row = unit_row(3)
    assert select_pick_target(row) == 0
    tied = [Box(100, 90, 110, 100), Box(100, 50, 110, 60)]
    assert select_pick_target(tied) == 1  # same centre x, lower centre y wins


@given(perm=st.permutations(list(range(5))))
@settings(max_examples=60, deadline=None)
def test_select_pick_target_permutation_invariant(perm):
    base = [Box(i * 25.0, (i * 7) % 30, i * 25.0 + 10, (i * 7) % 30 + 10) for i in range(5)]
    shuffled = [base[i] for i in perm]
    assert shuffled[select_pick_target(shuffled)] == base[select_pick_target(base)]


# --- box-file round trip --------------------------------------------------


def test_box_file_round_trip(tmp_path):
    boxes = [
        Box(1.0, 2.0, 3.0, 4.0, confidence=0.5, frame_id=0),
        Box(10.0, 20.0, 30.0, 40.0, confidence=1.0, frame_id=3),
    ]
    path = tmp_path / "boxes.txt"
    save_boxes(path, boxes)
    loaded = load_boxes(path)
    assert [b.frame_id for b in loaded] == [0, 3]
    for orig, back in zip(boxes, loaded):
        assert back.x_min == pytest.approx(orig.x_min, abs=1e-3)
        assert back.confidence == pytest.approx(orig.confidence, abs=1e-6)


def test_box_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "boxes.txt"
    path.write_text("# header\n\n0 stack 0.9 0 0 10 10\n")
    assert len(load_boxes(path)) == 1


def test_box_file_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 stack 0.9 0 0 10\n")
    with pytest.raises(MalformedBoxFile) as info:
        load_boxes(path)
    assert info.value.line_no == 1

    path.write_text("0 stack 0.9 0 0 10 10\n0 stack nope 0 0 10 10\n")
    with pytest.raises(MalformedBoxFile) as info:
        load_boxes(path)
    assert info.value.line_no == 2

    path.write_text("0 stack 0.9 10 0 0 10\n")
    with pytest.raises(MalformedBoxFile):
        load_boxes(path)

    path.write_text("0 stack 1.5 0 0 10 10\n")
    with pytest.raises(MalformedBoxFile):
        load_boxes(path)
