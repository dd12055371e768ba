import hashlib
import itertools
import json
import math
import random
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from bagcell.cli import main
from bagcell.config import CameraConfig, CellConfig, FaultConfig
from bagcell.vision import (
    Box,
    CameraModel,
    ConfusionCounts,
    EmptyGroundTruth,
    MalformedBoxFile,
    Match,
    ap_at_threshold,
    evaluate,
    ground_truth_boxes,
    load_boxes,
    match_detections,
    metrics_from_counts,
    observe,
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


def iou(a, b):
    """Reference IoU, as the matcher computed it before it was inlined."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = area(a) + area(b) - inter
    return inter / union if union > 0.0 else 0.0


def area(b):
    return max(0.0, b.x_max - b.x_min) * max(0.0, b.y_max - b.y_min)


def match_iou(pred, gt):
    """The IoU the matcher records for one pair, 0.0 when they do not match."""
    matches, _, _ = match_detections([pred], [gt], iou_threshold=0.0)
    return matches[0].iou if matches else 0.0


def test_iou_identical_and_disjoint():
    a = Box(0, 0, 10, 10)
    assert match_detections([a], [a])[0] == [Match(pred_index=0, gt_index=0, iou=1.0)]
    assert match_detections([a], [Box(20, 20, 30, 30)], iou_threshold=0.0)[0] == []


def test_iou_half_overlap_reference():
    # Overlap area 50, union 150: matches a pixel-grid count of the same boxes.
    a = Box(0, 0, 10, 10)
    b = Box(5, 0, 15, 10)
    assert match_iou(a, b) == pytest.approx(50.0 / 150.0, abs=1e-12)


@given(a=boxes_strategy(), b=boxes_strategy())
@settings(max_examples=300, deadline=None)
def test_iou_symmetric_and_bounded(a, b):
    ab = match_iou(a, b)
    assert ab == match_iou(b, a) == iou(a, b)
    assert 0.0 <= ab <= 1.0 + 1e-12
    assert match_iou(a, a) == pytest.approx(1.0)


def test_box_and_match_are_immutable_and_keep_their_constructors():
    b = Box(1, 2, 3, 4)
    assert (b.confidence, b.label, b.frame_id) == (1.0, "stack", 0)
    assert b.center == (2.0, 3.0)
    named = Box(x_min=1, y_min=2, x_max=3, y_max=4, confidence=0.5, label="bag", frame_id=7)
    assert named == Box(1, 2, 3, 4, 0.5, "bag", 7)
    assert (named.x_max, named.label, named.frame_id) == (3, "bag", 7)
    with pytest.raises(AttributeError):
        b.x_min = 5.0
    m = Match(pred_index=0, gt_index=1, iou=0.5)
    assert (m.pred_index, m.gt_index, m.iou) == (0, 1, 0.5)
    with pytest.raises(AttributeError):
        m.iou = 1.0


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


def all_pairs_match(preds, gts, iou_threshold=0.5):
    """The matcher as it was before grouping: every prediction scans every truth."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    taken = set()
    matches = []
    for pi in order:
        p = preds[pi]
        best_j = -1
        best_iou = iou_threshold
        for gj, g in enumerate(gts):
            if gj in taken or g.frame_id != p.frame_id or g.label != p.label:
                continue
            ov = iou(p, g)
            if ov > best_iou or (ov == best_iou and ov > 0.0 and best_j == -1):
                best_iou = ov
                best_j = gj
        if best_j >= 0:
            taken.add(best_j)
            matches.append(Match(pred_index=pi, gt_index=best_j, iou=best_iou))
    matched_preds = {m.pred_index for m in matches}
    unmatched_preds = [i for i in range(len(preds)) if i not in matched_preds]
    unmatched_gts = [j for j in range(len(gts)) if j not in taken]
    return matches, unmatched_preds, unmatched_gts


def frame_label_pool():
    # Small integer boxes on a small canvas overlap often and tie in IoU;
    # drawing both lists from one pool repeats boxes outright.
    corner = st.integers(min_value=0, max_value=40)
    size = st.integers(min_value=5, max_value=40)
    box = st.builds(
        lambda x, y, w, h, c, f, lab: Box(x, y, x + w, y + h, c, lab, f),
        corner,
        corner,
        size,
        size,
        st.sampled_from([0.3, 0.6, 0.9]),
        st.sampled_from([0, 1, 2]),
        st.sampled_from(["stack", "bag"]),
    )
    return st.lists(box, min_size=1, max_size=8)


@given(
    data=st.data(),
    pool=frame_label_pool(),
    thr=st.sampled_from([0.0, 0.1, 0.5]),
)
@settings(max_examples=400, deadline=None)
def test_match_equals_all_pairs_reference(data, pool, thr):
    preds = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    gts = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    assert match_detections(preds, gts, thr) == all_pairs_match(preds, gts, thr)


def test_an_iou_tied_at_the_threshold_takes_the_lowest_ground_truth():
    pred = Box(0, 0, 10, 10)
    gts = [Box(5, 0, 15, 10), Box(-5, 0, 5, 10)]  # IoU 1/3 with each
    thr = iou(pred, gts[0])
    assert iou(pred, gts[1]) == thr
    got = match_detections([pred], gts, thr)
    assert got == all_pairs_match([pred], gts, thr)
    assert got == ([Match(0, 0, thr)], [], [1])


def test_a_claimed_ground_truth_is_gone_for_a_lower_ranked_better_fit():
    g = Box(0, 0, 10, 10)
    other = Box(3, 0, 13, 10)
    high = Box(1, 0, 11, 10, confidence=0.9)  # ranked first: IoU 9/11 with g, 2/3 with other
    low = Box(0, 0, 10, 10, confidence=0.5)  # IoU 1 with g, 7/13 with other
    preds = [low, high]
    got = match_detections(preds, [g, other])
    assert got == all_pairs_match(preds, [g, other])
    assert got[0] == [Match(1, 0, iou(high, g)), Match(0, 1, iou(low, other))]
    alone = match_detections(preds, [g])
    assert alone == all_pairs_match(preds, [g]) == ([Match(1, 0, iou(high, g))], [0], [])


def test_duplicate_ground_truth_in_one_group_is_claimed_in_index_order():
    g = Box(0, 0, 10, 10, frame_id=1)
    gts = [g, Box(0, 0, 10, 10, frame_id=0), g, g]
    preds = [g._replace(confidence=0.4), g._replace(confidence=0.8)]
    got = match_detections(preds, gts)
    assert got == all_pairs_match(preds, gts)
    assert got == ([Match(1, 0, 1.0), Match(0, 2, 1.0)], [], [1, 3])


def test_zero_area_boxes_match_nothing_even_at_threshold_zero():
    flat = [Box(0, 0, 10, 0), Box(0, 0, 0, 10), Box(5, 5, 5, 5)]
    solid = [Box(0, 0, 10, 10)]
    for preds, gts in ((flat, flat), (flat, solid), (solid, flat)):
        got = match_detections(preds, gts, 0.0)
        assert got == all_pairs_match(preds, gts, 0.0)
        assert got[0] == []


def test_a_negative_iou_threshold_is_refused():
    with pytest.raises(ValueError):
        match_detections([Box(0, 0, 1, 1)], [Box(5, 5, 6, 6)], -0.1)
    with pytest.raises(ValueError):
        match_detections([], [], math.nan)


def float_pool():
    # Float extents with the IoU edge cases: zero width or height, -0.0,
    # boxes that share an edge (coordinates repeat across boxes), and int and
    # float coordinates mixed. Quotients k / 83,333 fill the mantissa, so
    # areas and unions round. Confidences tie, including 0 against -0.0.
    coord = st.one_of(
        st.sampled_from([-0.0, 0.0, 0, 1, 2.5, 3, 10, 10.0, 1 / 3]),
        st.floats(min_value=0.0, max_value=12.0),
        st.integers(min_value=1, max_value=10**6).map(lambda k: k / 83_333),
    )
    box = st.builds(
        lambda xs, ys, c, f, lab: Box(min(xs), min(ys), max(xs), max(ys), c, lab, f),
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.sampled_from([0.0, -0.0, 0.3, 0.6, 1, 1.0]),
        st.sampled_from([0, 1]),
        st.sampled_from(["stack", "bag"]),
    )
    return st.lists(box, min_size=1, max_size=8)


def bits(matches):
    return [(m.pred_index, m.gt_index, m.iou.hex()) for m in matches]


@given(
    data=st.data(),
    pool=float_pool(),
    thr=st.sampled_from([0.0, 0.1, 0.5, 1 / 3, 1.0]),
)
@settings(max_examples=400, deadline=None)
def test_inlined_iou_is_bit_identical_to_the_reference(data, pool, thr):
    preds = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    gts = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    got = match_detections(preds, gts, thr)
    want = all_pairs_match(preds, gts, thr)
    assert got == want
    assert bits(got[0]) == bits(want[0])
    for a, b in itertools.product(pool, repeat=2):
        if a.frame_id == b.frame_id and a.label == b.label:
            assert match_iou(a, b).hex() == iou(a, b).hex()


def reference_ap(preds, matches, n_gt):
    """``ap_at_threshold`` as it was before it shared the matcher's ranking."""
    if not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    matched = {m.pred_index for m in matches}
    tp_flags = np.array([1.0 if pi in matched else 0.0 for pi in order])
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(1.0 - tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p_env in zip(recall, envelope):
        if r > prev_r:
            ap += (r - prev_r) * p_env
            prev_r = r
    return float(ap)


@given(data=st.data(), pool=float_pool(), thr=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_ap_equals_the_reference_exactly(data, pool, thr):
    # Up to 64 predictions from at most 8 boxes and 6 confidences: tied
    # ranks, and long runs of misses between the hits that the envelope is
    # read at.
    preds = data.draw(st.lists(st.sampled_from(pool), max_size=64))
    gts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    matches = all_pairs_match(preds, gts, thr)[0]
    want = reference_ap(preds, matches, len(gts))
    assert ap_at_threshold(preds, matches, len(gts)) == want
    assert evaluate(preds, gts, thr).ap50 == want


def test_evaluate_scales_linearly_in_frames():
    # 1,000 frames x 8 stacks. Scanning all ground truth for every prediction
    # is 64 M comparisons and takes seconds; grouping by frame and label keeps
    # it well under the bound. A gate: if it gets close, make the code faster.
    gts, preds = [], []
    for frame in range(1000):
        for k in range(8):
            x = 60.0 * k
            gts.append(Box(x, 0.0, x + 40.0, 40.0, frame_id=frame))
            if (frame + k) % 10:
                preds.append(Box(x + 2.0, 1.0, x + 42.0, 41.0, 0.5 + k / 20, frame_id=frame))
    tic = time.perf_counter()
    m = evaluate(preds, gts)
    elapsed = time.perf_counter() - tic
    assert m.counts == ConfusionCounts(tp=7200, fp=0, fn=800)
    assert elapsed < 1.0


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
    with pytest.raises(EmptyGroundTruth):
        ap_at_threshold(unit_row(2), [], 0)
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
    assert cam.back_project(960.0, 540.0, 1.0) == pytest.approx((0.0, 0.0, 1.0))
    assert cam.back_project(1160.0, 540.0, 1.0) == pytest.approx((0.2, 0.0, 1.0))


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
    cfg = CellConfig()
    cam = CameraModel.from_config(cfg.camera)
    # Camera sits 1.05 m up; zone 1 stack tops are at z = 0.30.
    assert cam.to_camera(cfg.rim_marker_position(1))[2] == pytest.approx(0.75, abs=1e-9)


def test_ground_truth_boxes_skip_tops_outside_the_frame_or_behind_the_camera():
    cam = default_camera()  # 1.05 m above the tote, looking down
    tops = {0: (0.0, -0.69, 0.30), 1: (5.0, -0.69, 0.30), 2: (0.0, -0.69, 1.20)}
    boxes = ground_truth_boxes(cam, tops, 0.10, 0.15)
    assert list(boxes) == [0]
    # A 0.10 x 0.15 m face 0.75 m from the lens, centred on the principal point.
    assert boxes[0] == pytest.approx(Box(960.0 - 200 / 3, 440.0, 960.0 + 200 / 3, 640.0))


# --- synthetic observation ------------------------------------------------


def zone_view(zone):
    """The default cell's camera, ``zone``'s pickable stacks and every stack's box."""
    cfg = CellConfig()
    world = build_world(cfg)
    cam = CameraModel.from_config(cfg.camera)
    tops = {s.id: cfg.stack_top_position(s.zone, s.col) for s in world.stacks}
    boxes = ground_truth_boxes(cam, tops, cfg.layout.stack_top_w_m, cfg.layout.stack_top_d_m)
    return cam, world.zone_stacks(zone), boxes


def test_observe_fault_free_matches_ground_truth():
    cam, zone_1, boxes = zone_view(1)
    rng = np.random.default_rng(0)
    obs = observe(zone_1, boxes, cam, rng=rng, faults=FaultConfig())
    assert len(obs.ground_truth) == 4
    assert len(obs.detections) == 4
    assert obs.detection_sources == [s.id for s in zone_1]
    for det, gt in zip(obs.detections, obs.ground_truth):
        assert det.x_min == gt.x_min and det.y_max == gt.y_max


def test_observe_total_miss_and_forced_miss():
    cam, zone_1, boxes = zone_view(1)
    rng = np.random.default_rng(0)
    all_miss = observe(zone_1, boxes, cam, rng, FaultConfig(detection_miss_prob=1.0))
    assert all_miss.detections == [] and len(all_miss.ground_truth) == 4
    forced = observe(zone_1, boxes, cam, rng, FaultConfig(), miss=True)
    assert forced.detections == []
    pinned = observe(zone_1, boxes, cam, rng, FaultConfig(detection_miss_prob=1.0), miss=False)
    assert len(pinned.detections) == 4


def test_observe_miss_rate_matches_probability():
    cam, zone_4, boxes = zone_view(4)
    rng = np.random.default_rng(99)
    faults = FaultConfig(detection_miss_prob=0.125)
    total = missed = 0
    for _ in range(80):
        obs = observe(zone_4, boxes, cam, rng=rng, faults=faults)
        total += len(obs.ground_truth)
        missed += len(obs.ground_truth) - len(obs.detections)
    assert total == 80 * 8
    assert abs(missed / total - 0.125) < 0.05


def test_observe_deterministic_per_seed():
    cam, zone_2, boxes = zone_view(2)
    faults = FaultConfig(
        detection_miss_prob=0.2, detection_jitter_sigma_px=2.0, spurious_box_prob=0.2
    )
    a = observe(zone_2, boxes, cam, np.random.default_rng(5), faults)
    b = observe(zone_2, boxes, cam, np.random.default_rng(5), faults)
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

    # A NaN coordinate fails every extent comparison, so it must be caught first.
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0 stack 0.9 0 0 10 10\n0 stack 0.9 {bad} 1 2 3\n")
        with pytest.raises(MalformedBoxFile, match="finite") as info:
            load_boxes(path)
        assert info.value.line_no == 2

    # An area of 1e400 is inf, and the matcher's union inf - inf is NaN.
    path.write_text("0 stack 0.9 0 0 1e154 8e153\n0 stack 0.9 0 0 1e200 1e200\n")
    with pytest.raises(MalformedBoxFile, match="area") as info:
        load_boxes(path)
    assert info.value.line_no == 2
    path.write_text("0 stack 0.9 0 0 1e154 8e153\n")  # area 8e307: doubled, still finite
    assert len(load_boxes(path)) == 1
    # A line that breaks an older rule as well keeps that rule's reason.
    for line, reason in (
        ("0 stack 0.9 inf 0 1e200 1e200", "finite"),
        ("0 stack 0.9 1e300 0 -1e300 1e200", "inverted"),
        ("0 stack 1.5 0 0 1e200 1e200", "confidence"),
    ):
        path.write_text(line + "\n")
        with pytest.raises(MalformedBoxFile, match=reason):
            load_boxes(path)


def test_box_file_reads_boxes_equal_to_keyword_built_ones(tmp_path):
    path = tmp_path / "boxes.txt"
    path.write_text("3 bag 0.25 1 2 3.5 4\n0 stack 1 0 0 0 0\n")
    loaded = load_boxes(path)
    assert loaded == [
        Box(x_min=1.0, y_min=2.0, x_max=3.5, y_max=4.0, confidence=0.25, label="bag", frame_id=3),
        Box(x_min=0.0, y_min=0.0, x_max=0.0, y_max=0.0, confidence=1.0, label="stack", frame_id=0),
    ]
    for box in loaded:
        assert type(box) is Box
        assert [type(v) for v in box] == [float] * 5 + [str, int]
        assert box.center == ((box.x_min + box.x_max) / 2.0, (box.y_min + box.y_max) / 2.0)


# Extents from small integers (which overlap and tie), from plain floats, and
# from magnitudes whose areas underflow to 0 or, doubled, overflow.
_EXTENT = st.one_of(
    st.integers(0, 40).map(float),
    st.floats(0.0, 50.0),
    st.sampled_from([1e-200, 1e150, 1e154, 1e155, 1e200]),
)
_BOX_LINE = st.builds(
    lambda f, lab, c, x, y, w, h: f"{f} {lab} {c} {x!r} {y!r} {x + w!r} {y + h!r}",
    st.sampled_from([0, 1]),
    st.sampled_from(["stack", "bag"]),
    st.sampled_from([0.3, 0.6, 0.9]),
    _EXTENT, _EXTENT, _EXTENT, _EXTENT,
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(lines=["0 stack 0.9 0 0 1e200 1e200"])
@given(lines=st.lists(_BOX_LINE, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=10) if pool else st.just([])))
def test_a_box_file_scored_against_itself_matches_every_box_with_area(tmp_path, capsys, lines):
    path = tmp_path / "boxes.txt"
    path.write_text("".join(line + "\n" for line in lines))
    code = main(["eval", "--preds", str(path), "--gts", str(path)])
    out, err = capsys.readouterr()
    if code == 1:
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1
        return
    assert code == 0, err
    boxes = load_boxes(path)
    with_area = sum((b.x_max - b.x_min) * (b.y_max - b.y_min) > 0.0 for b in boxes)
    scores = json.loads(out)
    assert (scores["tp"], scores["fp"], scores["fn"]) == (
        with_area, len(boxes) - with_area, len(boxes) - with_area)


def seeded_box_pair(seed, frames, stacks):
    """Ground truth and predictions on a grid whose neighbours overlap.

    A prediction is its stack's box with each edge moved by a normal draw
    (sigma 15 px), so IoUs spread across the thresholds; 5 % of stacks are
    missed, and each frame gets spurious boxes of either label, some of them
    flat. Confidences repeat, so ranks tie.
    """
    rng = random.Random(seed)
    preds, gts = [], []
    for frame in range(frames):
        for s in range(stacks):
            row, col = divmod(s, 4)
            x0 = col * 300.0 + rng.uniform(-20.0, 20.0)
            y0 = row * 350.0 + rng.uniform(-20.0, 20.0)
            gt = Box(x0, y0, x0 + rng.uniform(150.0, 330.0), y0 + rng.uniform(200.0, 380.0),
                     1.0, "stack", frame)
            gts.append(gt)
            if rng.random() < 0.05:
                continue
            px0 = gt.x_min + rng.gauss(0.0, 15.0)
            py0 = gt.y_min + rng.gauss(0.0, 15.0)
            px1 = max(px0, gt.x_max + rng.gauss(0.0, 15.0))
            py1 = max(py0, gt.y_max + rng.gauss(0.0, 15.0))
            preds.append(Box(px0, py0, px1, py1, rng.choice([0.3, 0.55, 0.8, 0.92, 1.0]),
                             "stack", frame))
        while rng.random() < 0.3:
            x0, y0 = rng.uniform(0.0, 1100.0), rng.uniform(0.0, 600.0)
            preds.append(Box(x0, y0, x0 + rng.uniform(0.0, 250.0), y0 + rng.uniform(0.0, 300.0),
                             round(rng.random(), 2), rng.choice(["stack", "bag"]), frame))
    return preds, gts


# SHA-256 of `bagcell eval` stdout on the pair above. A change to the matcher,
# the ranking, the AP or the box reader that moves one scored byte fails here.
EVAL_STDOUT_SHA256 = {
    "0.5": "7ac0b3e1adff1911b70c1aa4437ae6965e8d2021f1a5d0d35b5ad999900adeb7",
    "0.0": "630a49c067c570ba005e0a0edf6628ac275aa135de6787dd33f27b1d2b70c18b",
    "0.75": "06709f249085b9cdb9bfee7697fd36dbc9d7c686ec38d2ed1ccd996b676a0eed",
}


def test_eval_stdout_is_pinned_on_a_seeded_200_frame_pair(tmp_path, capsys):
    preds, gts = seeded_box_pair(35, 200, 8)
    assert (len(preds), len(gts)) == (1605, 1600)
    save_boxes(tmp_path / "preds.txt", preds)
    save_boxes(tmp_path / "gts.txt", gts)
    argv = ["eval", "--preds", str(tmp_path / "preds.txt"), "--gts", str(tmp_path / "gts.txt")]
    for thr, want in EVAL_STDOUT_SHA256.items():
        assert main(argv + ["--iou", thr]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, thr
