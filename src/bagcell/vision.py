"""Synthetic detection, box matching, metrics, and camera geometry.

Detections are axis-aligned boxes in pixel space. The matcher is greedy in
confidence order with one-to-one assignment at an IoU threshold; metrics can
be computed either from matched box lists or directly from confusion counts
(the O(1) path for large benchmark tallies). The camera is an ideal pinhole
with a fixed extrinsic; per-zone pick depth is anchored by a marker on the
tote rim rather than per-stack depth sensing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from bagcell.world import QRAnchor, Stack, World


class EmptyGroundTruth(ValueError):
    """Metrics were requested against an empty ground-truth set."""


class MalformedBoxFile(ValueError):
    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned detection box in pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float = 1.0
    label: str = "stack"
    frame_id: int = 0

    @property
    def width(self) -> float:
        return max(0.0, self.x_max - self.x_min)

    @property
    def height(self) -> float:
        return max(0.0, self.y_max - self.y_min)

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


def iou(a: Box, b: Box) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0


@dataclass(frozen=True)
class Match:
    pred_index: int
    gt_index: int
    iou: float


def match_detections(
    preds: Sequence[Box], gts: Sequence[Box], iou_threshold: float = 0.5
) -> tuple[List[Match], List[int], List[int]]:
    """Greedy one-to-one assignment, highest-confidence predictions first.

    Matching only pairs boxes from the same frame and the same label. Ties in
    confidence keep input order; ties in overlap prefer the lowest
    ground-truth index. Returns (matches, unmatched_pred_indices,
    unmatched_gt_indices).
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    taken: set[int] = set()
    matches: List[Match] = []
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


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class DetectionMetrics:
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts
    ap50: Optional[float] = None


def metrics_from_counts(tp: int, fp: int, fn: int) -> DetectionMetrics:
    """Precision/recall/F1 straight from confusion counts.

    The all-empty case (no predictions against no ground truth) scores 1.0
    across the board: the detector was right that there was nothing to find.
    """
    if min(tp, fp, fn) < 0:
        raise ValueError("confusion counts must be non-negative")
    if tp == 0 and fp == 0 and fn == 0:
        return DetectionMetrics(1.0, 1.0, 1.0, ConfusionCounts(0, 0, 0))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0.0
        else 0.0
    )
    return DetectionMetrics(precision, recall, f1, ConfusionCounts(tp, fp, fn))


def evaluate(
    preds: Sequence[Box],
    gts: Sequence[Box],
    iou_threshold: float = 0.5,
    with_ap: bool = True,
) -> DetectionMetrics:
    """Score predictions against ground truth at one IoU threshold."""
    if not gts:
        if preds:
            raise EmptyGroundTruth(
                f"{len(preds)} predictions scored against empty ground truth"
            )
        return metrics_from_counts(0, 0, 0)
    matches, unmatched_preds, unmatched_gts = match_detections(
        preds, gts, iou_threshold
    )
    base = metrics_from_counts(len(matches), len(unmatched_preds), len(unmatched_gts))
    ap = ap_at_threshold(preds, matches, len(gts)) if with_ap else None
    return DetectionMetrics(base.precision, base.recall, base.f1, base.counts, ap)


def ap_at_threshold(preds: Sequence[Box], matches: Sequence[Match], n_gt: int) -> float:
    """Average precision with all-point interpolation, from one greedy match.

    ``matches`` comes from :func:`match_detections` over ``preds`` and
    ``n_gt`` ground-truth boxes. Predictions are ranked by confidence across
    all frames, the order in which the matcher let them claim ground truth;
    a matched prediction is a true positive. AP is the area under the
    precision envelope over recall.
    """
    if n_gt == 0:
        raise EmptyGroundTruth("AP requested against empty ground truth")
    if not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))
    matched = {m.pred_index for m in matches}
    tp_flags = np.array([1.0 if pi in matched else 0.0 for pi in order])
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(1.0 - tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    # Monotone precision envelope, then sum rectangle areas between recall steps.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p_env in zip(recall, envelope):
        if r > prev_r:
            ap += (r - prev_r) * p_env
            prev_r = r
    return float(ap)


# --- camera geometry -----------------------------------------------------


@dataclass
class CameraModel:
    """Ideal pinhole camera with a fixed mounting pose.

    ``extrinsic`` maps camera-frame coordinates to the robot base frame
    (i.e. it is the camera's pose). Depth is distance along the optical axis.
    """

    width_px: int
    height_px: int
    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: np.ndarray

    def __post_init__(self) -> None:
        self.extrinsic = np.asarray(self.extrinsic, dtype=float)
        if self.extrinsic.shape != (4, 4):
            raise ValueError("extrinsic must be 4x4")
        self._inverse = np.linalg.inv(self.extrinsic)

    @classmethod
    def from_config(cls, cam) -> "CameraModel":
        return cls(
            width_px=cam.width_px,
            height_px=cam.height_px,
            fx=cam.fx,
            fy=cam.fy,
            cx=cam.cx,
            cy=cam.cy,
            extrinsic=np.asarray(cam.extrinsic, dtype=float),
        )

    def to_camera(self, point_base: Sequence[float]) -> np.ndarray:
        p = np.append(np.asarray(point_base, dtype=float), 1.0)
        return (self._inverse @ p)[:3]

    def project(self, point_base: Sequence[float]) -> Tuple[float, float, float]:
        """Base-frame point -> (px, py, depth). Depth <= 0 means behind the camera."""
        xc, yc, zc = self.to_camera(point_base)
        if zc <= 0.0:
            return (math.nan, math.nan, zc)
        return (self.fx * xc / zc + self.cx, self.fy * yc / zc + self.cy, zc)

    def back_project(self, px: float, py: float, depth: float) -> Tuple[float, float, float]:
        """Pixel + depth -> base-frame point (inverse of :meth:`project`)."""
        xc = (px - self.cx) * depth / self.fx
        yc = (py - self.cy) * depth / self.fy
        p = self.extrinsic @ np.array([xc, yc, depth, 1.0])
        return (float(p[0]), float(p[1]), float(p[2]))

    def in_frame(self, px: float, py: float) -> bool:
        return 0.0 <= px < self.width_px and 0.0 <= py < self.height_px


def pixel_to_robot(
    camera: CameraModel, px: float, py: float, depth: float
) -> Tuple[float, float, float]:
    if depth <= 0.0:
        raise ValueError(f"depth must be > 0, got {depth}")
    return camera.back_project(px, py, depth)


def estimate_zone_depth(camera: CameraModel, anchors: Sequence[QRAnchor], zone: int) -> float:
    """Pick-plane depth for a zone, read off that zone's rim marker."""
    for a in anchors:
        if a.zone == zone:
            depth = float(camera.to_camera(a.pose.xyz())[2])
            return depth + a.depth_offset_m
    raise KeyError(f"no anchor for zone {zone}")


def stack_ground_truth_box(camera: CameraModel, stack: Stack, frame_id: int = 0) -> Optional[Box]:
    """Project a stack's top face into the image; None if outside the frame."""
    cxp, cyp, depth = camera.project(stack.pose.xyz())
    if not (depth > 0.0) or math.isnan(cxp):
        return None
    half_w = 0.5 * stack.top_w_m * camera.fx / depth
    half_h = 0.5 * stack.top_d_m * camera.fy / depth
    if not camera.in_frame(cxp, cyp):
        return None
    return Box(
        x_min=cxp - half_w,
        y_min=cyp - half_h,
        x_max=cxp + half_w,
        y_max=cyp + half_h,
        confidence=1.0,
        frame_id=frame_id,
    )


@dataclass
class Observation:
    frame_id: int
    zone: int
    detections: List[Box]
    ground_truth: List[Box]
    gt_stack_ids: List[int]
    detection_sources: List[int]  # parallel to detections; -1 marks spurious boxes


BASE_CONFIDENCE = 0.92
SPURIOUS_CONFIDENCE = 0.55


def observe(
    world: World,
    camera: CameraModel,
    zone: int,
    rng: np.random.Generator,
    faults,
    frame_id: int = 0,
    force_miss: bool = False,
) -> Observation:
    """Take one synthetic frame of a zone.

    Ground truth covers the stacks still pickable in the zone. Faults degrade
    the detection list: whole-frame misses, per-box misses, pixel jitter,
    confidence noise, and spurious boxes. ``force_miss`` empties the
    detection list outright (used by scripted fault injection).
    """
    gts: List[Box] = []
    gt_ids: List[int] = []
    for s in sorted(world.zone_stacks(zone), key=lambda s: (s.col, s.id)):
        box = stack_ground_truth_box(camera, s, frame_id)
        if box is not None:
            gts.append(box)
            gt_ids.append(s.id)

    dets: List[Box] = []
    sources: List[int] = []
    if not force_miss:
        for box, sid in zip(gts, gt_ids):
            if faults.detection_miss_prob > 0.0 and rng.random() < faults.detection_miss_prob:
                continue
            jx = jy = 0.0
            if faults.detection_jitter_sigma_px > 0.0:
                jx, jy = rng.normal(0.0, faults.detection_jitter_sigma_px, size=2)
            conf = BASE_CONFIDENCE
            if faults.confidence_sigma > 0.0:
                conf += float(rng.normal(0.0, faults.confidence_sigma))
            conf = min(1.0, max(0.05, conf))
            dets.append(
                Box(
                    x_min=box.x_min + jx,
                    y_min=box.y_min + jy,
                    x_max=box.x_max + jx,
                    y_max=box.y_max + jy,
                    confidence=conf,
                    frame_id=frame_id,
                )
            )
            sources.append(sid)
        if faults.spurious_box_prob > 0.0 and rng.random() < faults.spurious_box_prob:
            w = 0.08 * camera.width_px
            h = 0.10 * camera.height_px
            x0 = rng.uniform(0.0, camera.width_px - w)
            y0 = rng.uniform(0.0, camera.height_px - h)
            dets.append(
                Box(x0, y0, x0 + w, y0 + h, confidence=SPURIOUS_CONFIDENCE, frame_id=frame_id)
            )
            sources.append(-1)
    return Observation(
        frame_id=frame_id,
        zone=zone,
        detections=dets,
        ground_truth=gts,
        gt_stack_ids=gt_ids,
        detection_sources=sources,
    )


def select_pick_target(boxes: Sequence[Box]) -> Optional[int]:
    """Index of the leftmost box (min centre x, ties by centre y then order)."""
    if not boxes:
        return None
    best = 0
    for i in range(1, len(boxes)):
        cx, cy = boxes[i].center
        bx, by = boxes[best].center
        if cx < bx or (cx == bx and cy < by):
            best = i
    return best


# --- box-file text I/O ---------------------------------------------------


def save_boxes(path: str | Path, boxes: Iterable[Box]) -> None:
    """Write boxes as ``frame_id label confidence x_min y_min x_max y_max`` lines."""
    lines = []
    for b in boxes:
        lines.append(
            f"{b.frame_id} {b.label} {b.confidence:.6f} "
            f"{b.x_min:.3f} {b.y_min:.3f} {b.x_max:.3f} {b.y_max:.3f}"
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_boxes(path: str | Path) -> List[Box]:
    out: List[Box] = []
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise MalformedBoxFile(str(path), line_no, f"expected 7 fields, got {len(parts)}")
        try:
            frame_id = int(parts[0])
            confidence = float(parts[2])
            coords = [float(v) for v in parts[3:7]]
        except ValueError as exc:
            raise MalformedBoxFile(str(path), line_no, str(exc))
        if coords[2] < coords[0] or coords[3] < coords[1]:
            raise MalformedBoxFile(str(path), line_no, "box extents are inverted")
        if not (0.0 <= confidence <= 1.0):
            raise MalformedBoxFile(str(path), line_no, f"confidence {confidence} outside [0, 1]")
        out.append(
            Box(
                x_min=coords[0],
                y_min=coords[1],
                x_max=coords[2],
                y_max=coords[3],
                confidence=confidence,
                label=parts[1],
                frame_id=frame_id,
            )
        )
    return out
