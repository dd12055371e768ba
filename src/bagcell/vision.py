"""Synthetic detection, box matching, metrics, and camera geometry.

Detections are axis-aligned boxes in pixel space. The matcher is greedy in
confidence order with one-to-one assignment at an IoU threshold, per image as
in the PASCAL VOC protocol: ground truth is grouped by frame and label, a
prediction scans only the untaken ground truth of its own group, and the box
it claims leaves the group, so scoring time is linear in the number of frames.
Metrics can be computed either from matched box lists or directly from
confusion counts (the O(1) path for large benchmark tallies). The camera is an
ideal pinhole with a fixed extrinsic. Stacks never move, so a config draws
each stack's top face once (``ground_truth_boxes``) and ``observe`` looks the
boxes up frame by frame.

Scoring is plain Python float arithmetic. numpy is imported only in
``CameraModel.__init__``, for the extrinsic and its inverse, so
``bagcell eval`` (load two box files, match, score) never loads it.
"""

import functools
import math
from collections import defaultdict
from itertools import compress
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from bagcell.config import MalformedInput, read_text

if TYPE_CHECKING:
    import numpy as np

    from bagcell.world import Stack


class EmptyGroundTruth(ValueError):
    """Metrics were requested against an empty ground-truth set."""


class MalformedBoxFile(MalformedInput):
    """A box file that cannot be read, or a line of it that is not a box."""


class Box(NamedTuple):
    """Axis-aligned detection box in pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float = 1.0
    label: str = "stack"
    frame_id: int = 0

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


class Match(NamedTuple):
    pred_index: int
    gt_index: int
    iou: float


@functools.lru_cache(maxsize=1)  # evaluate ranks once for the matcher and the AP
def _ranking(confidences: Tuple[float, ...]) -> Tuple[int, ...]:
    """Indices in ``(-confidence, index)`` order: a stable descending sort."""
    return tuple(sorted(range(len(confidences)), key=confidences.__getitem__, reverse=True))


def match_detections(
    preds: Sequence[Box], gts: Sequence[Box], iou_threshold: float = 0.5
) -> tuple[List[Match], List[int], List[int]]:
    """Greedy one-to-one assignment, highest-confidence predictions first.

    Matching only pairs boxes from the same frame and the same label. Ties in
    confidence keep input order; ties in overlap prefer the lowest
    ground-truth index. ``iou_threshold`` must be at least 0, else
    ``ValueError``. Returns (matches, unmatched_pred_indices,
    unmatched_gt_indices).
    """
    if not iou_threshold >= 0.0:  # pairs that do not overlap are skipped as IoU 0
        raise ValueError(f"iou_threshold {iou_threshold} is not >= 0")
    # Untaken ground truth per (frame, label), indices ascending, with its
    # extents and area computed once; a prediction scans only its own group,
    # and the ground truth it claims leaves the group.
    groups: Dict[Tuple[int, str], List[tuple]] = defaultdict(list)
    for gj, (x0, y0, x1, y1, _, label, frame_id) in enumerate(gts):
        w, h = x1 - x0, y1 - y0
        area = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
        groups[frame_id, label].append((gj, x0, y0, x1, y1, area))
    new = tuple.__new__
    matches: List[Match] = []
    for pi in _ranking(tuple([p.confidence for p in preds])):
        px0, py0, px1, py1, _, label, frame_id = preds[pi]
        group = groups.get((frame_id, label))
        if not group:
            continue
        w, h = px1 - px0, py1 - py0
        p_area = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
        best = None
        best_iou = iou_threshold
        for g in group:
            _, gx0, gy0, gx1, gy1, g_area = g
            # IoU(pred, gt), operands in min/max(pred, gt) order: every float is
            # unchanged. A pair apart on either axis has IoU 0, which can
            # neither beat ``best_iou`` nor take the tie branch.
            ix = (gx1 if gx1 < px1 else px1) - (gx0 if gx0 > px0 else px0)
            if ix <= 0.0:
                continue
            iy = (gy1 if gy1 < py1 else py1) - (gy0 if gy0 > py0 else py0)
            if iy <= 0.0:
                continue
            union = p_area + g_area - (inter := ix * iy)
            ov = inter / union if union > 0.0 else 0.0
            if ov > best_iou or (ov == best_iou and ov > 0.0 and best is None):
                best_iou = ov
                best = g
        if best is not None:
            group.remove(best)
            matches.append(new(Match, (pi, best[0], best_iou)))
    matched_preds = {m.pred_index for m in matches}
    taken = {m.gt_index for m in matches}
    unmatched_preds = [i for i in range(len(preds)) if i not in matched_preds]
    unmatched_gts = [j for j in range(len(gts)) if j not in taken]
    return matches, unmatched_preds, unmatched_gts


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


class DetectionMetrics(NamedTuple):
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
    ap = ap_at_threshold(preds, matches, len(gts))
    return base._replace(ap50=ap)


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
    matched = {m.pred_index for m in matches}
    order = _ranking(tuple([p.confidence for p in preds]))
    # Precision m / k at the m-th hit's 1-based rank k. Between hits it only
    # falls, so the envelope over all ranks is the running max of these from
    # the last hit back, and recall steps up by 1 / n_gt at each hit.
    hit_ranks = compress(range(1, len(order) + 1), map(matched.__contains__, order))
    envelope = [m / k for m, k in enumerate(hit_ranks, 1)]
    p_env = 0.0
    for i in range(len(envelope) - 1, -1, -1):
        if envelope[i] > p_env:
            p_env = envelope[i]
        envelope[i] = p_env
    prev_r = 0.0
    ap = 0.0
    for m, p_env in enumerate(envelope, 1):
        r = m / n_gt
        ap += (r - prev_r) * p_env
        prev_r = r
    return ap


# --- camera geometry -----------------------------------------------------


class CameraModel:
    """Ideal pinhole camera with a fixed mounting pose.

    ``extrinsic`` maps camera-frame coordinates to the robot base frame
    (i.e. it is the camera's pose); it must be a 4x4 matrix, else
    ``ValueError``, and invertible, with a finite inverse, else
    ``np.linalg.LinAlgError``. Depth is distance along the optical axis.
    """

    def __init__(
        self,
        width_px: int,
        height_px: int,
        fx: float,
        fy: float,
        cx: float,
        cy: float,
        extrinsic: Sequence[Sequence[float]],
    ):
        import numpy as np

        self.width_px, self.height_px = width_px, height_px
        self.fx, self.fy, self.cx, self.cy = fx, fy, cx, cy
        self.extrinsic = np.asarray(extrinsic, dtype=float)
        if self.extrinsic.shape != (4, 4):
            raise ValueError("extrinsic must be 4x4")
        self._inverse = np.linalg.inv(self.extrinsic)
        if not np.isfinite(self._inverse).all():  # a near-singular inverse overflows
            raise np.linalg.LinAlgError("extrinsic inverse is not finite")

    @classmethod
    def from_config(cls, cam) -> "CameraModel":
        return cls(cam.width_px, cam.height_px, cam.fx, cam.fy, cam.cx, cam.cy, cam.extrinsic)

    def to_camera(self, point_base: Sequence[float]) -> "np.ndarray":
        x, y, z = point_base
        return (self._inverse @ (x, y, z, 1.0))[:3]

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
        p = self.extrinsic @ (xc, yc, depth, 1.0)
        return (float(p[0]), float(p[1]), float(p[2]))

    def in_frame(self, px: float, py: float) -> bool:
        return 0.0 <= px < self.width_px and 0.0 <= py < self.height_px


def ground_truth_boxes(
    camera: CameraModel, tops: Mapping[int, Sequence[float]], width_m: float, depth_m: float
) -> Dict[int, Box]:
    """Each stack's top face in the image, by stack id, from its base-frame top centre.

    The face is ``width_m`` by ``depth_m`` around the projected centre. A top
    outside the frame gets no box, and so does one behind the camera, which
    ``project`` puts at NaN pixels.
    """
    boxes: Dict[int, Box] = {}
    for sid, top in tops.items():
        cxp, cyp, depth = camera.project(top)
        if camera.in_frame(cxp, cyp):
            half_w = 0.5 * width_m * camera.fx / depth
            half_h = 0.5 * depth_m * camera.fy / depth
            boxes[sid] = Box(cxp - half_w, cyp - half_h, cxp + half_w, cyp + half_h)
    return boxes


class Observation(NamedTuple):
    detections: List[Box]
    ground_truth: List[Box]
    detection_sources: List[int]  # parallel to detections; -1 marks spurious boxes


BASE_CONFIDENCE = 0.92
SPURIOUS_CONFIDENCE = 0.55


def observe(
    stacks: "Sequence[Stack]",
    boxes: Mapping[int, Box],
    camera: CameraModel,
    rng: "np.random.Generator",
    faults,
    miss: Optional[bool] = None,
) -> Observation:
    """Take one synthetic frame of a zone.

    Ground truth covers ``stacks``, the stacks still pickable in the zone,
    drawn in the order given: the caller passes ``World.zone_stacks``, which
    is in ``(col, id)`` order. ``boxes`` maps each stack id to its box
    (``ground_truth_boxes``); ``CellConfig.validate`` rejects a config that
    leaves a stack without one. Faults degrade the detection list:
    whole-frame misses, per-box misses, pixel jitter, confidence noise, and
    spurious boxes. ``miss`` pins the frame's outcome (scripted fault
    injection): True empties the detection list outright, False draws no
    per-box misses, None draws them.
    """
    gt_ids = [s.id for s in stacks]
    gts = [boxes[sid] for sid in gt_ids]

    dets: List[Box] = []
    sources: List[int] = []
    miss_prob = faults.detection_miss_prob if miss is None else 0.0
    if not miss:
        for box, sid in zip(gts, gt_ids):
            if miss_prob > 0.0 and rng.random() < miss_prob:
                continue
            jx = jy = 0.0
            sigma = faults.detection_jitter_sigma_px
            if sigma > 0.0:  # two scalar draws take the stream's next two normals, as size=2 does
                jx, jy = rng.normal(0.0, sigma), rng.normal(0.0, sigma)
            conf = BASE_CONFIDENCE
            if faults.confidence_sigma > 0.0:
                conf += float(rng.normal(0.0, faults.confidence_sigma))
            conf = min(1.0, max(0.05, conf))
            dets.append(Box(box.x_min + jx, box.y_min + jy, box.x_max + jx, box.y_max + jy, conf))
            sources.append(sid)
        if faults.spurious_box_prob > 0.0 and rng.random() < faults.spurious_box_prob:
            w = 0.08 * camera.width_px
            h = 0.10 * camera.height_px
            x0 = rng.uniform(0.0, camera.width_px - w)
            y0 = rng.uniform(0.0, camera.height_px - h)
            dets.append(Box(x0, y0, x0 + w, y0 + h, confidence=SPURIOUS_CONFIDENCE))
            sources.append(-1)
    return Observation(detections=dets, ground_truth=gts, detection_sources=sources)


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
    """Read a box file; ``MalformedBoxFile`` names the first line that is not a box.

    A box's coordinates must be finite, its extents not inverted, its
    confidence in [0, 1] and its area, doubled, finite: that bound keeps
    every union the matcher forms finite.
    """
    out: List[Box] = []
    append = out.append
    new = tuple.__new__
    isfinite = math.isfinite
    text = read_text(path, functools.partial(MalformedBoxFile, str(path), None))
    for line_no, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 7:
            raise MalformedBoxFile(str(path), line_no, f"expected 7 fields, got {len(parts)}")
        frame, label, conf, x0, y0, x1, y1 = parts
        try:
            frame_id = int(frame)
            confidence = float(conf)
            x_min, y_min, x_max, y_max = float(x0), float(y0), float(x1), float(y1)
        except ValueError as exc:
            raise MalformedBoxFile(str(path), line_no, str(exc))
        # Any non-finite coordinate makes the doubled area inf or NaN, so one
        # test covers the four coordinates on every accepted line.
        area_fits = isfinite((x_max - x_min) * (y_max - y_min) * 2.0)
        if not area_fits and not all(map(isfinite, (x_min, y_min, x_max, y_max))):
            raise MalformedBoxFile(str(path), line_no, "box coordinates must be finite")
        if x_max < x_min or y_max < y_min:
            raise MalformedBoxFile(str(path), line_no, "box extents are inverted")
        if not (0.0 <= confidence <= 1.0):
            raise MalformedBoxFile(str(path), line_no, f"confidence {confidence} outside [0, 1]")
        if not area_fits:
            raise MalformedBoxFile(str(path), line_no, "box area overflows")
        append(new(Box, (x_min, y_min, x_max, y_max, confidence, label, frame_id)))
    return out
