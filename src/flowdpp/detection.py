"""Confidence-grid thresholding, greedy NMS, and ground-truth accounting.

Boxes are (center_x, center_y, width, height) in normalized image
coordinates.  A detection is admitted when its confidence is strictly above
the threshold for its grid cell; per cell only the best admitted box
survives, and NMS then removes cross-cell duplicates.  threshold_detections
also takes a list of same-shape grids, one threshold row each.  With every
threshold at most c, the post-NMS detections above c are exactly the
post-NMS detections of thresholding at c, so sim.emulate_detector reads T
off H.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConfidenceGrid",
    "Detection",
    "DetectionMetrics",
    "threshold_detections",
    "iou",
    "nms",
    "score_against_truth",
]


@dataclass(frozen=True)
class ConfidenceGrid:
    """Per-cell box confidences and geometry.

    conf has shape (rows, cols, boxes_per_cell) with values in [0, 1];
    boxes has shape (rows, cols, boxes_per_cell, 4) holding
    (cx, cy, w, h) per entry.
    """

    conf: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        conf = np.asarray(self.conf, dtype=np.float64)
        boxes = np.asarray(self.boxes, dtype=np.float64)
        if conf.ndim != 3 or min(conf.shape) < 1:
            raise ValueError(f"confidence tensor must be 3-D and non-empty, got {conf.shape}")
        if boxes.shape != conf.shape + (4,):
            raise ValueError(f"boxes shape {boxes.shape} does not match conf shape {conf.shape}")
        # written so that NaN fails the comparisons
        if not (conf.min() >= 0.0 and conf.max() <= 1.0):
            raise ValueError("confidences must lie in [0, 1]")
        if not (np.isfinite(boxes).all() and np.all(boxes[..., 2:] >= 0.0)):
            raise ValueError("boxes must be finite, with width/height >= 0")
        object.__setattr__(self, "conf", conf)
        object.__setattr__(self, "boxes", boxes)

    @classmethod
    def _unchecked(cls, conf, boxes):
        """Wrap float64 arrays that already satisfy every check above, for a
        producer that guarantees them by construction (the simulator's frame
        generator); data from outside goes through the checking constructor.
        """
        grid = object.__new__(cls)
        object.__setattr__(grid, "conf", conf)
        object.__setattr__(grid, "boxes", boxes)
        return grid

    @property
    def shape(self):
        return self.conf.shape


class Detection(NamedTuple):
    """An admitted grid entry.  As a tuple it equals, and orders like, a
    tuple of the same values; the index property replaces tuple.index."""

    row: int
    col: int
    box_index: int
    confidence: float
    box: tuple  # (cx, cy, w, h)

    @property
    def index(self):
        return (self.row, self.col, self.box_index)


@dataclass(frozen=True)
class DetectionMetrics:
    total_detected: int
    correctly_detected: int
    falsely_detected: int
    overlapped_detected: int

    def __post_init__(self):
        parts = self.correctly_detected + self.falsely_detected + self.overlapped_detected
        if parts != self.total_detected:
            raise ValueError("correct + false + overlapped must equal total")

    @property
    def true_positive_rate(self):
        denom = self.total_detected - self.overlapped_detected
        return self.correctly_detected / denom if denom > 0 else 0.0


def threshold_detections(grids, thresholds):
    """Admit entries with confidence strictly above their threshold; keep the
    highest-confidence admitted box per cell.  Output is in row-major cell
    order.

    grids is one grid, with a scalar or one row of rows*cols*k thresholds,
    giving one detection list; or a list of grids of one shape, with a
    scalar or one row per grid, giving one list per grid.  A grid is a list
    of one: one vector compare over the stacked grids finds the admitted
    entries in order, and a pass over those few keeps each cell's best,
    replaced only by a strictly greater confidence, so a tie keeps the
    lowest box index.
    """
    single = isinstance(grids, ConfidenceGrid)
    if single:
        grids, thresholds = [grids], thresholds if np.ndim(thresholds) == 0 else [thresholds]
    shape = grids[0].shape
    if any(grid.shape != shape for grid in grids):
        raise ValueError("grids must share one shape")
    rows, cols, num_boxes = shape
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.ndim:
        if thr.shape != (len(grids), rows * cols * num_boxes):
            raise ValueError(f"thresholds of shape {thr.shape} do not match {len(grids)} "
                             f"grid(s) of {rows}x{cols}x{num_boxes}")
        # A row is k replicated blocks, each a row-major (row, col) plane.
        thr = thr.reshape(len(grids), num_boxes, rows, cols).transpose(0, 2, 3, 1)
    conf = np.concatenate([grid.conf for grid in grids]).reshape((len(grids),) + shape)
    admitted = (conf > thr).ravel().nonzero()[0]  # np.flatnonzero, without its wrappers
    best = {}  # cell of the stack -> (flat entry, confidence), filled in cell order
    for e, c in zip(admitted.tolist(), conf.ravel()[admitted].tolist()):
        cell = e // num_boxes
        if cell not in best or c > best[cell][1]:
            best[cell] = (e, c)
    out = [[] for _ in grids]
    for cell, (e, c) in best.items():
        g, ij = divmod(cell, rows * cols)
        i, j = divmod(ij, cols)
        k = e - cell * num_boxes
        # tolist() keeps numpy scalars out of the downstream IoU arithmetic
        out[g].append(Detection(i, j, k, c, tuple(grids[g].boxes[i, j, k].tolist())))
    return out[0] if single else out


def _corners(box):
    """(x0, y0, x1, y1, area) of a (cx, cy, w, h) box."""
    cx, cy, w, h = box
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, w * h


def _overlap(a, b):
    """Intersection over union of two boxes given by _corners.  Each
    conditional is min(x, y) or max(x, y) as the builtins pick, ties and
    signed zeros included, at a fraction of their call cost."""
    ax0, ay0, ax1, ay1, area_a = a
    bx0, by0, bx1, by1, area_b = b
    iw = (bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)
    ih = (by1 if by1 < ay1 else ay1) - (by0 if by0 > ay0 else ay0)
    inter = (0.0 if iw < 0.0 else iw) * (0.0 if ih < 0.0 else ih)
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def iou(box_a, box_b):
    """Intersection over union of two (cx, cy, w, h) boxes; 0 if both are
    degenerate."""
    return _overlap(_corners(box_a), _corners(box_b))


def _conf_order(dets):
    return sorted(dets, key=lambda d: (-d.confidence, d.index))


def nms(dets, iou_threshold):
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-confidence remaining detection (ties broken
    by lower cell/box index) and drops everything overlapping it by more than
    iou_threshold.  Output is sorted by descending confidence.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    remaining = _conf_order(dets)
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if iou(best.box, d.box) <= iou_threshold]
    return kept


def score_against_truth(dets, truth, match_iou=0.5):
    """Greedy one-to-one matching of detections against ground-truth boxes.

    Detections are visited in descending confidence.  A detection whose best
    IoU against an unmatched truth box reaches match_iou is correct; one that
    only reaches a truth box already claimed is overlapped; anything else is
    false.
    """
    if not 0.0 < match_iou <= 1.0:
        raise ValueError("match_iou must be in (0, 1]")
    matched = [False] * len(truth)
    truth_corners = [_corners(tbox) for tbox in truth]  # once per call, not per detection
    correct = false = overlapped = 0
    for det in _conf_order(dets):
        box = _corners(det.box)
        best_free, best_free_iou = -1, 0.0
        best_any_iou = 0.0
        for idx, tbox in enumerate(truth_corners):
            v = _overlap(box, tbox)
            if v > best_any_iou:
                best_any_iou = v
            if not matched[idx] and v > best_free_iou:
                best_free, best_free_iou = idx, v
        if best_free >= 0 and best_free_iou >= match_iou:
            matched[best_free] = True
            correct += 1
        elif best_any_iou >= match_iou:
            overlapped += 1
        else:
            false += 1
    return DetectionMetrics(len(dets), correct, false, overlapped)
