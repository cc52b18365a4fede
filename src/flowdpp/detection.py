"""Confidence-grid thresholding, greedy NMS, and ground-truth accounting.

Boxes are (center_x, center_y, width, height) in normalized image
coordinates.  A detection is admitted when its confidence is strictly above
the threshold for its grid cell; per cell only the best admitted box
survives, and NMS then removes cross-cell duplicates.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Detection:
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


def _threshold_tensor(grid, thresholds):
    rows, cols, k = grid.shape
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.ndim == 0:
        return thr
    if thr.shape != (rows * cols * k,):
        raise ValueError(
            f"threshold vector length {thr.size} does not match grid {rows}x{cols}x{k}"
        )
    # Vector layout is k replicated blocks, each a row-major (row, col) plane.
    return thr.reshape(k, rows, cols).transpose(1, 2, 0)


def threshold_detections(grid, thresholds):
    """Admit entries with confidence strictly above their threshold; keep the
    highest-confidence admitted box per cell.  Output is in row-major cell
    order.
    """
    thr = _threshold_tensor(grid, thresholds)
    admitted = grid.conf > thr
    # Pick the best admitted box per cell; masked argmax keeps the lowest k on
    # confidence ties.
    masked = np.where(admitted, grid.conf, -1.0)
    best_k = masked.argmax(axis=2)
    out = []
    for i, j in zip(*np.nonzero(admitted.any(axis=2))):
        k = best_k[i, j]
        # tolist() keeps numpy scalars out of the downstream IoU arithmetic
        out.append(
            Detection(
                int(i), int(j), int(k),
                float(grid.conf[i, j, k]), tuple(grid.boxes[i, j, k].tolist()),
            )
        )
    return out


def iou(box_a, box_b):
    """Intersection over union of two (cx, cy, w, h) boxes; 0 if both are
    degenerate."""
    ax0, ay0 = box_a[0] - box_a[2] / 2, box_a[1] - box_a[3] / 2
    ax1, ay1 = box_a[0] + box_a[2] / 2, box_a[1] + box_a[3] / 2
    bx0, by0 = box_b[0] - box_b[2] / 2, box_b[1] - box_b[3] / 2
    bx1, by1 = box_b[0] + box_b[2] / 2, box_b[1] + box_b[3] / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = box_a[2] * box_a[3] + box_b[2] * box_b[3] - inter
    return inter / union if union > 0.0 else 0.0


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
    correct = false = overlapped = 0
    for det in _conf_order(dets):
        best_free, best_free_iou = -1, 0.0
        best_any_iou = 0.0
        for idx, tbox in enumerate(truth):
            v = iou(det.box, tbox)
            best_any_iou = max(best_any_iou, v)
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
