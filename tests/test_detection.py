import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdpp.detection import (
    ConfidenceGrid,
    Detection,
    DetectionMetrics,
    iou,
    nms,
    score_against_truth,
    threshold_detections,
)


def make_grid(conf, boxes=None):
    conf = np.asarray(conf, dtype=np.float64)
    if boxes is None:
        boxes = np.zeros(conf.shape + (4,))
        boxes[..., :2] = 0.5
        boxes[..., 2:] = 0.1
    return ConfidenceGrid(conf, boxes)


def random_grid(rng, rows=3, cols=3, k=2):
    conf = rng.random((rows, cols, k))
    boxes = np.empty((rows, cols, k, 4))
    boxes[..., 0] = rng.uniform(0.1, 0.9, (rows, cols, k))
    boxes[..., 1] = rng.uniform(0.1, 0.9, (rows, cols, k))
    boxes[..., 2] = rng.uniform(0.05, 0.3, (rows, cols, k))
    boxes[..., 3] = rng.uniform(0.05, 0.3, (rows, cols, k))
    return ConfidenceGrid(conf, boxes)


def det(conf, box, idx=0):
    return Detection(0, idx, 0, conf, tuple(box))


class TestConfidenceGrid:
    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError):
            make_grid([[[1.5]]])

    def test_rejects_mismatched_boxes(self):
        with pytest.raises(ValueError):
            ConfidenceGrid(np.zeros((2, 2, 1)), np.zeros((2, 2, 2, 4)))

    def test_rejects_negative_sizes(self):
        boxes = np.zeros((1, 1, 1, 4))
        boxes[..., 2] = -0.1
        with pytest.raises(ValueError):
            ConfidenceGrid(np.zeros((1, 1, 1)), boxes)

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 1)])
    def test_rejects_nan(self, where):
        conf = np.zeros((2, 3, 2))
        conf[where] = np.nan
        with pytest.raises(ValueError, match="confidences"):
            ConfidenceGrid(conf, np.zeros((2, 3, 2, 4)))
        for size in (2, 3):
            boxes = np.zeros((2, 3, 2, 4))
            boxes[where + (size,)] = np.nan
            with pytest.raises(ValueError, match="width/height"):
                ConfidenceGrid(np.zeros((2, 3, 2)), boxes)

    @pytest.mark.parametrize("coord,value", [
        (0, np.nan), (1, np.nan), (0, np.inf), (1, -np.inf), (2, np.inf), (3, np.inf),
    ])
    def test_rejects_non_finite_geometry(self, coord, value):
        boxes = np.full((2, 3, 2, 4), 0.1)
        boxes[1, 2, 1, coord] = value
        with pytest.raises(ValueError, match="must be finite"):
            ConfidenceGrid(np.zeros((2, 3, 2)), boxes)


class TestThresholdDetections:
    def test_strictly_above(self):
        grid = make_grid([[[0.5, 0.6]]])
        dets = threshold_detections(grid, 0.5)
        assert [d.index for d in dets] == [(0, 0, 1)]
        assert dets[0].confidence == 0.6
        assert threshold_detections(grid, 0.6) == []

    def test_best_box_per_cell(self):
        grid = make_grid([[[0.7, 0.9, 0.8]]])
        dets = threshold_detections(grid, 0.5)
        assert len(dets) == 1 and dets[0].box_index == 1

    def test_row_major_output_order(self):
        grid = make_grid(np.full((2, 2, 1), 0.9))
        cells = [(d.row, d.col) for d in threshold_detections(grid, 0.5)]
        assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_vector_thresholds_replicated_layout(self):
        # per-entry threshold vector: block k, then row-major (i, j)
        conf = np.array([[[0.30, 0.90], [0.60, 0.10]]])
        grid = make_grid(conf)
        thr = np.array([0.5, 0.5, 0.2, 0.95])  # k=0 plane then k=1 plane
        dets = threshold_detections(grid, thr)
        # (0,0,1): 0.90 > 0.2 from the k=1 plane; (0,1,0): 0.60 > 0.5
        assert [d.index for d in dets] == [(0, 0, 1), (0, 1, 0)]

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            threshold_detections(make_grid([[[0.5]]]), np.array([0.1, 0.2]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_scalar_equals_constant_vector(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, rows=2, cols=4, k=3)
        thr = rng.random()
        # confidences on the threshold and one ulp either side of it exercise
        # the strict comparison
        grid.conf[0] = rng.choice([thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0)],
                                  size=grid.conf.shape[1:])
        expected = threshold_detections(grid, np.full(grid.conf.size, thr))
        for scalar in (thr, np.float64(thr), np.array(thr)):
            assert threshold_detections(grid, scalar) == expected

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_lowering_thresholds_never_loses_detections(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng)
        hi = rng.random(grid.conf.size)
        lo = hi * rng.random(grid.conf.size)
        cells_hi = {(d.row, d.col): d.confidence for d in threshold_detections(grid, hi)}
        cells_lo = {(d.row, d.col): d.confidence for d in threshold_detections(grid, lo)}
        for cell, conf in cells_hi.items():
            assert cell in cells_lo and cells_lo[cell] >= conf


class TestIou:
    def test_identical(self):
        assert iou((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou((0.2, 0.2, 0.1, 0.1), (0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_half_shift(self):
        # unit squares offset by half a side: overlap 1/2, union 3/2
        assert iou((0.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.0, 1.0)) == pytest.approx(1 / 3)

    def test_degenerate(self):
        assert iou((0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0)) == 0.0

    def test_symmetry(self):
        a, b = (0.3, 0.4, 0.2, 0.3), (0.35, 0.45, 0.25, 0.2)
        assert iou(a, b) == pytest.approx(iou(b, a))


def brute_force_nms(dets, iou_threshold):
    """Straight re-derivation of greedy NMS used as an oracle."""
    order = sorted(dets, key=lambda d: (-d.confidence, d.index))
    kept = []
    for d in order:
        if all(iou(d.box, k.box) <= iou_threshold for k in kept):
            kept.append(d)
    return kept


class TestNms:
    def test_three_box_example(self):
        a = det(0.9, (0.5, 0.5, 0.2, 0.2), 0)
        b = det(0.8, (0.52, 0.5, 0.2, 0.2), 1)  # heavy overlap with a
        c = det(0.7, (0.9, 0.9, 0.1, 0.1), 2)  # disjoint
        kept = nms([a, b, c], 0.5)
        assert kept == [a, c]

    def test_empty(self):
        assert nms([], 0.5) == []

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_against_brute_force(self, seed, thr):
        rng = np.random.default_rng(seed)
        dets = [
            det(rng.random(), rng.uniform(0.05, 0.5, 4), i)
            for i in range(rng.integers(0, 7))
        ]
        assert nms(dets, thr) == brute_force_nms(dets, thr)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_subset_pairwise_bound_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        dets = [
            det(rng.random(), rng.uniform(0.05, 0.5, 4), i)
            for i in range(rng.integers(0, 10))
        ]
        thr = rng.random()
        kept = nms(dets, thr)
        assert set(kept) <= set(dets)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou(a.box, b.box) <= thr
        assert nms(kept, thr) == kept


def brute_force_score(dets, truth, match_iou):
    """Independent matcher for small inputs."""
    order = sorted(dets, key=lambda d: (-d.confidence, d.index))
    free = set(range(len(truth)))
    correct = false = overlapped = 0
    for d in order:
        ious = [iou(d.box, t) for t in truth]
        free_ious = {i: ious[i] for i in free}
        best = max(free_ious, key=lambda i: free_ious[i], default=None)
        if best is not None and free_ious[best] >= match_iou:
            free.discard(best)
            correct += 1
        elif ious and max(ious) >= match_iou:
            overlapped += 1
        else:
            false += 1
    return correct, false, overlapped


class TestScoreAgainstTruth:
    def test_perfect_match(self):
        truth = [(0.5, 0.5, 0.2, 0.2)]
        m = score_against_truth([det(0.9, truth[0])], truth)
        assert (m.correctly_detected, m.falsely_detected, m.overlapped_detected) == (1, 0, 0)
        assert m.true_positive_rate == 1.0

    def test_duplicate_is_overlapped(self):
        truth = [(0.5, 0.5, 0.2, 0.2)]
        dets = [det(0.9, truth[0], 0), det(0.8, truth[0], 1)]
        m = score_against_truth(dets, truth)
        assert (m.correctly_detected, m.overlapped_detected) == (1, 1)
        assert m.true_positive_rate == 1.0  # overlapped excluded from denominator

    def test_false_positive(self):
        m = score_against_truth([det(0.9, (0.1, 0.1, 0.05, 0.05))], [(0.8, 0.8, 0.2, 0.2)])
        assert m.falsely_detected == 1 and m.true_positive_rate == 0.0

    def test_no_detections(self):
        m = score_against_truth([], [(0.5, 0.5, 0.2, 0.2)])
        assert m.total_detected == 0 and m.true_positive_rate == 0.0

    def test_metrics_identity_enforced(self):
        with pytest.raises(ValueError):
            DetectionMetrics(3, 1, 1, 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dets = [
            det(rng.random(), rng.uniform(0.05, 0.6, 4), i)
            for i in range(rng.integers(0, 7))
        ]
        truth = [tuple(rng.uniform(0.05, 0.6, 4)) for _ in range(rng.integers(0, 5))]
        m = score_against_truth(dets, truth, 0.5)
        assert (
            m.correctly_detected, m.falsely_detected, m.overlapped_detected
        ) == brute_force_score(dets, truth, 0.5)
        assert m.total_detected == len(dets)
