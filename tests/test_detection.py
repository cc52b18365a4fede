import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdpp import sim
from flowdpp.controller import ModelChoice
from flowdpp.detection import (
    ConfidenceGrid,
    Detection,
    DetectionMetrics,
    iou,
    nms,
    score_against_truth,
    threshold_detections,
)


def reference_threshold_detections(grid, thresholds):
    """The dense implementation threshold_detections replaced, kept as its
    oracle: a masked argmax over every cell keeps the lowest box index on
    confidence ties."""
    rows, cols, k = grid.shape
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.ndim:
        thr = thr.reshape(k, rows, cols).transpose(1, 2, 0)
    admitted = grid.conf > thr
    masked = np.where(admitted, grid.conf, -1.0)
    best_k = masked.argmax(axis=2)
    out = []
    for i, j in zip(*np.nonzero(admitted.any(axis=2))):
        k = best_k[i, j]
        out.append(
            Detection(
                int(i), int(j), int(k),
                float(grid.conf[i, j, k]), tuple(grid.boxes[i, j, k].tolist()),
            )
        )
    return out


# few distinct levels, -0.0 among them, so cells often hold equal confidences
CONF_LEVELS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def threshold_cases(draw):
    """(grid, thresholds): a grid of up to 4x4 cells and 1-3 boxes, its conf
    sometimes Fortran-ordered, with a scalar threshold (zero and negative
    ones admit every entry) or a per-entry vector."""
    rows, cols, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = rows * cols * k
    conf = np.array(draw(st.lists(CONF_LEVELS, min_size=n, max_size=n))).reshape(rows, cols, k)
    if draw(st.booleans()):
        conf = np.asfortranarray(conf)
    boxes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.05, 0.9, (rows, cols, k, 4))
    scalar = st.sampled_from([0.0, -0.0, -0.5, 0.25, 0.5]) | st.floats(-1.0, 1.5)
    vector = st.lists(scalar, min_size=n, max_size=n).map(np.array)
    return ConfidenceGrid(conf, boxes), draw(scalar | vector)


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

    @given(threshold_cases())
    @settings(max_examples=300)
    def test_equals_the_dense_oracle(self, case):
        grid, thresholds = case
        got = threshold_detections(grid, thresholds)
        want = reference_threshold_detections(grid, thresholds)
        # repr tells -0.0 from 0.0; the types must be Python's, not numpy's
        assert repr(got) == repr(want)
        for g in got:
            assert [type(v) for v in (g.row, g.col, g.box_index, g.confidence)] == [int] * 3 + [float]
            assert type(g.box) is tuple and all(type(v) is float for v in g.box)

    def test_fortran_ordered_grid(self):
        conf = np.asfortranarray(np.arange(24.0).reshape(2, 3, 4) / 24.0)
        grid = make_grid(conf)
        assert grid.conf.flags.f_contiguous and not grid.conf.flags.c_contiguous
        assert threshold_detections(grid, 0.0) == reference_threshold_detections(grid, 0.0)
        assert [d.index for d in threshold_detections(grid, 0.0)] == [
            (i, j, 3) for i in range(2) for j in range(3)
        ]

    def test_tie_keeps_the_lowest_box(self):
        grid = make_grid([[[0.2, 0.7, 0.7, 0.7]]])
        assert [d.index for d in threshold_detections(grid, 0.5)] == [(0, 0, 1)]
        grid = make_grid([[[-0.0, 0.0]]])
        dets = threshold_detections(grid, -1.0)
        assert [d.index for d in dets] == [(0, 0, 0)] and repr(dets[0].confidence) == "-0.0"

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


# boxes that coincide, overlap in part or not at all, so NMS both keeps and
# suppresses
PREFIX_BOXES = [(0.5, 0.5, 0.2, 0.2), (0.55, 0.5, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2),
                (0.6, 0.6, 0.3, 0.1), (0.2, 0.8, 0.1, 0.1)]


@st.composite
def prefix_cases(draw):
    """(grid, per-cell threshold row up to and including c_th, c_th): the
    confidences sit at c_th, one ulp either side of it, at the row's values
    or anywhere, often tied within and across cells."""
    c_th = draw(st.sampled_from([0.5, 0.25, 1.0]) | st.floats(0.01, 1.0))
    rows, cols, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = rows * cols
    levels = [0.0, c_th, np.nextafter(c_th, 0.0), min(np.nextafter(c_th, 2.0), 1.0)]
    row = np.array(draw(st.lists(st.sampled_from(levels[1:3]) | st.floats(0.0, c_th),
                                 min_size=cells, max_size=cells)))
    conf = draw(st.lists(st.sampled_from(levels + row.tolist()) | st.floats(0.0, 1.0),
                         min_size=cells * k, max_size=cells * k))
    boxes = draw(st.lists(st.sampled_from(PREFIX_BOXES), min_size=cells * k,
                          max_size=cells * k))
    grid = ConfidenceGrid(np.reshape(conf, (rows, cols, k)), np.reshape(boxes, (rows, cols, k, 4)))
    return grid, np.tile(row, k), c_th


class TestPrefixRule:
    """With every H threshold at most c_th, T's post-NMS detections are H's
    post-NMS detections above c_th: what sim.emulate_detector relies on."""

    @given(prefix_cases(), st.sampled_from([0.0, 0.2, 1.0]))
    @settings(max_examples=400)
    def test_t_is_h_above_c_th(self, case, t):
        grid, row, c_th = case
        dets_h = nms(threshold_detections(grid, row), t)
        want = nms(threshold_detections(grid, c_th), t)
        assert [d for d in dets_h if d.confidence > c_th] == want
        rows, cols, k = grid.shape
        scenario = sim.ScenarioConfig(c_th=c_th, nms_iou=t, grid_rows=rows, grid_cols=cols,
                                      boxes_per_cell=k)
        frame = sim.FrameObservation(0, sim.DRIVING, [], np.zeros((rows, cols)), grid)
        assert sim.emulate_detector(frame, ModelChoice.T, scenario, dets_h)[0] == want
        assert sim.emulate_detector(frame, ModelChoice.H, scenario, dets_h)[0] is dets_h

    @given(st.lists(prefix_cases(), min_size=1, max_size=33), st.data())
    @settings(max_examples=60)
    def test_list_equals_each_grid_alone(self, cases, data):
        shape = cases[0][0].shape
        empty = ConfidenceGrid(np.zeros(shape), np.zeros(shape + (4,)))
        grids, rows = [], []
        for grid, row, _ in cases:
            grid = grid if grid.shape == shape and data.draw(st.booleans()) else empty
            grids.append(grid)
            rows.append(row if row.size == grid.conf.size else np.full(grid.conf.size, 0.5))
        got = threshold_detections(grids, np.array(rows))
        assert len(got) == len(grids)
        for grid, row, dets in zip(grids, rows, got):
            assert dets == threshold_detections(grid, row)
        for scalar in (0.0, 0.5):
            assert threshold_detections(grids, scalar) == [
                threshold_detections(grid, scalar) for grid in grids
            ]

    def test_list_rejects_rows_of_another_length(self):
        grids = [make_grid([[[0.5]]]), make_grid([[[0.7]]])]
        assert threshold_detections(grids, np.array([[0.1], [0.8]])) == [
            threshold_detections(grids[0], [0.1]), []
        ]
        for rows in (np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0.1, 0.2]), np.array([[0.1]])):
            with pytest.raises(ValueError, match="do not match"):
                threshold_detections(grids, rows)
        with pytest.raises(ValueError, match="one shape"):
            threshold_detections([grids[0], make_grid([[[0.5, 0.6]]])], 0.5)


IOU_LEVELS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.5])
IOU_BOXES = st.tuples(IOU_LEVELS | st.floats(-1.0, 1.0), IOU_LEVELS | st.floats(-1.0, 1.0),
                      IOU_LEVELS | st.floats(0.0, 1.0), IOU_LEVELS | st.floats(0.0, 1.0))


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

    @given(IOU_BOXES, IOU_BOXES)
    @example((-0.0, 0.5, -0.0, 0.2), (-0.1, 0.5, 0.2, 0.2))  # an edge at 0.0 against -0.0
    @example((-0.1, 0.5, 0.2, 0.2), (-0.0, 0.5, -0.0, 0.2))
    @settings(max_examples=500)
    def test_bit_identical_to_min_max_formula(self, a, b):
        # the formula iou was first written as; repr tells -0.0 from 0.0
        ax0, ay0, ax1, ay1 = a[0] - a[2] / 2, a[1] - a[3] / 2, a[0] + a[2] / 2, a[1] + a[3] / 2
        bx0, by0, bx1, by1 = b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2
        inter = max(min(ax1, bx1) - max(ax0, bx0), 0.0) * max(min(ay1, by1) - max(ay0, by0), 0.0)
        union = a[2] * a[3] + b[2] * b[3] - inter
        assert repr(iou(a, b)) == repr(inter / union if union > 0.0 else 0.0)


def brute_force_nms(dets, iou_threshold):
    """Straight re-derivation of greedy NMS used as an oracle."""
    order = sorted(dets, key=lambda d: (-d.confidence, d.index))
    kept = []
    for d in order:
        if all(iou(d.box, k.box) <= iou_threshold for k in kept):
            kept.append(d)
    return kept


class TestDetection:
    def test_immutable_and_hashable(self):
        a = Detection(1, 2, 0, 0.75, (0.5, 0.5, 0.2, 0.2))
        for name in ("row", "col", "box_index", "confidence", "box"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        b = Detection(1, 2, 0, 0.75, (0.5, 0.5, 0.2, 0.2))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a.index == (1, 2, 0)
        # a Detection is a tuple: it equals a plain tuple of the same values
        # and orders like one, and its index property hides tuple.index
        assert a == (1, 2, 0, 0.75, (0.5, 0.5, 0.2, 0.2))
        assert a < Detection(1, 2, 1, 0.5, (0.5, 0.5, 0.2, 0.2)) < (1, 3)
        assert not callable(a.index)


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
