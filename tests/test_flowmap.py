import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowdpp import fileio, flowmap, sim
from flowdpp.policies import PolicyKind, make_policy
from flowdpp.detection import ConfidenceGrid


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def threshold_of(f, c_th=0.5):
    return c_th / (1.0 + math.exp(2.0 * f))


# dyadic rationals keep the arithmetic exact for strict-equality properties
dyadic = st.integers(min_value=-64, max_value=64).map(lambda n: n / 8.0)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
exp_safe = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)


def float_maps(max_side=7, elements=finite | dyadic):
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda rows: st.integers(min_value=1, max_value=max_side).flatmap(
            lambda cols: st.lists(
                st.lists(elements, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    ).map(np.array)


def dyadic_maps(max_side=6):
    return float_maps(max_side, dyadic)


ULPS = 16


def assert_within_ulps(got, expected, scale=None):
    """Each |got - expected| is at most ULPS ulps of expected, or of scale
    where given (for sums whose terms may cancel)."""
    ref = np.abs(expected) if scale is None else 2.0 * scale
    assert np.all(np.abs(got - expected) <= ULPS * np.spacing(ref))


# The four image shapes (rows, cols) of the KITTI-2015 flow benchmark.
KITTI_SHAPES = [(375, 1242), (370, 1224), (374, 1238), (376, 1241)]


def blob_flow(rng, rows, cols, blobs=3):
    """Flow magnitude of an expansion about a focus point plus Gaussian
    bumps of independent motion (moving objects)."""
    y, x = np.mgrid[0:rows, 0:cols].astype(np.float64)
    k = rng.uniform(0.002, 0.006)
    u = k * (x - rng.uniform(0.4, 0.6) * cols)
    v = k * (y - rng.uniform(0.4, 0.6) * rows)
    for _ in range(blobs):
        r = rng.uniform(0.02, 0.08) * cols
        g = np.exp(-((y - rng.uniform(0, rows)) ** 2 + (x - rng.uniform(0, cols)) ** 2) / (2 * r * r))
        du, dv = rng.uniform(-12.0, 12.0, 2)
        u += du * g
        v += dv * g
    return np.hypot(u, v)


class TestShiftMin:
    def test_hand_example(self):
        np.testing.assert_array_equal(
            flowmap.shift_min([[1, 3], [5, 7]]), [[0, 2], [4, 6]]
        )

    def test_already_zero(self):
        np.testing.assert_array_equal(flowmap.shift_min([[0]]), [[0]])

    def test_negative_values(self):
        np.testing.assert_array_equal(flowmap.shift_min([[-2, 2]]), [[0, 4]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            flowmap.shift_min(np.empty((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            flowmap.shift_min([[1.0, np.nan]])

    @pytest.mark.parametrize("negated", [False, True])
    def test_rejects_overflowing_range(self, negated):
        # finite map whose shifted copy would hold inf
        for arr in ([[-1e308, 0.0, 1e308]], [[1.7e308], [-1.7e308]]):
            with pytest.raises(ValueError, match="non-finite"):
                flowmap.shift_min(-np.array(arr) if negated else arr)

    @given(dyadic_maps())
    def test_min_is_zero(self, arr):
        assert flowmap.shift_min(arr).min() == 0.0


class TestCenterAbsMedian:
    def test_even_count_uses_mean_of_middle(self):
        # median of {0, 2, 4, 6} is 3
        np.testing.assert_array_equal(
            flowmap.center_abs_median([[0, 2], [4, 6]]), [[3, 1], [1, 3]]
        )

    def test_single_element(self):
        np.testing.assert_array_equal(flowmap.center_abs_median([[5]]), [[0]])

    def test_constant_map(self):
        np.testing.assert_array_equal(flowmap.center_abs_median([[1, 1, 1]]), [[0, 0, 0]])

    @given(dyadic_maps())
    def test_non_negative(self, arr):
        assert flowmap.center_abs_median(arr).min() >= 0.0


class TestSquash:
    def test_zero(self):
        np.testing.assert_array_equal(flowmap.squash([[0]]), [[0.5]])

    def test_scalar_oracle(self):
        assert flowmap.squash([[1]])[0, 0] == pytest.approx(sigmoid(1.0), abs=1e-6)

    def test_elementwise_oracle(self):
        got = flowmap.squash([[3, 1], [1, 3]])
        expected = [[sigmoid(3), sigmoid(1)], [sigmoid(1), sigmoid(3)]]
        np.testing.assert_allclose(got, expected, atol=1e-6)

    @given(dyadic_maps())
    def test_range(self, arr):
        out = flowmap.squash(np.abs(arr))
        assert np.all(out >= 0.5) and np.all(out < 1.0)


class TestResizeBicubic:
    def test_identity_same_shape(self):
        rng = np.random.default_rng(0)
        arr = rng.random((4, 4))
        out = flowmap.resize_bicubic(arr, 4, 4)
        np.testing.assert_array_equal(out, arr)
        assert not np.shares_memory(out, arr)

    def test_axis_of_target_size_keeps_signed_zeros(self):
        # columns are not resampled, so each column resizes as a map of its
        # own; taps weighted (0, 1, 0, 0) would turn the -0.0 into +0.0
        arr = np.array([[1.0, -0.0, 0.0]])
        got = flowmap.resize_bicubic(arr, 5, 3)
        cols = [flowmap.resize_bicubic(col[:, None], 5, 1)[:, 0] for col in arr.T]
        assert np.array_equal(got.view(np.int64), np.array(cols).T.view(np.int64))

    def test_constant_stays_constant(self):
        arr = np.full((5, 7), 0.7)
        for shape in [(2, 3), (9, 11), (1, 1)]:
            out = flowmap.resize_bicubic(arr, *shape)
            assert out.shape == shape
            np.testing.assert_allclose(out, 0.7, atol=1e-9)

    def test_ramp_preserved_at_interior_samples(self):
        # linear ramp v(r, c) = r + 2c; bicubic reproduces linear functions
        # away from the clamped borders
        rows, cols = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        ramp = rows + 2.0 * cols
        out = flowmap.resize_bicubic(ramp, 4, 4)
        for i in (1, 2):  # interior output samples: all 4 taps in range
            for j in (1, 2):
                x_r = (i + 0.5) * 2 - 0.5
                x_c = (j + 0.5) * 2 - 0.5
                assert out[i, j] == pytest.approx(x_r + 2.0 * x_c, abs=1e-6)

    def test_rejects_zero_target(self):
        with pytest.raises(ValueError):
            flowmap.resize_bicubic(np.ones((3, 3)), 0, 2)

    @pytest.mark.parametrize("shape,grid", [
        ((375, 1242), (8, 8)),  # camera map: clamped edges, a gathered sub-grid
        ((32, 32), (8, 8)),  # the simulator's maps: each pixel read once, in order
        ((3, 4), (11, 13)),  # upsampling: taps clamp to both edges
        ((45, 70), (1, 8)),
        ((45, 70), (8, 1)),
        ((1, 9), (4, 3)),
        ((1, 1), (2, 5)),  # every tap is the one pixel
        ((45, 70), (45, 8)),  # one axis already of the grid's size
        ((45, 70), (8, 70)),
        ((3, 4), (3, 13)),
    ], ids=["camera", "simulator", "upsample", "one-row-target", "one-column-target",
            "one-row-source", "one-pixel", "rows-kept", "columns-kept", "rows-kept-upsample"])
    def test_equals_fixed_order_oracle(self, shape, grid):
        arr = np.random.default_rng(list(shape)).normal(size=shape)
        got = flowmap.resize_bicubic(arr, *grid)
        assert np.array_equal(got.view(np.int64), fixed_order_resize(arr, *grid).view(np.int64))


class TestVectorizeThresholds:
    def test_zero_map_gives_half_cth(self):
        np.testing.assert_allclose(
            flowmap.vectorize_thresholds([[0.0]], 2, 0.5), [0.25, 0.25]
        )

    def test_scalar_oracle(self):
        got = flowmap.vectorize_thresholds([[0.5]], 1, 0.5)
        assert got[0] == pytest.approx(0.5 / (1 + math.e), abs=1e-6)

    def test_matrix_oracle(self):
        squashed = [[0.952574, 0.731059], [0.731059, 0.952574]]
        got = flowmap.vectorize_thresholds(squashed, 1, 0.5)
        expected = [threshold_of(f) for row in squashed for f in row]
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [0.064766, 0.094068, 0.094068, 0.064766], atol=1e-5)

    def test_rejects_bad_cth(self):
        for c_th in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                flowmap.vectorize_thresholds([[0.5]], 1, c_th)

    def test_monotone_decreasing_in_flow(self):
        f = np.linspace(0.0, 0.999, 50).reshape(1, -1)
        out = flowmap.vectorize_thresholds(f, 1, 0.5)
        assert np.all(np.diff(out) < 0.0)


class TestProcess:
    def test_worked_example(self):
        got = flowmap.process([[1, 3], [5, 7]], 2, 2, 1, 0.5)
        np.testing.assert_allclose(
            got, [0.064766, 0.094068, 0.094068, 0.064766], atol=1e-5
        )

    def test_constant_map_gives_uniform_ceiling(self):
        # a constant map squashes to 0.5 everywhere, the largest threshold the
        # pipeline can emit
        got = flowmap.process(np.full((6, 9), 3.3), 4, 4, 2, 0.5)
        np.testing.assert_allclose(got, 0.5 / (1 + math.e))

    def test_random_map_bounds(self):
        rng = np.random.default_rng(42)
        got = flowmap.process(rng.normal(size=(16, 16)), 4, 4, 3, 0.5)
        lo, hi = 0.5 / (1 + math.e**2), 0.5 / (1 + math.e)
        assert got.size == 4 * 4 * 3
        assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)

    @given(dyadic_maps(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60)
    def test_shape_and_global_bound(self, arr, gr, gc, k):
        out = flowmap.process(arr, gr, gc, k, 0.5)
        assert out.shape == (gr * gc * k,)
        assert np.all(out >= 0.5 / (1 + math.e**2) - 1e-12)
        assert np.all(out <= 0.25 + 1e-12)

    @given(float_maps(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=150)
    def test_thresholds_between_sigmoid_image_bounds(self, arr, gr, gc, k, c_th):
        # squashed deviations lie in [0.5, 1], so thresholds lie in
        # [c_th/(1+e^2), c_th/(1+e)], up to a few ulps of rounding
        out = flowmap.process(arr, gr, gc, k, c_th)
        slack = 8 * np.finfo(np.float64).eps
        assert out.min() >= c_th / (1 + math.e**2) * (1 - slack)
        assert out.max() <= c_th / (1 + math.e) * (1 + slack)

    @given(dyadic_maps(), dyadic)
    @settings(max_examples=60)
    def test_translation_invariance_exact(self, arr, c):
        base = flowmap.process(arr, 2, 2, 1, 0.5)
        shifted = flowmap.process(arr + c, 2, 2, 1, 0.5)
        np.testing.assert_array_equal(base, shifted)

    def test_replication_blocks_identical(self):
        rng = np.random.default_rng(3)
        out = flowmap.process(rng.random((5, 5)), 3, 3, 4, 0.5)
        blocks = out.reshape(4, 9)
        for k in range(1, 4):
            np.testing.assert_array_equal(blocks[k], blocks[0])

    def test_permutation_equivariance_without_resize(self):
        # grid dims equal map dims, so the pipeline is purely elementwise
        rng = np.random.default_rng(7)
        arr = rng.random((3, 4))
        perm = rng.permutation(12)
        base = flowmap.process(arr, 3, 4, 1, 0.5)
        permuted = flowmap.process(arr.ravel()[perm].reshape(3, 4), 3, 4, 1, 0.5)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def median_of(arr):
    """The median of a map from its middle values, as process takes it."""
    return flowmap._median(*flowmap._middle(arr.flatten(order="K")), arr.size)


def resize_weights(n_src, n_dst):
    """Dense (n_dst, n_src) bicubic weight matrix, clamp-to-edge taps, each
    row the sum of its 4 taps' weights per source index."""
    scale = n_src / n_dst
    x = (np.arange(n_dst) + 0.5) * scale - 0.5
    base = np.floor(x).astype(int)
    frac = x - base
    offsets = np.arange(-1, 3)
    taps = base[:, None] + offsets[None, :]
    weights = flowmap._keys_kernel(frac[:, None] - offsets[None, :])
    taps = np.clip(taps, 0, n_src - 1)
    mat = np.zeros((n_dst, n_src))
    np.add.at(mat, (np.repeat(np.arange(n_dst), 4), taps.ravel()), weights.ravel())
    return mat


def dense_resize(arr, grid_rows, grid_cols):
    """The resize as a product of dense weight matrices over the whole map:
    the 4-tap sums plus exact zeros, added in another order."""
    rows, cols = arr.shape
    return resize_weights(rows, grid_rows) @ arr @ resize_weights(cols, grid_cols).T


def keys_weight(t, a=-0.5):
    """The Keys kernel at t in Python floats, evaluated as flowmap._keys_kernel
    evaluates it."""
    ax = abs(t)
    if ax <= 1.0:
        return ((a + 2.0) * ax - (a + 3.0)) * ax * ax + 1.0
    if ax < 2.0:
        return a * (((ax - 5.0) * ax + 8.0) * ax - 4.0)
    return 0.0


def axis_taps(n_src, n_dst):
    """[(indices, weights)] per output sample of one axis, in Python: its 4
    taps at offsets -1..2 from the sample's floor, clamped to the edges."""
    scale = n_src / n_dst
    taps = []
    for i in range(n_dst):
        x = (i + 0.5) * scale - 0.5
        base = math.floor(x)
        taps.append(([min(max(base + o, 0), n_src - 1) for o in (-1, 0, 1, 2)],
                     [keys_weight((x - base) - o) for o in (-1, 0, 1, 2)]))
    return taps


def tap_sum(taps, value):
    """((w0 x0 + w1 x1) + w2 x2) + w3 x3 in Python floats, x_k = value(index_k)."""
    (i0, i1, i2, i3), (w0, w1, w2, w3) = taps
    return ((w0 * value(i0) + w1 * value(i1)) + w2 * value(i2)) + w3 * value(i3)


def fixed_order_resize(arr, grid_rows, grid_cols):
    """The bicubic resize in pure-Python floats, rows then columns, each
    output its 4 taps summed in tap order: the oracle flowmap's resize must
    equal bit for bit on every machine.  An axis already of the grid's size
    is kept as it is: its taps, weighted (0, 1, 0, 0), would give the same
    values but could turn a -0.0 into +0.0."""
    src = rows = np.asarray(arr, dtype=np.float64).tolist()
    if grid_rows != len(src):
        rows = [[tap_sum(taps, lambda r: src[r][c]) for c in range(len(src[0]))]
                for taps in axis_taps(len(src), grid_rows)]
    if grid_cols != len(src[0]):
        rows = [[tap_sum(taps, row.__getitem__) for taps in axis_taps(len(src[0]), grid_cols)]
                for row in rows]
    return np.array(rows)


def composed(values, grid_rows, grid_cols, num_boxes, c_th, resize=flowmap.resize_bicubic):
    """process() as the composition of the public stages, or with another
    resize, clipped to the squashed map's full min and max."""
    squashed = flowmap.squash(flowmap.center_abs_median(flowmap.shift_min(values)))
    resized = resize(squashed, grid_rows, grid_cols)
    np.clip(resized, squashed.min(), squashed.max(), out=resized)
    return flowmap.vectorize_thresholds(resized, num_boxes, c_th)


FIXED_MAPS = {
    "1x1": np.array([[2.5]]),
    "1xn": np.arange(7.0)[None, :] ** 2,
    "nx1": np.arange(6.0)[:, None] * -1.5,
    "odd count": np.random.default_rng(11).normal(size=(5, 7)),
    "even count": np.random.default_rng(12).normal(size=(6, 8)),
    "tied": np.array([[1.0, 1.0, 2.0], [2.0, 1.0, 3.0]]),
    "constant": np.full((4, 6), 3.3),
    "fortran order": np.asfortranarray(np.random.default_rng(13).normal(size=(9, 5))),
    "strided view": np.random.default_rng(14).normal(size=(12, 10))[::2, 1::3],
}


class TestProcessDifferential:
    """process() runs the stages in one scratch buffer; it must reproduce the
    stage-by-stage composition bit for bit."""

    @given(float_maps(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=150)
    def test_equals_stage_composition(self, arr, gr, gc, k):
        got = flowmap.process(arr, gr, gc, k, 0.5)
        assert np.array_equal(got, composed(arr, gr, gc, k, 0.5))

    @given(float_maps(), st.integers(1, 3))
    @settings(max_examples=60)
    def test_equals_composition_on_map_size_grid(self, arr, k):
        rows, cols = arr.shape
        got = flowmap.process(arr, rows, cols, k, 0.7)
        assert np.array_equal(got, composed(arr, rows, cols, k, 0.7))

    @given(float_maps(), st.integers(1, 3))
    @settings(max_examples=100)
    def test_equals_composition_when_every_pixel_is_tapped(self, arr, k):
        # a 4x downsample reads each pixel once, in order, so the resize
        # reads the map itself, ungathered
        rows, cols = arr.shape
        tiled = np.tile(arr, (4, 4))
        assert flowmap._taps(4 * rows, rows)[0] is None and flowmap._taps(4 * cols, cols)[0] is None
        got = flowmap.process(tiled, rows, cols, k, 0.5)
        assert np.array_equal(got, composed(tiled, rows, cols, k, 0.5))

    @pytest.mark.parametrize("name", sorted(FIXED_MAPS))
    @pytest.mark.parametrize("fortran", [False, True])
    def test_fixed_cases(self, name, fortran):
        # the middle values come from a partition in memory order, which the
        # layout changes
        arr = np.asfortranarray(FIXED_MAPS[name]) if fortran else FIXED_MAPS[name]
        for grid in [(1, 1), (3, 4), (8, 8), arr.shape]:
            got = flowmap.process(arr, *grid, 2, 0.5)
            assert np.array_equal(got, composed(arr, *grid, 2, 0.5)), grid

    @given(float_maps())
    @settings(max_examples=60)
    def test_never_mutates_input(self, arr):
        for values in (arr, np.asfortranarray(arr), arr[:, ::-1]):
            before = values.copy()
            flowmap.process(values, 2, 3, 2, 0.5)
            flowmap.process(values, *values.shape, 1, 0.5)
            assert np.array_equal(values, before)

    def test_validates_before_any_work(self):
        arr = np.ones((4, 4))
        with pytest.raises(ValueError, match="target"):
            flowmap.process(arr, 0, 2, 1, 0.5)
        with pytest.raises(ValueError, match="c_th"):
            flowmap.process(arr, 2, 2, 1, 0.0)
        with pytest.raises(ValueError, match="num_boxes"):
            flowmap.process(arr, 2, 2, 0, 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            flowmap.process([[1.0, np.inf]], 2, 2, 1, 0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(float_maps(elements=finite | dyadic | st.sampled_from(
        [np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308])))
    @settings(max_examples=200)
    def test_check_flow_map_rejects_what_stages_reject(self, arr):
        # one min and one max pass stand in for the elementwise isfinite pass
        # plus the range check; a shifted median that overflows is rejected
        # by the later stages
        range_ok = bool(np.all(np.isfinite(arr))) and bool(np.isfinite(arr.max() - arr.min()))
        ok = range_ok and bool(np.isfinite(np.median(arr - arr.min())))
        if ok:
            assert np.array_equal(flowmap.check_flow_map(arr), arr)
            flowmap.process(arr, 2, 2, 1, 0.5)
        else:
            checks = [flowmap.check_flow_map, lambda a: flowmap.process(a, 2, 2, 1, 0.5),
                      lambda a: composed(a, 2, 2, 1, 0.5)]
            if not range_ok:
                checks.append(flowmap.shift_min)
            for check in checks:
                with pytest.raises(ValueError, match="non-finite"):
                    check(arr)

    def test_check_flow_map_rejects_bad_shapes(self):
        for values in (np.empty((0, 3)), [1.0, 2.0], np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="2-D"):
                flowmap.check_flow_map(values)
        assert flowmap.check_flow_map([[1, 2]]).dtype == np.float64

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("transposed", [False, True])
    def test_overflowing_range_rejected_like_stages(self, transposed):
        # finite map whose shifted copy overflows to infinity
        arr, grid = np.array([[-1e308, 0.0, 1e308]]), (1, 2)
        if transposed:
            arr, grid = arr.T, grid[::-1]
        for pipeline in (flowmap.process, composed):
            with pytest.raises(ValueError, match="non-finite"):
                pipeline(arr, *grid, 1, 0.5)


@st.composite
def map_lists(draw):
    """(maps, grid_rows, grid_cols): 1-17 same-shape maps and a target that
    is one row, one column, the maps' own size, or small.  Sides up to 40
    let the resize gather a sub-grid; quarter steps in [-2, 2] tie and go
    negative, normal values mostly do not."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    count = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        maps = [rng.integers(-8, 9, size=(rows, cols)) / 4.0 for _ in range(count)]
    else:
        maps = [rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=(rows, cols))
                for _ in range(count)]
    grid = draw(st.sampled_from([
        (1, draw(st.integers(1, 6))), (draw(st.integers(1, 6)), 1), (rows, cols),
        (draw(st.integers(1, 6)), draw(st.integers(1, 6))),
    ]))
    return maps, *grid


class TestProcessList:
    """process() on a list of same-shape maps gives one row per map, each
    equal to the stage composition on that map alone."""

    @given(map_lists(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_stage_composition(self, case, k):
        maps, gr, gc = case
        before = [m.copy() for m in maps]
        out = flowmap.process(maps, gr, gc, k, 0.5)
        assert out.shape == (len(maps), gr * gc * k)
        for arr, row in zip(maps, out):
            expected = composed(arr, gr, gc, k, 0.5)
            assert np.array_equal(row, expected)
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))
        assert all(np.array_equal(m, b) for m, b in zip(maps, before))

    def test_sub_grid_gather_and_one_row_targets_are_covered(self):
        # the strategy's sizes reach both resize layouts the rows must match
        assert flowmap._taps(40, 1)[0] is not None and flowmap._taps(40, 6)[0] is not None
        assert flowmap._taps(24, 6)[0] is None

    def test_single_map_is_its_list_of_one(self):
        arr = np.random.default_rng(8).normal(size=(9, 13))
        (row,) = flowmap.process([arr], 4, 5, 2, 0.5)
        single = flowmap.process(arr, 4, 5, 2, 0.5)
        assert single.shape == (40,) and np.array_equal(single, row)

    def test_maps_given_as_nested_lists(self):
        maps = [[[1, 3], [5, 7]], [[0, 0], [0, 1]]]
        out = flowmap.process(maps, 2, 2, 1, 0.5)
        for arr, row in zip(maps, out):
            assert np.array_equal(row, flowmap.process(arr, 2, 2, 1, 0.5))

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="share one shape"):
            flowmap.process([np.zeros((3, 4)), np.zeros((4, 3))], 2, 2, 1, 0.5)

    def test_empty_maps_rejected(self):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            flowmap.process([np.zeros((0, 3)), np.zeros((0, 3))], 2, 2, 1, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_one_bad_map_rejects_the_list(self, bad):
        maps = [np.random.default_rng(i).normal(size=(6, 6)) for i in range(5)]
        maps[3][2, 4] = bad
        if bad == 1e308:
            maps[3][0, 0] = -1e308  # finite, but its range overflows
        with pytest.raises(ValueError, match="non-finite"):
            flowmap.process(maps, 2, 2, 1, 0.5)


class TestCameraSizeMaps:
    """process() squashes only the tapped sub-grid of a camera-size map."""

    @pytest.fixture(scope="class", params=KITTI_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def camera_map(self, request):
        return blob_flow(np.random.default_rng(list(request.param)), *request.param)

    @pytest.mark.parametrize("fortran", [False, True])
    def test_equals_stage_composition(self, camera_map, fortran):
        arr = np.asfortranarray(camera_map) if fortran else camera_map
        for grid in [(8, 8), (6, 10), (1, 1), (375, 8)]:
            got = flowmap.process(arr, *grid, 2, 0.5)
            assert np.array_equal(got, composed(arr, *grid, 2, 0.5)), grid

    @pytest.mark.parametrize("fortran", [False, True])
    def test_within_ulps_of_dense_formula(self, camera_map, fortran):
        arr = np.asfortranarray(camera_map) if fortran else camera_map
        got = flowmap.process(arr, 8, 8, 2, 0.5)
        assert_within_ulps(got, composed(arr, 8, 8, 2, 0.5, resize=dense_resize))

    @pytest.mark.parametrize("seed", range(6))
    def test_simulator_size_equals_fixed_order_oracle(self, seed):
        # 32 -> 8 reads each pixel once, in order: the resize skips its gather
        rng = np.random.default_rng(seed)
        arr = blob_flow(rng, 32, 32) if seed % 2 else rng.gamma(2.0, size=(32, 32))
        expected = composed(arr, 8, 8, 2, 0.5, resize=fixed_order_resize)
        assert np.array_equal(flowmap.process(arr, 8, 8, 2, 0.5).view(np.int64), expected.view(np.int64))


class TestUntappedPixels:
    """Pixels the resize never reads still count for validation and the
    median, and for nothing else."""

    SHAPE, GRID = (375, 1242), (8, 8)

    def untapped(self):
        """Two pixels in rows and columns the resize never reads."""
        rows = np.setdiff1d(np.arange(self.SHAPE[0]), flowmap._taps(self.SHAPE[0], self.GRID[0])[0])
        cols = np.setdiff1d(np.arange(self.SHAPE[1]), flowmap._taps(self.SHAPE[1], self.GRID[1])[0])
        return (rows[0], cols[0]), (rows[-1], cols[-1])

    def camera_map(self):
        return blob_flow(np.random.default_rng(21), *self.SHAPE)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (-1e308, 1e308)])
    def test_bad_value_rejected(self, bad):
        arr = self.camera_map()
        for pixel, value in zip(self.untapped(), bad):
            arr[pixel] = value
        for check in (flowmap.check_flow_map, lambda a: flowmap.process(a, *self.GRID, 2, 0.5)):
            with pytest.raises(ValueError, match="non-finite"):
                check(arr)

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (-1e308, 1e308)])
    def test_bad_value_rejected_by_trace_loading(self, tmp_path, bad):
        arr = blob_flow(np.random.default_rng(22), 40, 40)
        assert 0 not in flowmap._taps(40, 8)[0] and 35 not in flowmap._taps(40, 8)[0]
        arr[0, 0], arr[35, 35] = bad
        fileio.write_matrix_csv(tmp_path / "flow0.csv", arr)
        fileio.save_grid_csv(tmp_path / "conf0.csv",
                             ConfidenceGrid(np.zeros((8, 8, 1)), np.zeros((8, 8, 1, 4))))
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(fileio.TRACE_HEADER) + "\n0,stationary,0,flow0.csv,conf0.csv\n")
        with pytest.raises(ValueError, match="flow0.csv: flow map contains non-finite"):
            fileio.load_trace(trace)

    def test_swapping_untapped_values_changes_nothing(self):
        arr = self.camera_map()
        (a, b) = self.untapped()
        arr[a], arr[b] = 50.0, 0.25
        base = flowmap.process(arr, *self.GRID, 2, 0.5)
        arr[a], arr[b] = arr[b], arr[a]
        assert np.array_equal(flowmap.process(arr, *self.GRID, 2, 0.5), base)
        # control: the same swap on two tapped pixels moves the output
        rows_used, cols_used = (flowmap._taps(n, g)[0] for n, g in zip(self.SHAPE, self.GRID))
        a, b = (rows_used[0], cols_used[1]), (rows_used[-1], cols_used[-2])
        arr[a], arr[b] = 50.0, 0.25
        base = flowmap.process(arr, *self.GRID, 2, 0.5)
        arr[a], arr[b] = arr[b], arr[a]
        assert not np.array_equal(flowmap.process(arr, *self.GRID, 2, 0.5), base)


# float32 (u, v) components: ties, signed zeros, and magnitudes across the
# whole float32 range, subnormals included
field_values = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 4.0])
    | st.floats(-8.0, 8.0, width=32)
    | st.floats(width=32, allow_nan=False, allow_infinity=False)
)


def flow_fields(max_side=12, elements=field_values):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side), st.just(2))
    return hnp.arrays(np.float32, shapes, elements=elements)


def f32(x):
    return float(np.float32(x))


def signed(magnitudes):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda sm: sm[0] * sm[1])


# components whose keys u^2 + v^2 are +0, subnormal or zero squares, keys
# of ordinary size, and keys near the float32 maximum, which may overflow
key_components = (
    st.sampled_from([0.0, -0.0])
    | signed(st.floats(2.0 ** -149, 2.0 ** -63, width=32))
    | st.floats(-8.0, 8.0, width=32)
    | signed(st.floats(f32(2.0 ** 63.5), 2.0 ** 64, width=32))
)
# a component whose square overflows float32, so its key is +inf
overflowing_components = signed(st.floats(f32(2.0 ** 64.1), float(np.finfo(np.float32).max), width=32))


@st.composite
def extreme_key_fields(draw, odd):
    """A field with an odd or even pixel count whose keys mix +0,
    subnormal squares, keys near the float32 maximum, and +inf keys on
    about half the pixels, so that +inf sits at, just above or just below
    the middle of the key."""
    if odd:
        shape = (2 * draw(st.integers(0, 4)) + 1, 2 * draw(st.integers(0, 4)) + 1)
    else:
        shape = (draw(st.integers(1, 9)), 2 * draw(st.integers(1, 5)))
    n = shape[0] * shape[1]
    pairs = draw(hnp.arrays(np.float32, (n, 2), elements=key_components))
    infinite = draw(st.just(0) | st.integers(max(0, n // 2 - 2), min(n, n // 2 + 2)))
    for i in draw(st.permutations(range(n)))[:infinite]:
        pairs[i, draw(st.integers(0, 1))] = draw(overflowing_components)
    return pairs.reshape(shape + (2,))


def blob_field(rng, rows, cols, blobs=3):
    """A float32 (u, v) field: an expansion about a focus point plus
    Gaussian bumps of independent motion."""
    y, x = np.mgrid[0:rows, 0:cols].astype(np.float64)
    k = rng.uniform(0.002, 0.006)
    uv = np.stack([k * (x - rng.uniform(0.4, 0.6) * cols), k * (y - rng.uniform(0.4, 0.6) * rows)], -1)
    for _ in range(blobs):
        r = rng.uniform(0.02, 0.08) * cols
        g = np.exp(-((y - rng.uniform(0, rows)) ** 2 + (x - rng.uniform(0, cols)) ** 2) / (2 * r * r))
        uv += g[..., None] * rng.uniform(-12.0, 12.0, 2)
    return uv.astype(np.float32)


def assert_field_matches_map(field, grid, k=2, c_th=0.5):
    got = flowmap.process(field, *grid, k, c_th)
    expected = flowmap.process(flowmap.flow_magnitude(field), *grid, k, c_th)
    assert np.array_equal(got, expected), (field.shape, grid)


def sqrt_mismatch_field(rows=3, cols=5):
    """A field of pixels on which sqrt(u^2 + v^2) rounds away from hypot(u, v),
    so no proxy root can stand in for the map's order statistics."""
    uv = np.random.default_rng(30).normal(size=(4000, 2)).astype(np.float32)
    u, v = uv[:, 0].astype(np.float64), uv[:, 1].astype(np.float64)
    differ = np.flatnonzero(np.sqrt(u * u + v * v) != np.hypot(u, v))
    return uv[differ[:rows * cols]].reshape(rows, cols, 2)


def field_of_magnitudes(seed, log2_magnitudes):
    """A float32 field of pixels in random directions whose magnitudes are
    2 ** log2_magnitudes; magnitudes past 2^64 overflow the float32 key
    u^2 + v^2, through a square or through the sum."""
    rng = np.random.default_rng(seed)
    uv = rng.normal(size=np.shape(log2_magnitudes) + (2,))
    uv /= np.hypot(uv[..., :1], uv[..., 1:])
    return (uv * 2.0 ** np.asarray(log2_magnitudes)[..., None]).astype(np.float32)


def overflowing_field(seed, shape, overflowing):
    """A field of this shape whose keys overflow on `overflowing` pixels in
    shuffled places; the other magnitudes lie between 1/8 and 8."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    log2 = np.where(np.arange(n) < overflowing, rng.uniform(64.5, 127.9, n), rng.uniform(-3.0, 3.0, n))
    return field_of_magnitudes(seed, rng.permutation(log2).reshape(shape))


def subnormal_field(seed, shape=(12, 15)):
    """Components of magnitude 2^-149 to 2^-63, whose squares fall among the
    float32 subnormals or below them, mixed with zero and normal pixels."""
    rng = np.random.default_rng(seed)
    uv = rng.choice([-1.0, 1.0], shape + (2,)) * 2.0 ** rng.uniform(-149.0, -63.0, shape + (2,))
    kind = rng.random(shape + (1,))
    uv = np.where(kind < 0.3, 0.0, np.where(kind > 0.9, rng.normal(size=shape + (2,)), uv))
    return uv.astype(np.float32)


def pixel_pair(p, q):
    """A 1x2 field of two pixels given as hex float (u, v) pairs."""
    return np.array([[[float.fromhex(c) for c in p], [float.fromhex(c) for c in q]]], np.float32)


# Pixel pairs found by search whose float32 keys u^2 + v^2 order them
# opposite to their hypot: the first pixel has the smaller key and the
# larger hypot.  Each reversal is bridged by one term of the bracket.
KEY_REVERSED_PAIRS = {
    # one rounding per square and the sum: the relative term
    "key reversed by rounding": pixel_pair(("0x1.6ec248p-5", "-0x1.7ef84ap-4"),
                                           ("0x1.144fe8p-4", "0x1.4267e8p-4")),
    # squares rounded to the subnormal grid, 2^-149 against 2^-148: the absolute term
    "key reversed by subnormal squares": pixel_pair(("0x1.ac5eb4p-75", "0x0p+0"),
                                                    ("0x1.0c7ebcp-75", "0x1.0c7ebcp-75")),
    # the float32 maximum against an overflowed key: the floor's clamp
    "key reversed by overflow": pixel_pair(("0x1.154750p+62", "0x1.ecdf52p+63"),
                                           ("0x1.97def4p+63", "0x1.357df4p+63")),
}


# Pixel pairs found by search whose float32 keys |u + iv| (numpy's complex
# abs, as _field_key builds them) order them opposite to their hypot under
# numpy's AVX-512, AVX2 and baseline loops alike: the first pixel has the
# smaller key and the larger hypot.
CABS_REVERSED_PAIRS = {
    # a key a few ulps off: the relative term
    "complex abs reversed by rounding": pixel_pair(("0x1.2b6362p-5", "0x1.e9ba76p-4"),
                                                   ("0x1.ff2cb6p-4", "-0x1.eb3f0ap-8")),
    # keys one subnormal step apart: the absolute term
    "complex abs reversed among the subnormals": pixel_pair(("0x1.3df8p-136", "0x1.d63p-136"),
                                                            ("0x1.0304p-135", "0x1.dp-137")),
    # the float32 maximum against a key that overflowed below it: the floor's clamp
    "complex abs reversed by overflow": pixel_pair(("0x1.e0d82ap+127", "0x1.5fc0ecp+126"),
                                                   ("0x1.67a192p+126", "-0x1.df62a6p+127")),
}


def zero_pixel_field(seed, shape, zeros, scale=1.0):
    """A field whose pixels are u = v = 0 (signed zeros among them) in
    `zeros` shuffled places; elsewhere each component has a random sign and
    a magnitude from scale to 8 scale."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    uv = rng.choice([-1.0, 1.0], (n, 2)) * rng.uniform(1.0, 8.0, (n, 2)) * scale
    uv[rng.permutation(n)[:zeros]] = rng.choice([-0.0, 0.0], (zeros, 2))
    return uv.reshape(shape + (2,)).astype(np.float32)


FIXED_FIELDS = {
    "1x1": np.array([[[3.0, -4.0]]], np.float32),
    "zeros": np.zeros((9, 14, 2), np.float32),
    "signed zeros": np.array([[[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]], np.float32),
    "constant": np.full((7, 11, 2), -1.25, np.float32),
    "ties": np.random.default_rng(31).integers(-2, 3, size=(10, 13, 2)).astype(np.float32),
    "odd count": np.random.default_rng(32).normal(size=(9, 13, 2)).astype(np.float32),
    "even count": np.random.default_rng(33).normal(size=(10, 14, 2)).astype(np.float32),
    "mostly zero": np.where(np.random.default_rng(34).random((12, 15, 1)) < 0.7, 0.0,
                            np.random.default_rng(35).normal(size=(12, 15, 2))).astype(np.float32),
    "1e-30 to 1e30": (np.random.default_rng(36).normal(size=(11, 16, 2))
                      * 10.0 ** np.random.default_rng(37).uniform(-30, 30, (11, 16, 1))
                      ).astype(np.float32),
    "sqrt rounds differently": sqrt_mismatch_field(),
    "float32 extremes": np.array([[[3.4e38, -3.4e38], [1e-45, 0.0]], [[-1e-45, 1e-45], [1.0, 2.0]]],
                                 np.float32),
    "every key overflows": overflowing_field(41, (6, 7), 42),
    "median keys overflow": overflowing_field(42, (8, 9), 40),
    "upper half of keys overflows": overflowing_field(43, (8, 9), 36),
    "subnormal squares": subnormal_field(44),
    **KEY_REVERSED_PAIRS,
    # lower middle key 0 and upper nonzero, then both 0: each rank branch of _field_stats
    "half zeros": zero_pixel_field(46, (10, 14), 70),
    "half + 1 zeros": zero_pixel_field(47, (10, 14), 71),
    "half zeros, odd count": zero_pixel_field(48, (9, 13), 59),
    # the nonzero half keyed 2^-149 and up, within 2^-120 of the zero keys
    "half zeros, subnormal rest": zero_pixel_field(49, (10, 14), 70, scale=2.0 ** -149),
    **CABS_REVERSED_PAIRS,
}


class TestFlowFields:
    """process() on an (h, w, 2) float32 field equals process() on its
    magnitude map, bit for bit, without building that map."""

    @given(flow_fields(), st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_process_of_magnitude(self, field, gr, gc):
        assert_field_matches_map(field, (gr, gc))

    @staticmethod
    def assert_stats_exact(field):
        magnitude = np.sort(flowmap.flow_magnitude(field), axis=None)
        n = magnitude.size
        lo, hi, lower, upper = flowmap._field_stats(field)
        assert lo == magnitude[0] and hi == magnitude[-1]
        assert (lower, upper) == (magnitude[(n - 1) // 2], magnitude[n // 2])

    @given(flow_fields(max_side=20))
    @settings(max_examples=300, deadline=None)
    def test_order_statistics_equal_the_maps(self, field):
        self.assert_stats_exact(field)

    @pytest.mark.parametrize("odd", [True, False], ids=["odd count", "even count"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_order_statistics_of_extreme_keys(self, odd, data):
        # the key's middle values are selected on its int32 bit patterns,
        # which order +0, subnormal, normal and +inf keys as their values
        field = data.draw(extreme_key_fields(odd))
        assert field.shape[0] * field.shape[1] % 2 == odd
        self.assert_stats_exact(field)

    def test_order_statistics_where_sqrt_rounds_differently(self):
        for rows, cols in [(1, 1), (1, 2), (3, 5), (6, 9)]:
            field = sqrt_mismatch_field(rows, cols)
            assert field.shape == (rows, cols, 2)
            self.assert_stats_exact(field)

    @pytest.mark.parametrize("seed", range(8))
    def test_brackets_absorb_a_hypot_one_ulp_off(self, monkeypatch, seed):
        # a hypot 1 ulp off can reverse the order of pixels whose u^2 + v^2
        # are a few float64 ulps apart: u = 2^23 + 1 and v on a 2^-15 grid
        # near 256 moves u^2 + v^2 by about 1 ulp per step.  Their float32
        # keys are equal, so one bracket must hold them all
        exact = flowmap._hypot

        def one_ulp_off(uv):
            h = exact(uv)
            up = np.asarray(uv[..., 1], np.float32).view(np.uint32) & 1 == 1
            return np.where(up, np.nextafter(h, np.inf), np.nextafter(h, 0.0))

        monkeypatch.setattr(flowmap, "_hypot", one_ulp_off)
        v = 256.0 + np.random.default_rng(seed).integers(0, 64, size=(15, 20)) * 2.0 ** -15
        field = np.stack([np.full(v.shape, 2.0 ** 23 + 1), v], -1).astype(np.float32)
        self.assert_stats_exact(field)
        assert_field_matches_map(field, (4, 4))

    @given(flow_fields(elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 4.0])),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_equals_process_of_magnitude_with_ties(self, field, gr, gc):
        assert_field_matches_map(field, (gr, gc))

    @given(flow_fields())
    @settings(max_examples=60, deadline=None)
    def test_fully_tapped_fields(self, field):
        # a grid of the field's own size, and a 4x downsample, which reads
        # each pixel once, in order
        rows, cols = field.shape[:2]
        assert_field_matches_map(field, (rows, cols))
        tiled = np.tile(field, (4, 4, 1))
        assert flowmap._taps(4 * rows, rows)[0] is None and flowmap._taps(4 * cols, cols)[0] is None
        assert_field_matches_map(tiled, (rows, cols))

    @pytest.mark.parametrize("name", sorted(FIXED_FIELDS))
    @pytest.mark.parametrize("transposed", [False, True])
    def test_fixed_cases(self, name, transposed):
        # a transposed field is a strided view, and its pixels come in another order
        field = FIXED_FIELDS[name].transpose(1, 0, 2) if transposed else FIXED_FIELDS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.assert_stats_exact(field)
            for grid in [(1, 1), (2, 3), (8, 8), (6, 10), field.shape[:2]]:
                assert_field_matches_map(field, grid)

    @staticmethod
    def float32_keys(field):
        with np.errstate(over="ignore"):
            squares = np.square(field)
            return squares[..., 0] + squares[..., 1]

    @pytest.mark.parametrize("name", sorted(KEY_REVERSED_PAIRS))
    def test_pairs_whose_keys_order_against_hypot(self, name):
        field = KEY_REVERSED_PAIRS[name]
        (key,), (magnitude,) = self.float32_keys(field), flowmap.flow_magnitude(field)
        assert key[0] < key[1] and magnitude[0] > magnitude[1]

    @staticmethod
    def complex_abs_keys(field):
        return flowmap._field_key(field)[1]

    @pytest.mark.parametrize("name", sorted(CABS_REVERSED_PAIRS))
    def test_pairs_whose_complex_abs_keys_order_against_hypot(self, name):
        field = CABS_REVERSED_PAIRS[name]
        key, (magnitude,) = self.complex_abs_keys(field), flowmap.flow_magnitude(field)
        assert key[0] < key[1] and magnitude[0] > magnitude[1]

    def test_key_is_zero_exactly_for_zero_pixels(self):
        zeros = np.array([[[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]], np.float32)
        assert np.all(self.complex_abs_keys(zeros).view(np.int32) == 0)  # +0.0, never -0.0
        tiny = 2.0 ** -149
        tinies = np.array([[[tiny, 0.0], [-tiny, -0.0], [0.0, tiny], [-0.0, -tiny], [tiny, -tiny]]],
                          np.float32)
        assert np.all(self.complex_abs_keys(tinies) > 0.0)

    def test_key_within_2_to_minus_20_of_hypot(self):
        # magnitudes from 2^-128, among the subnormals, to just below the float32 maximum
        field = field_of_magnitudes(50, np.linspace(-128.0, 127.99, 4096).reshape(64, 64))
        key = self.complex_abs_keys(field).astype(np.float64)
        magnitude = flowmap.flow_magnitude(field).ravel()
        assert magnitude.min() < np.finfo(np.float32).tiny and np.all(np.isfinite(key))
        assert np.all(np.abs(key - magnitude) <= 2.0 ** -20 * magnitude)

    @pytest.mark.parametrize("name, lower_zero, upper_zero", [
        ("half zeros", True, False), ("half + 1 zeros", True, True), ("half zeros, odd count", True, True),
        ("half zeros, subnormal rest", True, False), ("even count", False, False),
    ])
    def test_zero_middle_keys_reach_each_branch(self, name, lower_zero, upper_zero):
        lower, upper = flowmap._middle(self.complex_abs_keys(FIXED_FIELDS[name]))
        assert (lower == 0, upper == 0) == (lower_zero, upper_zero)

    def test_zero_ranks_take_no_bracket(self, monkeypatch):
        # a key is 0 only where u = v = 0, so a field of half zero pixels
        # sends none of them through hypot for its minimum or middle values,
        rows, cols = self.SHAPE
        n = rows * cols
        field = blob_field(np.random.default_rng(51), rows, cols)
        field[np.random.default_rng(52).permutation(n).reshape(rows, cols) < n // 2] = 0.0
        magnitude = np.sort(flowmap.flow_magnitude(field), axis=None)
        exact, sizes = flowmap._hypot, []
        monkeypatch.setattr(flowmap, "_hypot", lambda uv: sizes.append(len(uv)) or exact(uv))
        assert flowmap._field_stats(field) == (0.0, magnitude[-1], magnitude[n // 2 - 1], magnitude[n // 2])
        assert magnitude[n // 2 - 1] == 0.0 < magnitude[n // 2] and sum(sizes) < n // 100
        # nor an all-zero field for its maximum
        sizes.clear()
        assert flowmap._field_stats(np.zeros_like(field)) == (0.0, 0.0, 0.0, 0.0) and sum(sizes) == 0

    @pytest.mark.parametrize("name, overflowing", [
        ("every key overflows", 42), ("median keys overflow", 40), ("upper half of keys overflows", 36),
    ])
    def test_overflowing_keys_are_placed_as_built(self, name, overflowing):
        # overflowing_field's keys overflow where meant to, and its
        # magnitudes stay finite
        field = FIXED_FIELDS[name]
        assert np.count_nonzero(np.isinf(self.float32_keys(field))) == overflowing
        assert np.all(np.isfinite(flowmap.flow_magnitude(field)))
        assert flowmap.check_flow_map(field) is field

    def test_subnormal_field_holds_every_kind_of_key(self):
        key = self.float32_keys(FIXED_FIELDS["subnormal squares"])
        tiny = np.finfo(np.float32).tiny
        assert np.any(key == 0.0) and np.any((key > 0.0) & (key < tiny)) and np.any(key > 0.5)

    @pytest.mark.parametrize("shape", KITTI_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_camera_size_fields(self, shape):
        field = blob_field(np.random.default_rng(list(shape)), *shape)
        self.assert_stats_exact(field)
        for grid in [(8, 8), (6, 10), (1, 1)]:
            assert_field_matches_map(field, grid)

    def test_layouts_and_no_mutation(self):
        base = np.random.default_rng(38).normal(size=(24, 30, 2)).astype(np.float32)
        for field in (base, np.asfortranarray(base), base[::2, ::-3], base.copy()[:, :, ::-1]):
            before = field.copy()
            for grid in [(4, 5), field.shape[:2]]:
                assert_field_matches_map(field, grid)
            assert np.array_equal(field, before)

    def test_check_flow_map_returns_field_as_is(self):
        field = FIXED_FIELDS["odd count"]
        assert flowmap.check_flow_map(field) is field

    @pytest.mark.parametrize("values", [
        np.zeros((4, 4, 2)),  # float64: its squares are not exact
        np.zeros((4, 4, 2), np.float16),
        np.zeros((4, 4, 3), np.float32),
        np.zeros((0, 4, 2), np.float32),
        np.zeros((2, 4, 4, 2), np.float32),
    ], ids=["float64", "float16", "three components", "empty", "4-D"])
    def test_other_arrays_rejected(self, values):
        for check in (flowmap.check_flow_map, lambda a: flowmap.process(a, 2, 2, 1, 0.5)):
            with pytest.raises(ValueError, match="2-D"):
                check(values)

    SHAPE, GRID = (60, 90), (8, 8)

    def untapped_pixel(self):
        rows = np.setdiff1d(np.arange(self.SHAPE[0]), flowmap._taps(self.SHAPE[0], self.GRID[0])[0])
        cols = np.setdiff1d(np.arange(self.SHAPE[1]), flowmap._taps(self.SHAPE[1], self.GRID[1])[0])
        return rows[0], cols[-1]

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_untapped_component_rejected(self, tmp_path, component, bad):
        field = blob_field(np.random.default_rng(39), *self.SHAPE)
        field[self.untapped_pixel() + (component,)] = bad
        self.assert_rejected_everywhere(tmp_path, field)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_component_among_overflowing_keys_rejected(self, tmp_path, component, bad):
        # an infinite key that hides among keys overflowed from finite values
        field = FIXED_FIELDS["every key overflows"].copy()
        field[2, 3, component] = bad
        self.assert_rejected_everywhere(tmp_path, field)

    def assert_rejected_everywhere(self, tmp_path, field):
        """process, check_flow_map and trace loading each reject the field."""
        for check in (flowmap.check_flow_map, lambda a: flowmap.process(a, *self.GRID, 2, 0.5)):
            with pytest.raises(ValueError, match="non-finite"):
                check(field)
        fileio.write_flo(tmp_path / "flow0.flo", field)
        fileio.save_grid_csv(tmp_path / "conf0.csv",
                             ConfidenceGrid(np.zeros((8, 8, 1)), np.zeros((8, 8, 1, 4))))
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(fileio.TRACE_HEADER) + "\n0,stationary,0,flow0.flo,conf0.csv\n")
        with pytest.raises(ValueError, match="flow0.flo: flow map contains non-finite"):
            fileio.load_trace(trace)

    def test_flo_trace_replays_like_magnitude_trace(self, tmp_path):
        """A trace of .flo fields loads the fields and replays exactly like
        the same trace of their magnitude maps as CSV files."""
        sc = sim.ScenarioConfig(horizon=30, seed=5, flow_rows=40, flow_cols=50, grid_rows=4,
                                grid_cols=5, mean_objects_stationary=0.8)
        gen = sim.FrameGenerator(sc)
        frames = [gen.next(t) for t in range(sc.horizon)]
        traces = {}
        for kind in ("flo", "csv"):
            rows = [",".join(fileio.TRACE_HEADER)]
            for frame in frames:
                field = blob_field(np.random.default_rng([40, frame.t]), sc.flow_rows, sc.flow_cols)
                if kind == "flo":
                    fileio.write_flo(tmp_path / f"flow{frame.t}.flo", field)
                else:
                    fileio.write_matrix_csv(tmp_path / f"flow{frame.t}.csv", flowmap.flow_magnitude(field))
                fileio.save_grid_csv(tmp_path / f"conf{frame.t}.csv", frame.grid)
                rows.append(f"{frame.t},{frame.regime},{frame.num_objects},flow{frame.t}.{kind},conf{frame.t}.csv")
            (tmp_path / f"{kind}.csv").write_text("\n".join(rows) + "\n")
            traces[kind] = fileio.load_trace(tmp_path / f"{kind}.csv")
        assert all(f.flow.dtype == np.float32 and f.flow.ndim == 3 for f in traces["flo"])
        results = [sim.run(sc, make_policy(PolicyKind.DPP), frames=traces[kind]) for kind in ("flo", "csv")]
        assert {alpha.value for alpha in results[0].alpha} == {"H", "T"}
        assert results[0].alpha == results[1].alpha
        assert np.array_equal(results[0].q, results[1].q)
        assert np.array_equal(results[0].perf, results[1].perf)

    def test_rank_outside_its_bracket_raises(self):
        # hypot breaking the ordering assumption must fail loudly, never
        # read a value from the far end of the bracket
        pairs = np.array([[3.0, 4.0], [1.0, 0.0]], np.float32)
        inside = np.array([True, False])
        assert flowmap._bracketed(pairs, inside, 1, [1]).tolist() == [5.0]
        for below, ranks in [(2, [1]), (0, [1]), (1, [0, 1])]:
            with pytest.raises(RuntimeError, match="bracket"):
                flowmap._bracketed(pairs, inside, below, ranks)


class TestMedianOverflow:
    """A finite map whose two middle values sum past the float64 maximum."""

    MAP = np.array([[0.0, 1.7e308, 1.7e308, 1.7e308]])

    @pytest.mark.filterwarnings("error")
    def test_rejected_without_a_warning(self):
        median = median_of(flowmap.shift_min(self.MAP))
        assert median == np.inf and type(median) is np.float64
        for check in (flowmap.check_flow_map, lambda a: flowmap.process(a, 1, 2, 1, 0.5),
                      lambda a: flowmap.process(a, 1, 4, 1, 0.5)):
            with pytest.raises(ValueError, match="non-finite"):
                check(self.MAP)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_agrees_with_the_stages(self):
        with pytest.raises(ValueError, match="non-finite"):
            composed(self.MAP, 1, 2, 1, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_medians_unchanged(self):
        # the mean of the middle values, taken in Python floats, equals
        # np.median's right up to the float64 maximum
        top = np.finfo(np.float64).max
        for values in ([0.0, top / 2, top / 2, top], [1.0, 3.0, 5e307, 8e307, 9e307, 1e308]):
            arr = np.array([values])
            median = median_of(arr)
            assert median == np.median(arr) and np.isfinite(median)
            for grid in [(1, 2), arr.shape]:
                assert np.array_equal(flowmap.check_flow_map(arr), arr)
                assert np.array_equal(flowmap.process(arr, *grid, 1, 0.5), composed(arr, *grid, 1, 0.5))


class TestClipBounds:
    """The clip bounds come from order statistics, not a full-map pass."""

    @staticmethod
    def assert_bounds_exact(arr):
        shifted = flowmap.shift_min(arr)
        lower, upper = flowmap._middle(shifted.flatten())
        median = flowmap._median(lower, upper, shifted.size)
        # the full-map pass the bounds replace, with the same kernels
        squashed = flowmap._squash(flowmap._abs_deviation(shifted, median))
        got = flowmap._squashed_range(median, lower, upper, arr.max() - arr.min())
        assert np.array_equal(got, [squashed.min(), squashed.max()])

    @given(float_maps(max_side=9, elements=finite | dyadic | st.sampled_from([0.0, 1.0, 2.5])))
    @settings(max_examples=300)
    def test_equal_full_map_min_max(self, arr):
        self.assert_bounds_exact(arr)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("arr", [
        [[2.5]], [[3.0, 3.0], [3.0, 3.0]], [[1.0, 2.0]], [[1.0, 1.0, 2.0]],
        [[0.0, 1.7e308, 1.7e308, 1.7e308]],  # the middle values' sum overflows
        [[5e-324, 0.0]],
    ], ids=["1x1", "constant", "pair", "ties", "median overflow", "subnormal"])
    def test_edge_cases(self, arr, negated):
        # negating swaps which end of the shifted map lies farther from the median
        self.assert_bounds_exact(-np.array(arr) if negated else np.array(arr))

    @pytest.mark.parametrize("seed", range(4))
    def test_camera_size_maps(self, seed):
        self.assert_bounds_exact(blob_flow(np.random.default_rng(seed), *KITTI_SHAPES[seed]))


class TestStagesMatchPlainNumpy:
    """Each public stage equals its textbook numpy expression."""

    @given(float_maps())
    def test_shift_min(self, arr):
        assert np.array_equal(flowmap.shift_min(arr), arr - arr.min())

    @given(float_maps())
    def test_center_abs_median(self, arr):
        assert np.array_equal(flowmap.center_abs_median(arr), np.abs(arr - np.median(arr)))

    @given(float_maps(elements=exp_safe))
    def test_squash(self, arr):
        assert np.array_equal(flowmap.squash(arr), 1.0 / (1.0 + np.exp(-arr)))

    @given(float_maps(elements=exp_safe), st.integers(1, 3))
    def test_vectorize_thresholds(self, arr, k):
        expected = 0.5 / (1.0 + np.exp(2.0 * np.tile(arr.ravel(), k)))
        assert np.array_equal(flowmap.vectorize_thresholds(arr, k, 0.5), expected)

    @given(float_maps(), st.integers(1, 12), st.integers(1, 12))
    def test_resize_bicubic(self, arr, gr, gc):
        # exact oracle: the 4-tap sums in Python floats, in the same order;
        # the dense product sums the same taps plus exact zeros in another
        # order, so it agrees to a few ulps
        got = flowmap.resize_bicubic(arr, gr, gc)
        assert np.array_equal(got.view(np.int64), fixed_order_resize(arr, gr, gc).view(np.int64))
        assert_within_ulps(got, dense_resize(arr, gr, gc), scale=np.abs(arr).max())


class TestMedianHelper:
    @given(float_maps(max_side=9))
    def test_equals_np_median(self, arr):
        expected = np.median(arr)
        lower, upper = flowmap._middle(arr.flatten())
        got = flowmap._median(lower, upper, arr.size)
        assert got == expected and type(got) is type(expected)
        assert lower <= got <= upper
        assert np.all((arr <= lower) | (arr >= upper))

    @pytest.mark.parametrize("values", [[4.0], [2.0, 1.0], [3.0, 1.0, 2.0], [1.0, 1.0, 1.0, 5.0],
                                        [-0.0, 0.0], [7.0, -1.0, 7.0, 7.0, -1.0, 2.0]])
    def test_small_cases(self, values):
        assert median_of(np.array([values])) == np.median(values)

    def test_camera_size_map(self):
        arr = np.random.default_rng(5).normal(size=(375, 1242))
        assert median_of(arr) == np.median(arr)


class TestResizeWeightCache:
    """Each axis caches the source indices its 4 taps per output read, and
    their (n_dst, 4) weights; the index is None when it is arange."""

    SIZES = [(32, 8), (1242, 8), (375, 8), (5, 5), (3, 11), (1, 4), (7, 1)]

    @pytest.mark.parametrize("n_src,n_dst", SIZES[:2] + SIZES[3:])
    def test_read_only_and_equal_to_fresh(self, n_src, n_dst):
        cached = flowmap._taps(n_src, n_dst)
        assert cached is flowmap._taps(n_src, n_dst)
        fresh = flowmap._taps.__wrapped__(n_src, n_dst)
        for arr, new in zip(cached, fresh):
            if arr is None:  # an index that reads each sample once, in order
                assert new is None
                continue
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
            assert np.array_equal(arr, new)

    def test_cache_is_bounded(self):
        assert flowmap._taps.cache_info().maxsize is not None

    @pytest.mark.parametrize("n_src,n_dst", SIZES)
    def test_index_is_none_exactly_when_it_is_arange(self, n_src, n_dst):
        self.assert_taps_are_the_python_oracle(n_src, n_dst)

    @given(st.integers(1, 400), st.integers(1, 60))
    @settings(max_examples=200)
    def test_taps_are_the_dense_oracle_bit_for_bit(self, n_src, n_dst):
        # scattered into a dense matrix in tap order, the taps are its rows
        self.assert_taps_are_the_python_oracle(n_src, n_dst)
        index, weights = flowmap._taps.__wrapped__(n_src, n_dst)
        dense = np.zeros((n_dst, n_src))
        index = np.arange(n_src) if index is None else index
        np.add.at(dense, (np.repeat(np.arange(n_dst), 4), index), weights.ravel())
        expected = resize_weights(n_src, n_dst)
        assert np.array_equal(dense, expected) and np.array_equal(np.signbit(dense), np.signbit(expected))

    @staticmethod
    def assert_taps_are_the_python_oracle(n_src, n_dst):
        index, weights = flowmap._taps.__wrapped__(n_src, n_dst)
        taps = axis_taps(n_src, n_dst)
        expected = [i for indices, _ in taps for i in indices]
        if expected == list(range(n_src)):
            assert index is None
        else:
            assert index.dtype == np.intp and index.tolist() == expected
        expected = np.array([w for _, ws in taps for w in ws]).reshape(n_dst, 4)
        assert weights.shape == (n_dst, 4) and np.array_equal(weights.view(np.int64), expected.view(np.int64))

    def test_downsample_by_whole_factor_taps_every_index(self):
        # the simulator's 32x32 -> 8x8 maps: output i reads pixels 4i..4i+3
        index, weights = flowmap._taps(32, 8)
        assert index is None
        assert np.array_equal(weights, resize_weights(32, 8).reshape(8, 8, 4)[np.arange(8), np.arange(8)])

    def test_camera_map_taps_a_small_sub_grid(self):
        (rows_index, w_r), (cols_index, w_c) = flowmap._taps(375, 8), flowmap._taps(1242, 8)
        assert w_r.shape == (8, 4) and w_c.shape == (8, 4)
        assert rows_index.shape == (32,) and cols_index.shape == (32,)
        taps, *_ = flowmap._gather(np.zeros((1, 375, 1242)), 8, 8)
        assert taps.shape == (1, 32, 32)

    def test_axis_of_grid_size_is_neither_gathered_nor_weighted(self):
        taps, w_r, w_c = flowmap._gather(np.zeros((1, 375, 1242)), 375, 8)
        assert taps.shape == (1, 375, 32) and w_r is None and w_c.shape == (8, 4)
