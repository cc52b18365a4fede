"""Flow-map post-processing: turn a dense flow magnitude map into per-cell
confidence thresholds.

The pipeline is: shift so the minimum is zero, take the absolute deviation
from the median (large deviation = moving pixel), squash through a sigmoid,
resize to the detector's grid, then map each squashed value f to a threshold
c_th / (1 + exp(2 f)).  Larger flow deviation gives a lower threshold, so
cells with motion admit lower-confidence boxes.

The public stage functions are pure: each validates its input and returns a
new array.  process() runs the same private kernels from four order
statistics of the map (its min, max and two middle values) and touches the
whole map only to find them; a 375x1242 camera map resized to 8x8 shifts
and squashes the 32x32 pixels the bicubic resize reads.  Tap indices and
compact weights are cached per (source, target) size.

process() and check_flow_map() also take an (h, w, 2) float32 flow field,
as read_flo returns it, whose map is flow_magnitude(field): hypot(u, v) in
float64.  process() never builds that map; it reads the same four order
statistics off the proxy u^2 + v^2 (see _field_stats), and the result
equals process(flow_magnitude(field)) bit for bit.
"""

import functools
import math

import numpy as np

__all__ = [
    "shift_min",
    "center_abs_median",
    "squash",
    "resize_bicubic",
    "vectorize_thresholds",
    "process",
    "check_flow_map",
    "flow_magnitude",
]

_NON_FINITE = "flow map contains non-finite values"


def _as_matrix(values):
    """Return a flow map as a 2-D float64 array, checking only its shape."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"flow map must be a non-empty 2-D matrix, got shape {arr.shape}")
    return arr


def _as_input(values):
    """A flow map as a 2-D float64 array, or an (h, w, 2) float32 field as
    it is; checks only the shape and, for a field, the dtype."""
    arr = np.asarray(values)
    if arr.ndim == 3 and arr.shape[2] == 2 and arr.dtype == np.float32 and arr.size:
        return arr
    if arr.ndim == 3:
        raise ValueError("flow map must be a non-empty 2-D matrix or (h, w, 2) float32 field, "
                         f"got a {arr.dtype} array of shape {arr.shape}")
    return _as_matrix(arr)


def _as_flow_map(values):
    """Validate and return a flow map as a 2-D float64 array."""
    arr = _as_matrix(values)
    if not np.all(np.isfinite(arr)):
        raise ValueError(_NON_FINITE)
    return arr


def _extent(arr):
    """(min, max) of a 2-D float64 map as Python floats, rejecting what the
    full pipeline cannot take.

    max - min equals max(arr - min) exactly, because rounding a difference is
    monotone in its first operand.  min and max carry NaN, -inf shows in the
    min and +inf in the range, so one min and one max pass check every value;
    the range is also infinite when a finite map's shifted copy overflows
    float64.  Python floats overflow without a numpy warning.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi - lo)):
        raise ValueError(_NON_FINITE)
    return lo, hi


def _check_target(target_rows, target_cols):
    if target_rows < 1 or target_cols < 1:
        raise ValueError("target dimensions must be >= 1")


def _check_thresholds(num_boxes, c_th):
    if not 0.0 < c_th <= 1.0:
        raise ValueError(f"c_th must be in (0, 1], got {c_th}")
    if num_boxes < 1:
        raise ValueError("num_boxes must be >= 1")


# -- kernels: arithmetic shared by the public stages and process ------------

def _median(lower, upper, n):
    """The median of n values whose two middle values are lower and upper
    (the same value for odd n); it equals np.median's bit for bit.  Their
    mean is taken in Python floats, which overflow to inf without numpy's
    RuntimeWarning; _shifted rejects an infinite median.
    """
    if n % 2:
        return upper
    return np.float64((float(lower) + float(upper)) / 2.0)


def _middle(flat):
    """(lower, upper), the two middle values of a 1-D array (the same value
    for odd size), reordering its elements in place.

    One partition at n // 2 puts the upper middle value there and only
    smaller-or-equal values before it; for even n the lower middle value is
    the maximum of that lower half.  Every element is <= lower or >= upper.
    """
    n = flat.size
    half = n // 2
    flat.partition(half)
    upper = flat[half]
    return (flat[:half].max() if n % 2 == 0 else upper), upper


def _shifted(lo, hi, lower, upper, n):
    """(median, lower, upper, max) of a map of n values shifted to its
    minimum, given the map's min lo, max hi and middle values lower and
    upper: the shift is monotone, so it maps order statistics to order
    statistics.  A median that overflows float64 is rejected.
    """
    lo = float(lo)
    lower, upper = lower - lo, upper - lo
    median = _median(lower, upper, n)
    if not math.isfinite(median):  # the middle values' sum overflows
        raise ValueError(_NON_FINITE)
    return median, lower, upper, float(hi) - lo


def _abs_deviation(buf, median):
    np.subtract(buf, median, out=buf)
    return np.abs(buf, out=buf)


def _squash(buf):
    """1 / (1 + exp(-x)), in place."""
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf += 1.0
    return np.divide(1.0, buf, out=buf)


def _squashed_range(median, lower, upper, extent):
    """[min, max] of the squashed deviations of a map shifted to its minimum,
    given the shifted map's median, middle values lower and upper, and
    maximum, extent.

    fl(s - median) is monotone in s, so |s - median| falls to the median
    and rises after it, and squash is monotone: the minimum sits at lower
    or upper, between which no element lies, and the maximum at the
    shifted map's ends, 0 and extent.
    """
    near = min(abs(lower - median), abs(upper - median))
    far = max(abs(0.0 - median), abs(extent - median))
    return _squash(np.array([near, far]))


def _keys_kernel(x, a=-0.5):
    """Classical cubic convolution kernel with free parameter a."""
    ax = np.abs(x)
    inner = ((a + 2.0) * ax - (a + 3.0)) * ax * ax + 1.0
    outer = a * (((ax - 5.0) * ax + 8.0) * ax - 4.0)
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


def _resize_weights(n_src, n_dst):
    """Dense (n_dst, n_src) bicubic weight matrix, clamp-to-edge taps.

    Output sample i reads source coordinate (i + 0.5) * scale - 0.5, the
    center-aligned convention, which degenerates to the identity matrix when
    n_src == n_dst.  Each row has at most 4 nonzero entries.
    """
    scale = n_src / n_dst
    x = (np.arange(n_dst) + 0.5) * scale - 0.5
    base = np.floor(x).astype(int)
    frac = x - base
    offsets = np.arange(-1, 3)
    taps = base[:, None] + offsets[None, :]
    weights = _keys_kernel(frac[:, None] - offsets[None, :])
    taps = np.clip(taps, 0, n_src - 1)
    mat = np.zeros((n_dst, n_src))
    np.add.at(mat, (np.repeat(np.arange(n_dst), 4), taps.ravel()), weights.ravel())
    return mat


@functools.lru_cache(maxsize=32)
def _taps(n_src, n_dst):
    """(used, weights): the sorted source indices with a nonzero weight in
    _resize_weights(n_src, n_dst), and its (n_dst, len(used)) columns at
    those indices.  Cached, so both arrays are read-only.
    """
    dense = _resize_weights(n_src, n_dst)
    used = np.flatnonzero(np.any(dense != 0.0, axis=0))
    weights = np.ascontiguousarray(dense[:, used])  # the dense layout, for BLAS
    for arr in (used, weights):
        arr.setflags(write=False)
    return used, weights


def _resize_plan(shape, target_rows, target_cols):
    """How to resize a map of this shape: None when it already matches,
    else (index, row weights, column weights) with the resized map equal to
    row_weights @ map[index] @ column_weights.T.  index selects the sub-grid
    of tapped pixels; it is None when every pixel is tapped.
    """
    rows, cols = shape
    if (target_rows, target_cols) == (rows, cols):
        return None
    rows_used, w_r = _taps(rows, target_rows)
    cols_used, w_c = _taps(cols, target_cols)
    if rows_used.size == rows and cols_used.size == cols:
        index = None
    else:
        index = np.ix_(rows_used, cols_used)
    return index, w_r, w_c


def _thresholds(flat, num_boxes, c_th):
    """c_th / (1 + exp(2 f)) in place on a 1-D array, then num_boxes copies."""
    flat *= 2.0
    np.exp(flat, out=flat)
    flat += 1.0
    np.divide(c_th, flat, out=flat)
    return np.concatenate((flat,) * num_boxes)


# -- flow fields: order statistics of hypot(u, v) without the whole map -----

# Relative half-width of the bracket around each needed order statistic of
# the proxy u^2 + v^2; see _field_stats.
_BRACKET = 2.0 ** -40


def _hypot(uv):
    """hypot(u, v) in float64 of an (..., 2) array of (u, v) pairs."""
    return np.hypot(uv[..., 0], uv[..., 1], dtype=np.float64)


def _field_squares(field):
    """(pairs, s, min s, max s) of an (h, w, 2) float32 field: pairs is its
    (n, 2) row-major view and s[i] = u^2 + v^2 of pixel i in float64.

    Squares of float32 values are exact in float64, neither overflow nor
    underflow, and are non-negative, so s carries a single rounding, and
    NaN shows in its min and inf in its max: the field is rejected exactly
    when its hypot map is non-finite.
    """
    pairs = field.reshape(-1, 2)
    s = np.square(pairs[:, 0], dtype=np.float64)
    s += np.square(pairs[:, 1], dtype=np.float64)
    lo, hi = s.min(), s.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(_NON_FINITE)
    return pairs, s, lo, hi


def _bracketed(pairs, inside, below, ranks):
    """The values at these ranks (0-based, ascending) of the hypot map of a
    field, given the pixels inside a bracket of s that holds them all and
    the count of pixels below it.  hypot runs on the bracket's pixels only.
    """
    values = _hypot(pairs[np.flatnonzero(inside)])  # faster than a boolean index
    offsets = [rank - below for rank in ranks]
    # a rank outside its bracket means hypot broke the ordering assumed in
    # _field_stats; fail rather than let a negative offset index from the end
    if min(offsets) < 0 or max(offsets) >= values.size:
        raise RuntimeError("a hypot order statistic fell outside its bracket")
    values.partition(offsets)
    return values[offsets]


def _field_stats(field):
    """(min, max, lower, upper) of flow_magnitude(field), lower and upper
    being its two middle values (the same value for an odd pixel count),
    computed from the proxy s = u^2 + v^2 without building the map.

    s is within a relative 2^-53 of u^2 + v^2 and np.hypot within 1 ulp
    (2^-52) of its true value, so two pixels whose s differ by more than a
    relative 2^-50 or so are ordered the same way by hypot; _BRACKET leaves
    a margin of about 1000 over that.  Let c be the rank-r value of s.  A
    pixel with s below c (1 - _BRACKET) has a smaller hypot than each of
    the n - r pixels with s >= c, one of which has a hypot at most the
    map's rank-r value; so it ranks below that value, and likewise a pixel
    above c (1 + _BRACKET) ranks above it.  The map's rank-r value is then
    the rank (r - count below) hypot of the pixels in between, and one
    bracket serves adjacent ranks.  One partition of a copy of s gives its
    middle values; its minimum and maximum are already known.
    """
    pairs, s, s_min, s_max = _field_squares(field)
    n = s.size
    half = n // 2
    part = s.copy()
    lower, upper = _middle(part)
    (lo,) = _bracketed(pairs, s <= s_min * (1.0 + _BRACKET), 0, [0])
    inside = s >= s_max * (1.0 - _BRACKET)
    (hi,) = _bracketed(pairs, inside, n - np.count_nonzero(inside), [n - 1])
    a, b = lower * (1.0 - _BRACKET), upper * (1.0 + _BRACKET)
    # every s below a precedes the partition point
    below = np.count_nonzero(part[:half] < a)
    middle = _bracketed(pairs, (s >= a) & (s <= b), below, [half] if n % 2 else [half - 1, half])
    return lo, hi, middle[0], middle[-1]


# -- public stages ----------------------------------------------------------

def shift_min(values):
    """Shift the map so its minimum value is exactly zero.

    A map whose range overflows float64 is rejected like a non-finite one.
    """
    arr = _as_matrix(values)
    return np.subtract(arr, _extent(arr)[0])


def center_abs_median(values):
    """Absolute deviation from the map-wide median.

    Values near the median are static pixels and map to ~0; values near either
    extreme are moving pixels and map to large deviations.
    """
    arr = _as_flow_map(values)
    median = _median(*_middle(arr.flatten(order="K")), arr.size)
    return _abs_deviation(arr.copy(order="K"), median)


def squash(values):
    """Elementwise logistic sigmoid; non-negative inputs land in [0.5, 1)."""
    return _squash(_as_flow_map(values).copy(order="K"))


def resize_bicubic(values, target_rows, target_cols):
    """Separable bicubic resize (Keys kernel, a = -0.5, clamped borders).

    Reads only the source rows and columns with a nonzero tap weight.
    """
    arr = _as_flow_map(values)
    _check_target(target_rows, target_cols)
    plan = _resize_plan(arr.shape, target_rows, target_cols)
    if plan is None:
        return arr.copy()
    index, w_r, w_c = plan
    return w_r @ (arr if index is None else arr[index]) @ w_c.T


def vectorize_thresholds(values, num_boxes, c_th):
    """Flatten a squashed map row-major, replicate it num_boxes times, and map
    each value f to the threshold c_th / (1 + exp(2 f)).

    The output has length rows * cols * num_boxes and consists of num_boxes
    identical blocks; entry for cell (i, j) and box k lives at index
    k * rows * cols + i * cols + j.
    """
    arr = _as_flow_map(values)
    _check_thresholds(num_boxes, c_th)
    return _thresholds(arr.flatten(order="C"), num_boxes, c_th)


def flow_magnitude(flow_uv):
    """Per-pixel magnitude hypot(u, v) in float64 of a (h, w, 2) flow field."""
    return _hypot(np.asarray(flow_uv, dtype=np.float64))


def process(values, grid_rows, grid_cols, num_boxes, c_th):
    """Full pipeline from raw flow map to per-cell threshold vector.

    Bicubic interpolation can overshoot the source range; the resized map is
    clipped back to the squashed map's [min, max].  Squashed deviations lie
    in [0.5, 1], so every threshold lies in [c_th/(1+e^2), c_th/(1+e)] up to
    rounding: positive, and below c_th.

    The map (see check_flow_map) and the parameters are validated once, up
    front.  The whole map is read only for its min, max and two middle
    values: one min and one max pass and one partition of a copy.  The shift
    is monotone, so it maps them to the shifted map's as scalars.  Shift,
    deviation and squash then run on the pixels the resize taps: the whole
    map when every pixel is tapped, else a gathered copy of at most 4 rows
    per grid row by 4 columns per grid column.  The clip bounds are exact
    without a pass of their own: |s - median| rounds monotonically in s on
    either side of the median and squash is monotone, so the squashed
    minimum sits at the middle values, between which no element lies, and
    the maximum at the shifted map's ends, 0 and its maximum.

    values may also be an (h, w, 2) float32 flow field, standing for the
    map flow_magnitude(values), which is never built: its min, max and
    middle values come from the proxy u^2 + v^2, exact but for one
    rounding, bracketed by a relative 2^-40 and resolved by hypot on the few
    pixels inside each bracket (see _field_stats; this assumes np.hypot is
    within 1 ulp).  hypot then runs once more, on the tapped pixels.

    A map whose median overflows float64, such as [[0, 1.7e308, 1.7e308,
    1.7e308]], is rejected as non-finite, as the stages reject it.  The
    result equals the composition of the public stages bit for bit (on
    flow_magnitude(values) for a field), and the input is never modified.
    """
    arr = _as_input(values)
    _check_target(grid_rows, grid_cols)
    _check_thresholds(num_boxes, c_th)
    if arr.ndim == 2:
        lo, hi, lower, upper = *_extent(arr), *_middle(arr.flatten(order="K"))
    else:
        lo, hi, lower, upper = _field_stats(arr)
    median, lower, upper, extent = _shifted(lo, hi, lower, upper, arr.shape[0] * arr.shape[1])
    plan = _resize_plan(arr.shape[:2], grid_rows, grid_cols)
    tapped = arr if plan is None or plan[0] is None else arr[plan[0]]
    tapped = np.subtract(tapped if arr.ndim == 2 else _hypot(tapped), lo)
    _squash(_abs_deviation(tapped, median))
    if plan is not None:
        _, w_r, w_c = plan
        tapped = w_r @ tapped @ w_c.T
        floor, ceiling = _squashed_range(median, lower, upper, extent)
        np.maximum(tapped, floor, out=tapped)
        np.minimum(tapped, ceiling, out=tapped)
    return _thresholds(tapped.ravel(order="C"), num_boxes, c_th)


def check_flow_map(values):
    """Validate a flow map exactly as process does and return it: a 2-D map
    as a float64 array, an (h, w, 2) float32 field as it is.

    Rejects an empty map, an array that is neither a 2-D map nor such a
    field, a non-finite value (in u or v for a field), a finite map whose
    range max - min overflows float64, and one whose shifted median does.
    Lets a caller that may skip process on some frames, such as trace
    replay, reject such maps up front.
    """
    arr = _as_input(values)
    if arr.ndim == 3:  # a field's magnitudes stay far below half the float64 maximum
        _field_squares(arr)
        return arr
    lo, hi = _extent(arr)
    # only shifted values above half the float64 maximum can sum past it
    if hi - lo > np.finfo(np.float64).max / 2.0:
        _shifted(lo, hi, *_middle(arr.flatten(order="K")), arr.size)
    return arr
