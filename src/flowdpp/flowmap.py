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
and squashes the 32x32 pixels the bicubic resize reads.  The resize sums
them in a fixed order, with no BLAS call, so its bits are the same on every
CPU (float64 exp's are not; see process).  An axis of the grid's size is
read once, neither gathered nor summed.  process() also takes a list of
same-shape maps, one row each, and runs each stage once over all.

process() and check_flow_map() also take an (h, w, 2) float32 flow field,
as read_flo returns it, whose map is flow_magnitude(field): hypot(u, v) in
float64.  process() never builds that map.  Its whole-field passes run on
the float32 key |u + iv|, half the bytes of a float64 map, a few ulps off
and inf near or past the float32 maximum; each order statistic is resolved
by hypot on the few pixels inside a bracket of the key wide enough for
both, or is 0.0 where its key is (see _field_stats).  The result equals
process(flow_magnitude(field)) bit for bit.
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


def _extent(flat):
    """(min, max) along the last axis of float64 maps flattened to it,
    rejecting what the full pipeline cannot take.

    max - min equals max(arr - min) exactly, because rounding a difference is
    monotone in its first operand.  min and max carry NaN, and -inf in the
    min or +inf in the max makes the range inf or NaN, so one min and one
    max pass check every value; the range is also infinite when a finite
    map's shifted copy overflows float64.
    """
    lo, hi = flat.min(axis=-1), flat.max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(hi - lo).all():
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
    sum may overflow to inf, which _shifted rejects.
    """
    if n % 2:
        return upper
    with np.errstate(over="ignore"):
        return (lower + upper) / 2.0


def _middle(flat):
    """(lower, upper), the two middle values along the last axis (the same
    value for an odd length), reordering the elements in place.

    One partition at n // 2 puts the upper middle value there and only
    smaller-or-equal values before it; for even n the lower middle value is
    the maximum of that lower half.  Every element is <= lower or >= upper.
    flat may be any view that orders as the values do: _field_stats passes
    the int32 bit patterns of a non-negative float32 key.
    """
    n = flat.shape[-1]
    half = n // 2
    flat.partition(half, axis=-1)
    upper = flat.take(half, axis=-1)
    return (flat[..., :half].max(axis=-1) if n % 2 == 0 else upper), upper


def _shifted(lo, hi, lower, upper, n):
    """(median, lower, upper, max) of maps of n values shifted to their
    minimum, given each map's min lo, max hi and middle values lower and
    upper: the shift is monotone, so it maps order statistics to order
    statistics.  A median that overflows float64 is rejected.
    """
    lower, upper = lower - lo, upper - lo
    median = _median(lower, upper, n)
    if not np.isfinite(median).all():  # the middle values' sum overflows
        raise ValueError(_NON_FINITE)
    return median, lower, upper, hi - lo


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
    shifted map's ends, 0 and extent; |0 - median| is |median| exactly.
    """
    dev = abs(np.array([lower, upper, extent]) - median)
    return _squash(np.array([np.minimum(dev[0], dev[1]), np.maximum(abs(median), dev[2])]))


def _keys_kernel(x, a=-0.5):
    """Classical cubic convolution kernel with free parameter a."""
    ax = np.abs(x)
    inner = ((a + 2.0) * ax - (a + 3.0)) * ax * ax + 1.0
    outer = a * (((ax - 5.0) * ax + 8.0) * ax - 4.0)
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


@functools.lru_cache(maxsize=32)
def _taps(n_src, n_dst):
    """(index, weights): the bicubic resize of one axis from n_src to n_dst
    samples, clamp-to-edge.  Output sample i sums the source samples
    index[4 i:4 i + 4] with weights[i], a row of an (n_dst, 4) array; a tap
    clamped to an edge stays a term of its own.  index is None when it is
    arange(n_src).  Cached, so the arrays are read-only.

    Output sample i reads source coordinate (i + 0.5) * scale - 0.5, the
    center-aligned convention, which degenerates to the identity when
    n_src == n_dst.
    """
    scale = n_src / n_dst
    x = (np.arange(n_dst) + 0.5) * scale - 0.5
    base = np.floor(x).astype(int)
    offsets = np.arange(-1, 3)
    weights = _keys_kernel((x - base)[:, None] - offsets[None, :])
    index = np.clip(base[:, None] + offsets[None, :], 0, n_src - 1).ravel()
    weights.setflags(write=False)
    index.setflags(write=False)
    return (None if np.array_equal(index, np.arange(n_src)) else index), weights


def _gather(stack, grid_rows, grid_cols):
    """(taps, row weights, column weights) to resize an (n, rows, cols, ...)
    stack to the grid, taps being the pixels the _taps indices read.  Only
    here is an axis chosen for resampling: one already of the grid's size
    is kept whole, with None for weights (its taps would weigh (0, 1, 0, 0)).
    take is faster than a fancy index, and so are the passes over its result."""
    weights = []
    for axis, n_dst in ((1, grid_rows), (2, grid_cols)):
        index, w = (None, None) if stack.shape[axis] == n_dst else _taps(stack.shape[axis], n_dst)
        if index is not None:
            stack = stack.take(index, axis=axis)
        weights.append(w)
    return stack, *weights


def _four_tap_sum(products):
    """((p0 + p1) + p2) + p3 with p_k = products[..., k], one output's weighted taps."""
    return ((products[..., 0] + products[..., 1]) + products[..., 2]) + products[..., 3]


def _resize_taps(taps, w_r, w_c):
    """Resize _gather's taps, rows then columns, each output ((w0 x0 + w1 x1)
    + w2 x2) + w3 x3 of its taps x_k by numpy's correctly rounded elementwise
    multiply and add: the same bits on every IEEE-754 machine.  An axis
    whose weights are None is skipped."""
    n, _, tap_cols = taps.shape
    if w_r is not None:
        taps = _four_tap_sum((taps.reshape(n, -1, 4, tap_cols) * w_r[:, :, None]).swapaxes(2, 3))
    if w_c is not None:
        taps = _four_tap_sum(taps.reshape(n, taps.shape[1], -1, 4) * w_c)
    return taps


def _thresholds(flat, num_boxes, c_th):
    """c_th / (1 + exp(2 f)) in place, then num_boxes copies along the last axis."""
    flat *= 2.0
    np.exp(flat, out=flat)
    flat += 1.0
    np.divide(c_th, flat, out=flat)
    return np.concatenate((flat,) * num_boxes, axis=-1)


# -- flow fields: order statistics of hypot(u, v) without the whole map -----

# Each bracket around a key value c runs from _key_floor(c) to
# _key_ceiling(c): c widened by a relative 2^-16 plus an absolute 2^-120.
# All float32, so every compare against the key stays a float32 pass.
_SHRINK = np.float32(1.0 - 2.0 ** -16)
_GROW = np.float32(1.0 + 2.0 ** -16)
_ABS = np.float32(2.0 ** -120)
_KEY_MAX = np.finfo(np.float32).max


def _hypot(uv):
    """hypot(u, v) in float64 of an (..., 2) array of (u, v) pairs."""
    return np.hypot(uv[..., 0], uv[..., 1], dtype=np.float64)


def _key_floor(c):
    """The lower end of the bracket around float32 key value c, clamped to
    finite values so that it stays below an infinite c."""
    return min(c, _KEY_MAX) * _SHRINK - _ABS


def _key_ceiling(c):
    """The upper end of the bracket around float32 key value c: inf when c
    is within 2^-16 of the float32 maximum or past it."""
    with np.errstate(over="ignore"):
        return c * _GROW + _ABS


def _field_key(field):
    """(pairs, key) of an (h, w, 2) float32 field: its (n, 2) row-major
    pixels, copied if strided so that each is one complex64, and their keys
    |u + iv| in float32 by numpy's complex abs (one pass, no temporary)."""
    pairs = np.ascontiguousarray(field).reshape(-1, 2)
    return pairs, np.abs(pairs.view(np.complex64)).ravel()


def _bracketed(values, inside, below, ranks):
    """The values at these ranks (0-based, ascending) of a field's hypot
    map, given some pixels' hypot values, the mask of those inside a key
    bracket that holds the ranks, and the count of pixels below it."""
    values = values[inside]
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
    computed from the float32 key |u + iv| without building the map.

    Let t be the exact sqrt(u^2 + v^2) of a pixel.  The key is t (1 + e) +
    d, |e| a few float32 ulps (below 2.6 * 2^-24 on numpy's AVX-512, AVX2
    and baseline loops) and |d| below 2^-148 for subnormal results; or it is
    inf, which needs t within that relative error of the float32 maximum or
    above it.  np.hypot is assumed within 1 ulp (2^-52) of t in float64.  So
    two pixels whose keys differ by more than a relative 2^-16 plus an
    absolute 2^-120 are ordered the same way by their t and by hypot: 2^-16
    leaves a margin of more than 40 over the key's relative error and 2^-120
    a vast one over its absolute error.

    Let c be the rank-r key.  Its bracket runs from _key_floor(c), about
    c (1 - 2^-16) - 2^-120, to _key_ceiling(c), about c (1 + 2^-16) +
    2^-120.  A pixel keyed below the floor has a smaller hypot than each of
    the n - r pixels keyed >= c, one of which has a hypot at most the map's
    rank-r value; so it ranks below that value, and likewise a pixel keyed
    above the ceiling ranks above it.  The floor clamps c to the float32
    maximum before it shrinks it: when c is inf, finite keys near the
    maximum stay in the bracket with the overflowed ones, and hypot in
    float64 orders them.  The map's rank-r value is then the rank
    (r - count below) hypot of the pixels in between, and one bracket serves
    adjacent ranks.  A key is 0 exactly where u = v = 0 (hypot +0.0), so a
    statistic keyed 0 is 0.0, with no bracket, which would hold every zero.

    The bracket ends are float32 scalars.  A float64 end would promote each
    compare to a float64 pass over the key; a Python float would be rounded
    to float32 under NEP 50, within the margin.  The ends' own float32
    rounding (a relative 2^-24, an absolute 2^-150) is within it too.

    The key's order statistics come from one partition of its copy through
    its int32 view, which numpy partitions several times faster than
    float32, in the same order: a key that is not NaN is +0.0 (also for
    signed zeros), positive or +inf, and the bit patterns of non-negative
    IEEE values order as integers do.  The min key lies at or before the
    partition point and the max key at or after it, as does a NaN key (its
    bits exceed +inf's or, sign set, are negative).  The field is rejected
    exactly when its hypot map is non-finite: a NaN in u or v makes a NaN
    key unless the other part is infinite, and an inf makes an infinite key,
    the maximum, whose hypot is inf; a finite pixel's overflowed key is not.
    The brackets share one mask, index and hypot call, split by their keys.
    """
    pairs, key = _field_key(field)
    half = key.size // 2
    part = key.copy()
    lower, upper = (bits.view(np.float32) for bits in _middle(part.view(np.int32)))
    key_min, key_max = part[:half + 1].min(), part[half:].max()
    if math.isnan(key_min) or math.isnan(key_max):
        raise ValueError(_NON_FINITE)
    if key_max == 0:  # u = v = 0 everywhere
        return 0.0, 0.0, 0.0, 0.0
    top, bottom = _key_floor(key_max), _key_ceiling(key_min)
    floor, ceiling = _key_floor(lower if lower > 0 else upper), _key_ceiling(upper)
    near = key >= top
    if key_min > 0:
        near |= key <= bottom
    if upper > 0:
        near |= (key >= floor) & (key <= ceiling)
    index = np.flatnonzero(near)  # faster than a boolean index
    near_key, values = key[index], _hypot(pairs[index])
    hi = values[near_key >= top].max()
    if not math.isfinite(hi):
        raise ValueError(_NON_FINITE)
    lo = values[near_key <= bottom].min() if key_min > 0 else 0.0
    if upper == 0:
        return lo, hi, 0.0, 0.0
    ranks = [half] if key.size % 2 or lower == 0 else [half - 1, half]
    # every key below the floor precedes the partition point
    below = np.count_nonzero(part[:half] < floor)
    middle = _bracketed(values, (near_key >= floor) & (near_key <= ceiling), below, ranks)
    return lo, hi, 0.0 if lower == 0 else middle[0], middle[-1]


# -- public stages ----------------------------------------------------------

def shift_min(values):
    """Shift the map so its minimum value is exactly zero.

    A map whose range overflows float64 is rejected like a non-finite one.
    """
    arr = _as_matrix(values)
    return np.subtract(arr, _extent(arr.ravel())[0])


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
    """Separable bicubic resize (Keys kernel, a = -0.5, clamped borders) into
    a new array; each output is a fixed-order sum of 4 taps per axis (see
    _resize_taps), and an axis already of the target's size is copied."""
    arr = _as_flow_map(values)
    _check_target(target_rows, target_cols)
    return _resize_taps(*_gather(arr[None], target_rows, target_cols))[0].copy()


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

    values is a 2-D map, an (h, w, 2) float32 field, or a list of 2-D maps
    of one shape, which gives one row per map; a map or a field is a list
    of one and gives its row.  A list is stacked: n maps of h x w take
    8 n h w bytes, plus a copy for the partition and one of the taps.

    The maps (see check_flow_map; one bad map rejects the list) and the
    parameters are validated once, up front.  A map is read whole only for
    its min, max and two middle values: one min and one max pass and one
    partition of a copy, each over all maps at once.  The shift is
    monotone, so it maps them to the shifted map's as scalars.  Shift,
    deviation and squash then run on the taps the resize reads.  An axis of
    the grid's size is read once and not resampled; any other axis gathers
    4 taps per grid row or column, unless it reads each pixel once, in
    order.  Each output sums its own taps in a fixed order: no row depends
    on the others, nor a resized bit on the CPU (exp's differ by SIMD loop).

    A resampled axis can overshoot, so its result is clipped to the squashed
    map's [min, max], whose bounds need no pass of their own: |s - median|
    rounds monotonically in s on either side of the median and squash is
    monotone, so the minimum sits at the middle values, between which no
    element lies, and the maximum at the shifted map's ends.  Squashed
    deviations lie in [0.5, 1], so every threshold lies in [c_th/(1+e^2),
    c_th/(1+e)] up to rounding: positive, and below c_th.

    A field stands for the map flow_magnitude(values), which is never
    built: its order statistics come from the float32 key |u + iv| and
    hypot on the few pixels near each (see _field_stats).  hypot then runs
    once more, on the tapped pixels, before the maps' path.

    A map whose median overflows float64, such as [[0, 1.7e308, 1.7e308,
    1.7e308]], is rejected as non-finite, as the stages reject it.  Each row
    equals the composition of the public stages on its map bit for bit (on
    flow_magnitude(values) for a field), and the input is never modified.
    """
    batch = isinstance(values, list) and len(values) > 0 and np.ndim(values[0]) == 2
    if batch and len({np.shape(v) for v in values}) > 1:
        raise ValueError("flow maps in one list must share one shape")
    stack = np.asarray(values, dtype=np.float64) if batch else _as_input(values)[None]
    _as_input(stack[0])  # rejects a list of empty maps
    _check_target(grid_rows, grid_cols)
    _check_thresholds(num_boxes, c_th)
    n, rows, cols = stack.shape[:3]
    if stack.ndim == 4:
        lo, hi, lower, upper = np.reshape(_field_stats(stack[0]), (4, 1))
    else:
        flat = stack.flatten(order="K").reshape(n, -1)  # one map per row: a list stacks in C order
        lo, hi = _extent(flat)
        lower, upper = _middle(flat)
    median, lower, upper, extent = _shifted(lo, hi, lower, upper, rows * cols)
    stack, w_r, w_c = _gather(stack, grid_rows, grid_cols)
    tapped = np.subtract(stack if stack.ndim == 3 else _hypot(stack), lo[:, None, None])
    _squash(_abs_deviation(tapped, median[:, None, None]))
    tapped = _resize_taps(tapped, w_r, w_c)
    if w_r is not None or w_c is not None:  # only a resampled axis overshoots
        floor, ceiling = _squashed_range(median, lower, upper, extent)
        np.maximum(tapped, floor[:, None, None], out=tapped)
        np.minimum(tapped, ceiling[:, None, None], out=tapped)
    thresholds = _thresholds(tapped.reshape(n, -1), num_boxes, c_th)
    return thresholds if batch else thresholds[0]


def check_flow_map(values):
    """Validate a flow map by running process on it, and return it: a 2-D
    map as a float64 array, an (h, w, 2) float32 field as it is.  Lets a
    caller that may skip process on some frames, such as trace replay,
    reject up front an empty map, an array that is neither a 2-D map nor
    such a field, a non-finite value (in u or v for a field), and a finite
    map whose range max - min or shifted median overflows float64.
    """
    arr = _as_input(values)
    process(arr, 1, 1, 1, 1.0)
    return arr
