"""File formats: Middlebury .flo flow fields, plain matrix CSVs, confidence
grid CSVs, and simulation trace CSVs."""

import csv
import os
import stat
from pathlib import Path

import numpy as np

from .detection import ConfidenceGrid
from .flowmap import check_flow_map, flow_magnitude

__all__ = [
    "FLO_MAGIC",
    "read_flo",
    "write_flo",
    "flow_magnitude",
    "read_matrix_csv",
    "write_matrix_csv",
    "load_flow_map",
    "save_grid_csv",
    "load_grid_csv",
    "load_trace",
]

FLO_MAGIC = np.float32(202021.25)


def read_flo(path):
    """Read a .flo file into a writable (h, w, 2) float32 array of (u, v)
    vectors; the payload is read straight into it, with no second copy."""
    with open(path, "rb") as f:
        # each read's length is checked before frombuffer sees it, which
        # rejects a partial element without naming the file
        magic = f.read(4)
        if len(magic) != 4 or np.frombuffer(magic, dtype="<f4")[0] != FLO_MAGIC:
            raise ValueError(f"{path}: not a .flo file (bad magic)")
        dims = f.read(8)
        if len(dims) != 8:
            raise ValueError(f"{path}: truncated or invalid .flo header")
        w, h = np.frombuffer(dims, dtype="<i4").tolist()
        if w < 1 or h < 1:
            raise ValueError(f"{path}: truncated or invalid .flo header")
        # a regular file's size is checked first, so a corrupt header cannot
        # ask for a huge array; a pipe has no size, only the count check
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - f.tell() < 8 * w * h:
            raise ValueError(f"{path}: truncated .flo payload")
        data = np.empty((h, w, 2), dtype="<f4")
        if f.readinto(data) != data.nbytes:
            raise ValueError(f"{path}: truncated .flo payload")
        return data.astype(np.float32, copy=False)


def write_flo(path, flow):
    """Write an (h, w, 2) array as a .flo file (little-endian)."""
    flow = np.asarray(flow, dtype="<f4")
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError(f"flow must have shape (h, w, 2), got {flow.shape}")
    h, w = flow.shape[:2]
    with open(path, "wb") as f:
        f.write(FLO_MAGIC.tobytes())
        f.write(np.array([w, h], dtype="<i4").tobytes())
        f.write(np.ascontiguousarray(flow).tobytes())


def _utf8_lines(path):
    """The lines of a text file read as UTF-8, whatever the locale."""
    with open(path, newline="", encoding="utf-8") as f:
        try:
            yield from f
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def read_matrix_csv(path):
    try:  # by path, so that loadtxt still reads .gz and .bz2 files
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except ValueError as exc:  # a cell that is not a number, or a ragged row
        raise ValueError(f"{path}: {exc}") from exc
    if arr.size == 0:
        raise ValueError(f"{path}: empty matrix")
    return arr


def write_matrix_csv(path, arr):
    np.savetxt(path, np.asarray(arr), delimiter=",", fmt="%.17g")


def load_flow_map(path):
    """Load a flow map: the (h, w, 2) float32 field of a .flo file (the
    suffix in any case), which flowmap.process takes as its magnitude map
    flow_magnitude(field), or the 2-D matrix of a CSV file."""
    if str(path).lower().endswith(".flo"):
        return read_flo(path)
    return read_matrix_csv(path)


def _csv_rows(path, header):
    """Rows of a UTF-8 CSV file as (line number, dict) pairs; its header and
    each row's width must match header."""
    reader = csv.DictReader(_utf8_lines(path))
    if reader.fieldnames != header:
        raise ValueError(f"{path}: expected header {header}, got {reader.fieldnames}")
    for row in reader:
        # a short row gets None values, a long row a None key
        if None in row or None in row.values():
            raise ValueError(f"{path}: line {reader.line_num}: expected {len(header)} columns")
        yield reader.line_num, row


def _count(path, line, row, key):
    """row[key] as an integer >= 0 (every integer field here is an index or
    a count); errors name the file and line."""
    try:
        value = int(row[key])
    except ValueError:
        raise ValueError(f"{path}: line {line}: {key} must be an integer, got {row[key]!r}") from None
    if value < 0:
        raise ValueError(f"{path}: line {line}: {key} must be >= 0")
    return value


def _number(path, line, row, key):
    """row[key] as a float; errors name the file and line."""
    try:
        return float(row[key])
    except ValueError:
        raise ValueError(f"{path}: line {line}: {key} must be a number, got {row[key]!r}") from None


GRID_HEADER = ["i", "j", "k", "conf", "cx", "cy", "w", "h"]


def save_grid_csv(path, grid):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(GRID_HEADER)
        rows, cols, k = grid.shape
        for i in range(rows):
            for j in range(cols):
                for b in range(k):
                    writer.writerow(
                        [i, j, b, f"{grid.conf[i, j, b]:.17g}"]
                        + [f"{v:.17g}" for v in grid.boxes[i, j, b]]
                    )


def load_grid_csv(path):
    """Load a confidence grid; each (i, j, k) cell entry must appear once."""
    entries = {}
    for line, row in _csv_rows(path, GRID_HEADER):
        key = tuple(_count(path, line, row, name) for name in ("i", "j", "k"))
        if key in entries:
            raise ValueError(f"{path}: line {line}: duplicate entry i, j, k = {key}")
        entries[key] = (
            _number(path, line, row, "conf"),
            tuple(_number(path, line, row, name) for name in ("cx", "cy", "w", "h")),
        )
    if not entries:
        raise ValueError(f"{path}: no grid entries")
    shape = tuple(max(key[axis] for key in entries) + 1 for axis in range(3))
    conf = np.zeros(shape)
    boxes = np.zeros(shape + (4,))
    for key, (c, box) in entries.items():
        conf[key] = c
        boxes[key] = box
    return ConfidenceGrid(conf, boxes)


TRACE_HEADER = ["t", "regime", "num_objects", "flow_file", "conf_file"]


def load_trace(path):
    """Load a replay trace: per-step regime label, object count, and paths to
    a flow map and a confidence grid (relative to the trace file).

    Returns FrameObservations with empty ground truth (external traces carry
    detections, not labels), whose tpr and recall the simulator reports as
    NaN.  Each flow map is checked as it loads, because the simulator skips
    the flow map of a frame with an empty grid.
    """
    from .sim import FrameObservation  # deferred: sim imports this module's peers

    base = Path(os.path.dirname(os.path.abspath(path)))
    frames = []
    for line, row in _csv_rows(path, TRACE_HEADER):
        t = _count(path, line, row, "t")
        num_objects = _count(path, line, row, "num_objects")
        flow_path = base / row["flow_file"]
        flow = load_flow_map(flow_path)  # whose errors name the file
        try:
            flow = check_flow_map(flow)
        except ValueError as exc:
            raise ValueError(f"{flow_path}: {exc}") from exc
        grid = load_grid_csv(base / row["conf_file"])
        frames.append(FrameObservation(t=t, regime=row["regime"], truth_boxes=[], flow=flow,
                                       grid=grid, declared_objects=num_objects))
    if not frames:
        raise ValueError(f"{path}: no trace rows")
    return frames
