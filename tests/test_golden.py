"""Golden outputs: `compare` on a benchmark_config-like scene, and
`process-flow` on generated flow files, must keep writing the same bytes.

tests/golden/compare.json pins, per seed, the SHA-256 of the dpp, comp1 and
comp2 rows (with the header) of timeseries.csv and summary.csv, plus an
8-hex-digit digest per row that locates the first differing row on a
mismatch.  comp3's rows are not pinned: its training runs through BLAS
matmul, whose bits may depend on the CPU's kernel.  The pinned rows depend
on no BLAS call and, while every drawn confidence clears every flow-lowered
threshold, on no threshold bit either.

tests/golden/process_flow.json pins, per case, the same record of the
thresholds `process-flow` writes: .flo fields in the four KITTI-2015 shapes
and an odd pixel count at an 8x8 grid, and CSV maps at a one-row grid, a
one-column grid and their own size.  The bicubic resize sums each output's
taps in a fixed order with numpy's elementwise multiply and add, which round
each operation correctly, and calls no BLAS routine; so the resize has the
same bits on every IEEE-754 machine, whatever its BLAS kernel.  float64 exp,
in the squash and the threshold map, does not: numpy's AVX-512 loop rounds
some results unlike its AVX2 and baseline loops, and under either of those
(NPY_DISABLE_CPU_FEATURES) 7 of the 8 process-flow cases differ.

A change that moves these outputs on purpose regenerates both files with
`PYTHONPATH=src python tests/golden/regen.py` and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import numpy as np

from flowdpp import cli, fileio

GOLDEN = Path(__file__).resolve().parent / "golden" / "compare.json"
FLOW_GOLDEN = GOLDEN.with_name("process_flow.json")
SEEDS = (0, 1, 2)
PINNED_POLICIES = ("dpp", "comp1", "comp2")
PINNED_FILES = {"timeseries.csv": 1, "summary.csv": 0}  # file -> policy column

# benchmark_config (CPU profile, tie_break T, coupled arrivals) at horizon
# 300, with paper_sweep's overflow cap and a token REINFORCE training
CONFIG = """\
[run]
reinforce_train_episodes = 1
reinforce_episode_len = 5

[scenario]
horizon = 300
latency_profile = cpu
couple_arrival = true
overflow_cap = 50

[controller]
tie_break = T
"""


def pinned_rows(seed, work_dir):
    """{file name: header plus the pinned policies' rows} from one compare."""
    work_dir = Path(work_dir)
    config = work_dir / "golden.ini"
    config.write_text(CONFIG)
    out = work_dir / f"compare-{seed}"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["compare", "--config", str(config), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    rows = {}
    for name, column in PINNED_FILES.items():
        header, *body = (out / name).read_text().splitlines()
        rows[name] = [header] + [r for r in body if r.split(",")[column] in PINNED_POLICIES]
    return rows


# case -> (generated input shape, grid); a shape of (h, w, 2) is a .flo field
FLOW_CASES = {
    "flo-375x1242": ((375, 1242, 2), (8, 8)),
    "flo-370x1224": ((370, 1224, 2), (8, 8)),
    "flo-374x1238": ((374, 1238, 2), (8, 8)),
    "flo-376x1241": ((376, 1241, 2), (8, 8)),
    "flo-375x1241": ((375, 1241, 2), (8, 8)),
    "csv-45x70-1x8": ((45, 70), (1, 8)),
    "csv-45x70-8x1": ((45, 70), (8, 1)),
    "csv-8x8-8x8": ((8, 8), (8, 8)),
}


def threshold_rows(case, work_dir):
    """The lines `process-flow` writes for one case's generated input: a
    normal field or map, seeded by its shape, with a moving block."""
    shape, (rows, cols) = FLOW_CASES[case]
    flow = np.random.default_rng(list(shape)).normal(size=shape)
    flow[shape[0] // 3:shape[0] // 2, shape[1] // 4:shape[1] // 3] += 6.0
    path = Path(work_dir) / f"{case}.{'flo' if len(shape) == 3 else 'csv'}"
    if len(shape) == 3:
        fileio.write_flo(path, flow.astype(np.float32))
    else:
        fileio.write_matrix_csv(path, flow)
    out = Path(work_dir) / f"{case}-thresholds.csv"
    argv = ["process-flow", str(path), "--grid", f"{rows}x{cols}", "--k", "2", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out.read_text().splitlines()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record(rows):
    """The golden entry of one file's pinned rows."""
    return {"sha256": _sha256("\n".join(rows)), "rows": "".join(_sha256(r)[:8] for r in rows)}


def first_difference(name, rows, golden):
    """A message naming the first row whose digest differs from the golden."""
    expected = [golden["rows"][i:i + 8] for i in range(0, len(golden["rows"]), 8)]
    for i, row in enumerate(rows):
        if i >= len(expected):
            return f"{name}: extra row {i}: {row}"
        if _sha256(row)[:8] != expected[i]:
            return f"{name}: row {i} differs from the golden output: {row}"
    return f"{name}: {len(rows)} rows, the golden output has {len(expected)}"


@pytest.mark.parametrize("seed", SEEDS)
def test_compare_rows_match_golden(seed, tmp_path):
    golden = json.loads(GOLDEN.read_text())[str(seed)]
    for name, rows in pinned_rows(seed, tmp_path).items():
        if record(rows)["sha256"] != golden[name]["sha256"]:
            pytest.fail(first_difference(name, rows, golden[name]))


def test_golden_pins_every_seed():
    assert set(json.loads(GOLDEN.read_text())) == {str(s) for s in SEEDS}


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_process_flow_matches_golden(case, tmp_path):
    golden = json.loads(FLOW_GOLDEN.read_text())[case]
    rows = threshold_rows(case, tmp_path)
    if record(rows)["sha256"] != golden["sha256"]:
        pytest.fail(first_difference(f"{case} thresholds", rows, golden))


def test_process_flow_golden_pins_every_case():
    assert set(json.loads(FLOW_GOLDEN.read_text())) == set(FLOW_CASES)
