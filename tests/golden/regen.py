"""Rewrite tests/golden/compare.json and tests/golden/process_flow.json
from the current program.

Run from the repository root, after a change that moves compare's or
process-flow's outputs on purpose, and say in the change's notes why they
moved:

    PYTHONPATH=src python tests/golden/regen.py

The scene, the seeds, the flow cases and the pinned rows are defined in
tests/test_golden.py.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (  # noqa: E402
    FLOW_CASES, FLOW_GOLDEN, GOLDEN, SEEDS, pinned_rows, record, threshold_rows,
)


def write(path, golden):
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main():
    golden = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for seed in SEEDS:
            rows = pinned_rows(seed, work_dir)
            golden[str(seed)] = {name: record(file_rows) for name, file_rows in rows.items()}
        flow = {case: record(threshold_rows(case, work_dir)) for case in FLOW_CASES}
    write(GOLDEN, golden)
    write(FLOW_GOLDEN, flow)


if __name__ == "__main__":
    main()
