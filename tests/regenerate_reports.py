"""Regenerate the reference reports under `tests/reference_reports/`.

Run from the root of the repository:

    PYTHONPATH=src python tests/regenerate_reports.py

Each case runs one CLI experiment with `--format both` into its own
directory, and `exit_codes.json` records the exit code of every case.
Regenerate only when a change means to alter a report, and list each
changed field in `CHANGES.md`: `test_reference_reports.py` holds the
program to these files.
"""

import json
import os
import sys
from pathlib import Path

from gradedmetrics.cli import EXPERIMENTS, main

REFERENCE_DIR = Path(__file__).resolve().parent / "reference_reports"

CASES = {f"default-{experiment}": [experiment] for experiment in EXPERIMENTS}
CASES.update(
    {
        f"metrics-compare-d{depth}-r{ratio}-s{seed}": [
            "metrics-compare", "--depth", str(depth), "--weights", f"geometric:{ratio}", "--seed", str(seed)
        ]
        for depth in (12, 64, 256)
        for ratio in ("0.5", "0.8")
        for seed in (0, 5)
    }
)
CASES.update(
    {
        f"ift-solve-d{depth}-s{seed}": ["ift-solve", "--depth", str(depth), "--seed", str(seed)]
        for depth in (16, 64, 256)
        for seed in (3, 9)
    }
)


def run_case(name, out_root):
    """Run the case `name` into out_root/name; returns the exit code."""
    return main([*CASES[name], "--out", str(Path(out_root) / name), "--format", "both"])


if __name__ == "__main__":
    os.chdir(REFERENCE_DIR.parent.parent)  # reports record `out` relative to the repository root
    codes = {name: run_case(name, "tests/reference_reports") for name in CASES}
    (REFERENCE_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
