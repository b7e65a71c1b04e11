"""Regenerate the reference reports under `tests/reference_reports/`.

Run from the root of the repository:

    PYTHONPATH=src python tests/regenerate_reports.py

Each case runs one CLI experiment with `--format both` into its own
directory, and `exit_codes.json` records the exit code of every case.
Regenerate only when a change means to alter a report, and list each
changed field in `CHANGES.md`: `test_reference_reports.py` holds the
program to these files.  The script prints each changed exit code, each
new or changed CSV file and each changed JSON path with its old and new
value, the same list a failing reference test prints.  A file whose
content is unchanged apart from `timestamp` and `out` keeps its bytes.
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


def normalized(path):
    """File contents for comparison: CSV as bytes, JSON re-serialized without
    the run's `timestamp` and `out`."""
    if path.suffix == ".csv":
        return path.read_bytes()
    report = json.loads(path.read_text(encoding="utf-8"))
    report["header"]["timestamp"] = None
    report["header"]["config"]["out"] = None
    return json.dumps(report, sort_keys=True, indent=2)


def json_changes(old, new, path=""):
    """Lines "path: old -> new", one for each JSON path at which the parsed
    values `old` and `new` differ; a key only one side has reads as absent."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
        return [
            line
            for key in keys
            for line in json_changes(old.get(key, "<absent>"), new.get(key, "<absent>"), f"{path}/{key}")
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, pair in enumerate(zip(old, new)) for line in json_changes(*pair, f"{path}/{i}")]
    if json.dumps(old) == json.dumps(new):
        return []
    return [f"{path or '/'}: {json.dumps(old)} -> {json.dumps(new)}"]


if __name__ == "__main__":
    os.chdir(REFERENCE_DIR.parent.parent)  # reports record `out` relative to the repository root
    old_codes = json.loads((REFERENCE_DIR / "exit_codes.json").read_text(encoding="utf-8"))
    codes = {}
    for name in CASES:
        case_dir = REFERENCE_DIR / name
        before = {path.name: (path.read_bytes(), normalized(path)) for path in case_dir.glob("*")}
        codes[name] = run_case(name, "tests/reference_reports")
        if codes[name] != old_codes.get(name):
            print(f"{name}: exit code {old_codes.get(name)} -> {codes[name]}")
        for path in sorted(case_dir.iterdir()):
            (raw, old), new = before.get(path.name, (None, None)), normalized(path)
            if old is None:
                print(f"{name}/{path.name}: new file")
            elif old == new:
                path.write_bytes(raw)  # an unchanged report keeps its timestamp
            elif path.suffix == ".csv":
                print(f"{name}/{path.name}: rows changed")
            else:
                for line in json_changes(json.loads(old), json.loads(new)):
                    print(f"{name}/{path.name}{line}")
    (REFERENCE_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
