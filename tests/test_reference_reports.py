"""The CLI reports, held to the committed references in `tests/reference_reports/`.

This is a regression detector, not a statement of correctness: the
references record what the program reported when they were generated,
known-wrong numbers included.  A change that means to alter a report
regenerates the references it changes with `tests/regenerate_reports.py`.
"""

import json

import pytest
from regenerate_reports import CASES, REFERENCE_DIR, run_case


def normalized(path):
    """File contents for comparison: CSV as bytes, JSON re-serialized without
    the run's `timestamp` and `out`."""
    if path.suffix == ".csv":
        return path.read_bytes()
    report = json.loads(path.read_text(encoding="utf-8"))
    report["header"]["timestamp"] = None
    report["header"]["config"]["out"] = None
    return json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", CASES)
def test_report_matches_reference(name, tmp_path):
    expected_code = json.loads((REFERENCE_DIR / "exit_codes.json").read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected_code
    got, want = tmp_path / name, REFERENCE_DIR / name
    assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert normalized(got / path.name) == normalized(path), path.name
