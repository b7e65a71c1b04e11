"""The CLI reports, held to the committed references in `tests/reference_reports/`.

This is a regression detector, not a statement of correctness: the
references record what the program reported when they were generated,
known-wrong numbers included.  A change that means to alter a report
regenerates the references it changes with `tests/regenerate_reports.py`.
"""

import json

import pytest
from regenerate_reports import CASES, REFERENCE_DIR, json_changes, normalized, run_case


@pytest.mark.parametrize("name", CASES)
def test_report_matches_reference(name, tmp_path):
    expected_code = json.loads((REFERENCE_DIR / "exit_codes.json").read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected_code
    got, want = tmp_path / name, REFERENCE_DIR / name
    assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        old, new = normalized(path), normalized(got / path.name)
        # the message, built only on failure, lists each changed JSON path
        assert new == old, path.name if path.suffix == ".csv" else "\n".join(
            [path.name, *json_changes(json.loads(old), json.loads(new))]
        )
