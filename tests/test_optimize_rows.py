import pytest

from optimize_rows import moved_rows
from test_swept_oracle import SPECS


def test_moved_rows_name_row_profile_and_objective():
    before = [f"row {k}" for k in range(3 * len(SPECS))]
    after = list(before)
    k = len(SPECS) + 2
    after[k] = "moved"
    assert moved_rows(before, after) == [(k, 1, SPECS[2].label, f"row {k}", "moved")]
    assert moved_rows(before, before) == []
    with pytest.raises(ValueError, match="30 and 29 rows"):
        moved_rows(before, after[:-1])
