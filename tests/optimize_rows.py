"""`OPTIMIZE_DIGEST`'s rows, one per line, and the rows that moved between two such dumps.

    PYTHONPATH=src python tests/optimize_rows.py > rows.txt
    PYTHONPATH=src python tests/optimize_rows.py before.txt after.txt

The first form writes `_optimize_outcomes()` exactly as
`test_optimize_outputs_are_pinned` hashes it, so the dump's sha256 is the
digest. Dump the rows before and after a change that moves the digest; the
second form then prints each moved row as its index, its profile's index,
its objective, and the row before and after, separated by tabs.
"""

from __future__ import annotations

import sys

from test_swept_oracle import SPECS, _optimize_outcomes


def moved_rows(before: list[str], after: list[str]) -> list[tuple[int, int, str, str, str]]:
    """(row, profile, objective label, before, after) for each row that differs."""
    if len(before) != len(after):
        raise ValueError(f"the dumps hold {len(before)} and {len(after)} rows")
    return [
        (k, k // len(SPECS), SPECS[k % len(SPECS)].label, b, a)
        for k, (b, a) in enumerate(zip(before, after))
        if b != a
    ]


def main(paths: list[str]) -> None:
    if not paths:
        for line in _optimize_outcomes():
            sys.stdout.write(line + "\n")
        return
    before, after = (open(path).read().splitlines() for path in paths)
    for row in moved_rows(before, after):
        print(*row, sep="\t")


if __name__ == "__main__":
    main(sys.argv[1:])
