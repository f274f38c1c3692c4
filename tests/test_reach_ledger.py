"""The committed reach ledger names only functions that exist.

``tests/fixtures/unreached.txt`` lists the outermost ``src/repro``
functions no front door enters (``python -m tests.reach_ledger`` writes
it; CI regenerates it and compares). This test runs no front door: it
checks that every row is well formed and names a function the source
still defines, and that the rows are sorted and unique, so a rename or a
deletion that leaves the ledger stale fails here first.
"""

from pathlib import Path

from tests.reach_ledger import outermost_functions

LEDGER = Path(__file__).parent / "fixtures" / "unreached.txt"


def test_rows_are_sorted_and_unique():
    rows = LEDGER.read_text(encoding="utf-8").splitlines()
    assert rows, "empty ledger"
    assert rows == sorted(set(rows))


def test_every_row_names_an_existing_function():
    defined = {name for name, _lines in outermost_functions().values()}
    missing = []
    for row in LEDGER.read_text(encoding="utf-8").splitlines():
        name, _, lines = row.rpartition(" ")
        assert name and lines.isdigit() and int(lines) > 0, row
        if name not in defined:
            missing.append(name)
    assert not missing, f"ledger rows with no such function in src/: {missing}"
