"""rodd's source stays within its line budget, the library-size target of
ROADMAP item 5, counted as `wc -l src/rodd/*.py` counts: newline bytes."""

from pathlib import Path

import rodd

SRC = Path(rodd.__file__).resolve().parent
BUDGET = 2341


def test_source_is_within_its_line_budget():
    count = sum(path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py")))
    assert count <= BUDGET, (f"src/rodd/*.py is {count} lines, over the target of "
                             f"{BUDGET}: delete as much as you add")
