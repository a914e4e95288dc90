"""The option table of ``docs/performance.md`` against the front doors.

The section "Every exploration option, and why it stays" names the
exploration front doors and gives every parameter of theirs a row, by
plain name in the first column.  A parameter without a row, or a row
naming a parameter that no front door has, fails here.
"""

import inspect
import pathlib
import re

from repro import proofs, runtime
from repro.runtime import explore_engine

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "performance.md"

#: The scope itself, not an option.
SCOPE_INPUTS = {"entry", "programs", "store", "scopes", "visit",
                "make_system", "kind"}


def _section() -> str:
    text = DOC.read_text(encoding="utf-8")
    start = text.index("## Every exploration option, and why it stays")
    return text[start:text.index("\n## ", start)]


def _front_doors(section: str) -> dict:
    listed = re.search(r"The front doors are (.*?)\.\s", section, re.S)
    doors = {}
    for name in re.findall(r"`(\w+)`", listed.group(1)):
        module = next(
            (m for m in (proofs, runtime, explore_engine) if hasattr(m, name)),
            None,
        )
        assert module is not None, f"{name} is no front door"
        doors[name] = getattr(module, name)
    return doors


def _rows(section: str) -> set:
    return {
        name
        for line in section.splitlines() if line.startswith("| `")
        for name in re.findall(r"`(\w+)`", line.split("|")[1])
    }


def test_option_table_matches_front_door_signatures():
    section = _section()
    doors = _front_doors(section)
    assert "exhaustive_verify" in doors and "build_engine" in doors
    parameters = {
        name
        for door in doors.values()
        for name in inspect.signature(door).parameters
    } - SCOPE_INPUTS
    rows = _rows(section)
    assert sorted(parameters - rows) == [], "parameters without a row"
    assert sorted(rows - parameters) == [], "rows for no parameter"
