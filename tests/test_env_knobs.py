"""The inventory of ``REPRO_*`` environment knobs.

Every knob is a second way to run the system, so adding one is a deliberate
edit in two places: the code that reads it and the README table that says
who does.  This test holds the two together.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where a knob may be read.  ``bench/`` is the frozen repo benchmark: it
#: scrubs every ``REPRO_*`` variable and reads none.
READERS = ("src", "tools", "benchmarks")

_LITERAL = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
_TABLE_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)


def knobs_read():
    """``REPRO_*`` string literals in modules that touch ``os.environ``
    (prose mentions use backticks, not quotes)."""
    names = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            if "os.environ" in text:
                names.update(_LITERAL.findall(text))
    return names


def test_readme_table_lists_exactly_the_knobs_read():
    documented = _TABLE_ROW.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(documented) == len(set(documented))
    assert set(documented) == knobs_read()
