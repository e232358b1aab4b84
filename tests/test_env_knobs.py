"""No ``REPRO_*`` environment knob: the system runs one way.

A knob is a second way to run the system, invisible in every call site.
The last ones (the fleet layout, now ``repro fleet --shards``/``--jobs``
and ``run_suite(..., shards=, jobs=)`` arguments; event validation, now
``repro.obs.events.set_validation``) became arguments.  This test keeps
it so: the code reads no knob, the README documents none, and the
Makefile and CI set none.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where a knob could be read.  ``bench/`` is the frozen repo benchmark: it
#: scrubs every ``REPRO_*`` variable and reads none.
READERS = ("src", "tools", "benchmarks")

_LITERAL = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
_TABLE_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)
_ASSIGNED = re.compile(r"\b(REPRO_[A-Z_]+)=")


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
    assert documented == []
    assert knobs_read() == set()


def test_make_and_ci_set_only_knobs_the_code_reads():
    files = [ROOT / "Makefile", *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]
    assigned = {
        name for path in files for name in _ASSIGNED.findall(path.read_text(encoding="utf-8"))
    }
    assert assigned == set()
