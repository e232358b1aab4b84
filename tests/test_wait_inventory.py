"""The inventory of step-and-poll loops under ``src/repro``: none.

``Kernel.step()`` is the single-step/debug API and the engine of the
``max_events`` run.  A wait written as ``while not done(): kernel.step()``
pays the slow dispatch path plus one predicate read per event; the next
wait is a ``Kernel.run_until`` call with a wake site at each transition it
reads (DESIGN.md §10 has the table), on purpose rather than by copying a
loop.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_STEP_CALL = re.compile(r"\.step\(\)")


def test_no_step_call_outside_the_kernel():
    callers = sorted(
        f"{path.relative_to(SRC)}:{number}"
        for path in SRC.rglob("*.py")
        if path != SRC / "sim" / "kernel.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _STEP_CALL.search(line)
    )
    assert callers == []

