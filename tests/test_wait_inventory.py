"""The inventory of step-and-poll loops: none under ``src/repro``, and
none under ``tests/`` that can spin.

``Kernel.step()`` is the single-step/debug API.  A wait written as
``while not done(): kernel.step()`` pays the slow dispatch path plus one
predicate read per event; the next wait is a ``Kernel.run_until`` call with
a wake site at each transition it reads (DESIGN.md §10 has the table), on
purpose rather than by copying a loop.

Tests still step on purpose, to stop between two events.  ``step()``
returns False once the queue is empty, and it never advances the clock
then, so a loop that discards that result waits forever on a condition
that can no longer come true — growing memory as it spins — instead of
failing.  Every ``while`` body under ``tests/`` that steps asserts the
step.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

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


def _discarded_steps(source: str):
    """Line numbers of ``….step()`` calls whose result a ``while`` body
    throws away (an expression statement of its own)."""
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, ast.While):
            continue
        for statement in loop.body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "step"
                ):
                    yield node.lineno


def test_the_scan_sees_a_discarded_step():
    assert list(_discarded_steps("while not done():\n    kernel.step()\n")) == [2]
    assert not list(_discarded_steps("while not done():\n    assert kernel.step()\n"))


def test_no_test_loop_discards_a_step():
    spinning = sorted(
        f"{path.relative_to(ROOT)}:{number}"
        for path in TESTS.rglob("*.py")
        for number in _discarded_steps(path.read_text(encoding="utf-8"))
    )
    assert spinning == []
