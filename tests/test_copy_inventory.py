"""The inventory of station copiers: one, the recorded plan of
:mod:`repro.experiments.snapshot`.

A shape's first restore walks its template with the fork
(:func:`repro.experiments.snapshot.fork`) and records the walk as a plan;
every later restore replays that plan.  ``copy.deepcopy`` rebuilds an
instance through ``y.__dict__.update(state)``, which on CPython 3.11+
leaves every copy with a materialized ``__dict__``, so every attribute read
on a restored station took the slow path (DESIGN.md §10, "Warmed-station
snapshot/fork").  The fork and its plan copy the same graph and keep a
fresh boot's layout.  No module under ``src/repro`` calls
``copy.deepcopy``, under any import spelling, so a second copier cannot
come back by accident.  ``__deepcopy__`` hooks stay: the fork honours
them.  Tests may still call ``deepcopy`` as a reference.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _deepcopy_calls(tree):
    """Line numbers where ``tree`` names ``copy.deepcopy``."""
    modules = set()  # names bound to the copy module
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "copy")
        elif isinstance(node, ast.ImportFrom) and node.module == "copy":
            lines += [node.lineno for a in node.names if a.name in ("deepcopy", "*")]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "deepcopy"
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_under_src_calls_deepcopy():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _deepcopy_calls(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[str(path.relative_to(SRC))] = lines
    assert found == {}


def test_the_scan_sees_every_spelling():
    for source in (
        "import copy\ncopy.deepcopy(x)",
        "import copy as c\nc.deepcopy(x)",
        "from copy import deepcopy",
        "from copy import deepcopy as clone",
        "from copy import *",
    ):
        assert _deepcopy_calls(ast.parse(source)), source
    assert not _deepcopy_calls(ast.parse("from copy import Error\nx.deepcopy"))
