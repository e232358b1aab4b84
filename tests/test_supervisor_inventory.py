"""The inventory of abstract-supervisor sites: §8's availability cell only.

:class:`~repro.detection.abstract.AbstractSupervisor` stands in for FD+REC
where a month of pings would dominate run time.  It cannot see hangs,
zombies, network faults or its own death, so its results mean something
only where nothing of that kind happens: the steady-state availability
cell.  Under ``src/repro`` the station is the one place that builds it,
and the availability cell is the one caller that asks for it by name.
A chaos, workload, recovery or fleet path that asks for it too fails
here, rather than silently skipping the faults it cannot host.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _abstract_sites(source: str):
    """``(kind, line)`` of every ``AbstractSupervisor(...)`` construction
    and every literal ``supervisor="abstract"`` (keyword or dict entry)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "AbstractSupervisor":
                yield "constructs", node.lineno
            for keyword in node.keywords:
                if keyword.arg == "supervisor" and _is_literal(keyword.value, "abstract"):
                    yield "asks", keyword.value.lineno
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if _is_literal(key, "supervisor") and _is_literal(value, "abstract"):
                    yield "asks", value.lineno


def _is_literal(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def _inventory(kind):
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for site, _ in _abstract_sites(path.read_text(encoding="utf-8"))
        if site == kind
    )


def test_the_scan_sees_every_form():
    source = (
        "AbstractSupervisor(kernel)\n"
        "detection.AbstractSupervisor(kernel)\n"
        "MercuryStation(supervisor='abstract')\n"
        "shape = dict(supervisor='abstract')\n"
        "shape = {'supervisor': 'abstract'}\n"
        "MercuryStation(supervisor='full')\n"
        "if supervisor == 'abstract': pass\n"
    )
    assert list(_abstract_sites(source)) == [
        ("constructs", 1), ("constructs", 2), ("asks", 3), ("asks", 4), ("asks", 5),
    ]


def test_only_the_station_constructs_the_abstract_supervisor():
    assert _inventory("constructs") == ["mercury/station.py"]


def test_only_the_availability_cell_asks_for_the_abstract_supervisor():
    assert _inventory("asks") == ["experiments/availability.py"]
