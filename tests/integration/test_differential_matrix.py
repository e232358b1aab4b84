"""Every reference against every chaos scenario, in one matrix.

``tests/differential.py`` declares each optimisation's reference, its
counters, the one quantity allowed to differ and the pairs it does not hold
on.  Here each reference runs on every entry of ``SCENARIOS`` (tree V, seed
7) that it does not exclude, through the one :func:`compare`.  The guards
below keep it the only harness.
"""

import pathlib
import re

import pytest

from repro.chaos.scenarios import SCENARIOS
from tests.differential import CHAOS, REFERENCES, compare

TESTS = pathlib.Path(__file__).resolve().parent.parent

PAIRS = [
    (name, scenario)
    for name, reference in REFERENCES.items()
    for scenario in SCENARIOS
    if scenario not in reference.exclusions
]


@pytest.mark.parametrize(("reference", "scenario"), PAIRS)
def test_reference_agrees_on_chaos_scenario(reference, scenario):
    compare(reference, CHAOS[scenario])


def test_every_reference_runs_on_a_chaos_scenario_and_says_why_not_on_the_rest():
    for name, reference in REFERENCES.items():
        assert set(reference.exclusions) <= set(SCENARIOS), name
        assert set(SCENARIOS) - set(reference.exclusions), name
        reasons = {**reference.exclusions, **reference.idle}.values()
        assert all(reason.strip() for reason in reasons), name


#: Replacing the class a campaign builds, to reach its kernel (only
#: ``recording`` does it), and a second harness's marks: a run-both-ways
#: helper, a recording subclass, a reference served by a fixture.
_SECOND_HARNESS = re.compile(
    r"setattr\([^,]+,\s*[\"'](?:MercuryStation|WorkloadPlane)[\"']"
    r"|[\"']repro\.[\w.]+\.(?:MercuryStation|WorkloadPlane)[\"']"
    r"|def _both\(|class Recorded\(|def (?!test_)\w+_reference\(\)"
)


def test_no_second_differential_harness():
    offenders = sorted(
        f"{path.relative_to(TESTS)}:{number}"
        for path in TESTS.rglob("*.py")
        if path != TESTS / "differential.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _SECOND_HARNESS.search(line)
    )
    assert offenders == []
