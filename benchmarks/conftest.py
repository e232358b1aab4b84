"""Shared helpers for the paper-reproduction suite.

Every test regenerates one of the paper's tables or figures, prints it in
paper layout next to the paper's reported values
(:data:`repro.experiments.runner.PAPER_TABLE4`, the same table ``repro
table4`` prints), and asserts the *shape* criteria from DESIGN.md.

``--trials`` (default 40; the paper used 100) sets the trials per cell of
the tests that take the ``trials`` fixture::

    make paper                  # pytest benchmarks/ -s
    make paper TRIALS=100       # paper fidelity

Campaigns run serially and uncached: per-cell results are bit-identical
for any worker count, and the suite takes well under a minute.
"""

from __future__ import annotations

import pytest

from repro.cli import _count


def pytest_addoption(parser):
    parser.addoption(
        "--trials", type=_count, default=40,
        help="trials per (tree, component, oracle) cell (default 40; the paper used 100)",
    )


@pytest.fixture
def trials(request) -> int:
    """Trials per (tree, component, oracle) cell."""
    return request.config.getoption("--trials")


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
