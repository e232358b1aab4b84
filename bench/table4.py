"""The paper's Table 4 and the shape criteria that make a run of it correct.

The reference values are a copy of ``benchmarks/conftest.py``'s
``PAPER_TABLE4`` and the criteria a copy of the assertions in
``benchmarks/test_table4_mttr_matrix.py``; the benchmark owns its copy so it
runs from ``bench/`` plus ``src/`` alone.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

COLUMNS: Tuple[str, ...] = ("mbus", "ses", "str", "rtu", "fedr", "pbcom", "fedrcom")

#: (tree, oracle) rows, in the paper's order.
ROWS: Tuple[Tuple[str, str], ...] = (
    ("I", "perfect"),
    ("II", "perfect"),
    ("III", "perfect"),
    ("IV", "perfect"),
    ("IV", "faulty"),
    ("V", "faulty"),
)

#: Seconds, keyed by (tree, oracle) then component.
PAPER_TABLE4: Dict[Tuple[str, str], Dict[str, float]] = {
    ("I", "perfect"): {
        "mbus": 24.75, "ses": 24.75, "str": 24.75, "rtu": 24.75, "fedrcom": 24.75,
    },
    ("II", "perfect"): {
        "mbus": 5.73, "ses": 9.50, "str": 9.76, "rtu": 5.59, "fedrcom": 20.93,
    },
    ("III", "perfect"): {
        "mbus": 5.73, "ses": 9.50, "str": 9.76, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 21.24,
    },
    ("IV", "perfect"): {
        "mbus": 5.73, "ses": 6.25, "str": 6.11, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 21.24,
    },
    ("IV", "faulty"): {
        "mbus": 5.73, "ses": 6.25, "str": 6.11, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 29.19,
    },
    ("V", "faulty"): {
        "mbus": 5.73, "ses": 6.25, "str": 6.11, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 21.63,
    },
}

#: Worst relative error against the paper that still counts as agreement.
MAX_REL_ERR = 0.20

Key = Tuple[str, str, str]


def cure_set_for(oracle: str, component: str) -> Optional[Tuple[str, ...]]:
    """§4.4: under the faulty oracle a pbcom failure needs the joint restart."""
    if oracle == "faulty" and component == "pbcom":
        return ("fedr", "pbcom")
    return None


def worst_relative_error(measured: Mapping[Key, float]) -> float:
    """Largest |measured - paper| / paper over every cell the paper reports."""
    worst = 0.0
    for (label, oracle), row in PAPER_TABLE4.items():
        for component, expected in row.items():
            got = measured[(label, oracle, component)]
            worst = max(worst, abs(got - expected) / expected)
    return worst


def shape_checks(measured: Mapping[Key, float]) -> List[Tuple[str, bool]]:
    """The paper's argument as five named pass/fail criteria."""
    m = measured
    tree_one = m[("I", "perfect", "mbus")]
    return [
        (
            "table4.consolidation_improves_ses_str",
            m[("IV", "perfect", "ses")] < m[("III", "perfect", "ses")]
            and m[("IV", "perfect", "str")] < m[("III", "perfect", "str")],
        ),
        (
            "table4.promotion_beats_iv_under_faulty_oracle",
            m[("V", "faulty", "pbcom")] < m[("IV", "faulty", "pbcom")] - 3.0,
        ),
        (
            "table4.split_fedrcom_made_common_failure_cheap",
            m[("III", "perfect", "fedr")] < m[("II", "perfect", "fedrcom")] / 3,
        ),
        (
            "table4.tree_one_dominates",
            all(v <= tree_one + 26.0 for k, v in m.items() if k[0] != "I"),
        ),
        (
            "table4.agrees_with_paper",
            worst_relative_error(m) < MAX_REL_ERR,
        ),
    ]
