"""Table 4 — the full MTTR matrix: trees I–V × failed component × oracle.

Rows I–IV(perfect) use plain crashes; the faulty-oracle rows follow §4.4's
setup: pbcom failures there are curable *only* by a joint [fedr, pbcom]
restart, and the oracle guesses too low 30 % of the time.
"""

from conftest import print_banner

from repro.experiments.runner import (
    PAPER_TABLE4,
    TABLE4_COLUMNS,
    TABLE4_ROWS,
    run_recovery_matrix,
    table4_cure_set,
)
from repro.experiments.report import format_table, relative_errors


def test_table4(trials):
    matrix = run_recovery_matrix(
        TABLE4_ROWS,
        TABLE4_COLUMNS,
        trials=trials,
        seed=1000,
        cure_set_for=table4_cure_set,
    )
    measured = {key: result.mean for key, result in matrix.items()}

    table_rows = []
    for label, oracle in TABLE4_ROWS:
        paper = PAPER_TABLE4[(label, oracle)]
        table_rows.append(
            [f"{label}/{oracle} (paper)"] + [paper.get(c) for c in TABLE4_COLUMNS]
        )
        table_rows.append(
            [f"{label}/{oracle} (measured)"]
            + [measured.get((label, oracle, c)) for c in TABLE4_COLUMNS]
        )

    print_banner(f"Table 4: overall MTTRs (s), {trials} trials/cell (paper: 100)")
    print(format_table(["tree/oracle"] + TABLE4_COLUMNS, table_rows))

    # Shape criteria (the paper's argument, not the absolute numbers):
    # 1. Consolidation (III -> IV) improves ses and str.
    assert measured[("IV", "perfect", "ses")] < measured[("III", "perfect", "ses")]
    assert measured[("IV", "perfect", "str")] < measured[("III", "perfect", "str")]
    # 2. Node promotion (IV -> V) beats IV under the faulty oracle on pbcom.
    assert measured[("V", "faulty", "pbcom")] < measured[("IV", "faulty", "pbcom")] - 3.0
    # 3. Splitting fedrcom made the common failure cheap.
    assert measured[("III", "perfect", "fedr")] < measured[("II", "perfect", "fedrcom")] / 3
    # 4. Tree I dominates every other row.
    for (label, oracle, component), value in measured.items():
        if label != "I":
            assert value <= measured[("I", "perfect", "mbus")] + 26.0
    # 5. Quantitative agreement with the paper where reported.
    worst = 0.0
    for (label, oracle), paper in PAPER_TABLE4.items():
        got = {
            c: measured.get((label, oracle, c))
            for c in paper
            if measured.get((label, oracle, c)) is not None
        }
        errors = relative_errors(paper, got)
        worst = max(worst, max(errors.values()))
    print(f"worst relative error vs paper across all cells: {worst:.3f}")
    assert worst < 0.20  # dominated by the IV/faulty pbcom sampling noise
