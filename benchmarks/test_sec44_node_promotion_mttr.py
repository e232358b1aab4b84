"""§4.4 — the faulty-oracle experiment behind node promotion.

The paper's setup: failures that manifest in pbcom but are curable only by
a joint [fedr, pbcom] restart; an oracle that guesses wrong 30 % of the
time.  Measured: tree IV 29.19 s vs tree V 21.63 s.  A perfect oracle shows
the dual: "tree V can be better only when the oracle is faulty".
"""

import pytest
from conftest import print_banner

from repro.analysis.model import mercury_system_model
from repro.experiments.recovery import measure_recovery
from repro.experiments.report import format_table
from repro.experiments.runner import PAPER_TABLE4
from repro.mercury.trees import tree_iv, tree_v

CURE = ("fedr", "pbcom")


def cell_mean(tree, oracle, trials, seed):
    kwargs = dict(cure_set=CURE)
    if oracle == "faulty":
        kwargs.update(oracle="faulty", oracle_error_rate=0.3)
    return measure_recovery(tree, "pbcom", trials=trials, seed=seed, **kwargs).mean


def analytic(tree, p):
    model = mercury_system_model(tree, oracle_error_rate=p)
    return model.expected_recovery(tree, "pbcom", CURE)


def test_sec44(trials):
    iv_perfect = cell_mean(tree_iv(), "perfect", trials, seed=340)
    v_perfect = cell_mean(tree_v(), "perfect", trials, seed=341)
    iv_faulty = cell_mean(tree_iv(), "faulty", trials, seed=342)
    v_faulty = cell_mean(tree_v(), "faulty", trials, seed=343)
    paper_iv = PAPER_TABLE4[("IV", "faulty")]["pbcom"]
    paper_v = PAPER_TABLE4[("V", "faulty")]["pbcom"]

    print_banner(
        f"Section 4.4: joint-curable pbcom failures, {trials} trials/cell "
        "(oracle wrong 30% of the time)"
    )
    print(
        format_table(
            ["tree", "perfect oracle", "faulty oracle", "paper (faulty)", "analytic (faulty)"],
            [
                ["IV", iv_perfect, iv_faulty, paper_iv, analytic(tree_iv(), 0.3)],
                ["V", v_perfect, v_faulty, paper_v, analytic(tree_v(), 0.3)],
            ],
        )
    )

    # Node promotion pays only when the oracle can err:
    assert v_faulty < iv_faulty - 3.0          # V wins under mistakes
    assert v_perfect == pytest.approx(iv_perfect, abs=0.6)  # no win when perfect
    assert v_faulty == pytest.approx(v_perfect, abs=0.6)    # V is mistake-immune
    # Quantitative agreement with the paper's measured values.
    assert iv_faulty == pytest.approx(paper_iv, rel=0.15)
    assert v_faulty == pytest.approx(paper_v, rel=0.05)
    # The closed-form model agrees with the simulation.
    assert analytic(tree_iv(), 0.3) == pytest.approx(iv_faulty, rel=0.12)
    assert analytic(tree_v(), 0.3) == pytest.approx(v_faulty, rel=0.05)
