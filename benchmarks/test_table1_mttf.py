"""Table 1 — observed per-component MTTFs.

In the paper these are operator estimates from two years of production; in
the reproduction they parameterise the fault injectors, and this bench
closes the loop by *observing* MTTFs over a long simulated run under
tree II (the paper-era component set).
"""

from conftest import PAPER_TABLE1, print_banner

from repro.experiments.lifetimes import measure_lifetimes
from repro.experiments.report import format_table
from repro.mercury.trees import tree_ii

DAY = 86400.0
HORIZON_DAYS = 10


def humanise(seconds):
    if seconds is None:
        return None
    if seconds >= 86400 * 20:
        return f"{seconds / (30 * 86400):.1f} month"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} hr"
    return f"{seconds / 60:.1f} min"


def test_table1(benchmark):
    benchmark.pedantic(
        lambda: measure_lifetimes(tree_ii(), horizon_s=DAY / 4, seed=1),
        rounds=3,
        iterations=1,
    )

    result = measure_lifetimes(tree_ii(), horizon_s=HORIZON_DAYS * DAY, seed=200)

    components = ["mbus", "fedrcom", "ses", "str", "rtu"]
    print_banner(
        f"Table 1: observed per-component MTTFs over {HORIZON_DAYS} simulated days"
    )
    print(
        format_table(
            ["component"] + components,
            [
                ["MTTF (paper)"] + [PAPER_TABLE1[c] for c in components],
                ["MTTF (configured)"]
                + [humanise(result.configured_mttf[c]) for c in components],
                ["MTTF (observed)"]
                + [humanise(result.observed_mttf[c]) for c in components],
                ["failures observed"] + [result.failures[c] for c in components],
            ],
        )
    )
    print(f"system availability over the run: {result.system_availability:.5f}")

    # fedrcom (10 min MTTF) has ~1400 samples: tight convergence expected.
    assert result.relative_error("fedrcom") < 0.1
    # 5-hour components have ~48 samples each: exponential spread allows ~3x
    # the standard error (1/sqrt(48) ≈ 0.14).
    for component in ("ses", "str", "rtu"):
        assert result.failures[component] >= 20
        assert result.relative_error(component) < 0.45
    # mbus (1 month) rarely fails in 10 days.
    assert result.failures["mbus"] <= 2
