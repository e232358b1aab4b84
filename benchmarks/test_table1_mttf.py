"""Table 1 — observed per-component MTTFs.

In the paper these are operator estimates from two years of production; in
the reproduction they parameterise the fault injectors, and this bench
closes the loop by *observing* MTTFs over a long simulated run under
tree II (the paper-era component set).  The run is the steady-state
availability cell, correlation mechanisms on: uptime over injector
arrivals recovers the configured means, and uptime over all SIGKILL
failures shows what the ses/str resync coupling does to them.
"""

from conftest import print_banner

from repro.experiments.availability import measure_availability
from repro.experiments.report import format_table
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.trees import tree_ii

DAY = 86400.0
HORIZON_DAYS = 10

#: The paper's Table 1: observed per-component MTTFs.
PAPER_TABLE1 = {
    "mbus": "1 month",
    "fedrcom": "10 min",
    "ses": "5 hr",
    "str": "5 hr",
    "rtu": "5 hr",
}


def humanise(seconds):
    if seconds is None:
        return None
    if seconds >= 86400 * 20:
        return f"{seconds / (30 * 86400):.1f} month"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} hr"
    return f"{seconds / 60:.1f} min"


def relative_error(result, component):
    configured = PAPER_CONFIG.mttf_seconds[component]
    return abs(result.mttf(component) - configured) / configured


def test_table1():
    result = measure_availability(tree_ii(), horizon_s=HORIZON_DAYS * DAY, seed=200)

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
                + [humanise(PAPER_CONFIG.mttf_seconds[c]) for c in components],
                ["MTTF (observed)"] + [humanise(result.mttf(c)) for c in components],
                ["arrivals observed"] + [result.arrivals[c] for c in components],
                ["MTTF (all causes)"]
                + [humanise(result.all_cause_mttf(c)) for c in components],
                ["failures observed"]
                + [result.component_failures[c] for c in components],
            ],
        )
    )
    print(f"system availability over the run: {result.availability:.5f}")

    # fedrcom (10 min MTTF) has ~1400 samples: tight convergence expected.
    assert relative_error(result, "fedrcom") < 0.1
    # 5-hour components have ~48 samples each: exponential spread allows ~3x
    # the standard error (1/sqrt(48) ≈ 0.14).
    for component in ("ses", "str", "rtu"):
        assert result.arrivals[component] >= 20
        assert relative_error(result, component) < 0.45
    # mbus (1 month) rarely fails in 10 days.
    assert result.arrivals["mbus"] <= 2
