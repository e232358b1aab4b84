"""§8 — the headline: recovery time improved ~4x, and what that buys.

Long-run availability per tree under identical Table 1 fault arrivals,
with the analytic series-system model (§7's future-work direction) as a
cross-check.  "Availability is generally thought of as the ratio
MTTF/(MTTF+MTTR); recursive restartability improves this ratio by reducing
MTTR."
"""

from conftest import print_banner

from repro.analysis.model import mercury_system_model
from repro.experiments.report import format_table
from repro.experiments.runner import run_suite
from repro.mercury.trees import TREE_BUILDERS

DAYS = 5


def test_sec8():
    labels = ["I", "II", "III", "IV", "V"]
    suite = run_suite(
        "availability",
        {"tree": labels},
        horizon_s=DAYS * 86400.0,
        seed=360,
    )
    results = {label: suite[(label,)] for label in labels}
    # The analytic model of each tree, matching the availability cell's
    # perfect oracle and self-curing failures.
    analytic = {}
    for label in labels:
        tree = TREE_BUILDERS[label]()
        model = mercury_system_model(tree, oracle_error_rate=0.0, pbcom_joint_fraction=0.0)
        analytic[label] = model.availability(tree)

    rows = []
    for label in labels:
        result = results[label]
        rows.append(
            [
                label,
                f"{result.availability:.5f}",
                f"{analytic[label]:.5f}",
                result.outages,
                f"{result.mean_outage_s:.1f}" if result.mean_outage_s else "—",
                f"{result.annual_downtime_minutes:.0f}",
            ]
        )

    print_banner(f"Section 8: availability over {DAYS} simulated days per tree")
    print(
        "supervisor: the abstract surrogate (repro.detection.abstract), which\n"
        "declares a death after a sampled latency, not the FD+REC of Tables 2-4"
    )
    print(
        format_table(
            ["tree", "availability", "analytic (series)", "outages",
             "mean outage (s)", "annual downtime (min)"],
            rows,
        )
    )

    a = {label: results[label].availability for label in labels}
    outage = {label: results[label].mean_outage_s for label in labels}
    # Monotone improvement from tree I to the evolved trees.
    assert a["V"] > a["IV"] - 0.01
    assert a["V"] > a["I"]
    assert a["II"] > a["I"]
    # The headline factor: tree I's mean outage is a whole-system reboot
    # (compounded by overlapping failures); tree V's is a partial restart.
    ratio = outage["I"] / outage["V"]
    print(f"mean-outage improvement tree I -> V: {ratio:.1f}x (paper headline: ~4x)")
    assert ratio > 3.0
    # The series model charges the ses/str induced episode but not pbcom
    # aging or overlapping outages, so the simulated availability cannot
    # beat it by more than noise.
    for label in labels:
        assert a[label] <= analytic[label] + 0.01
