"""§8 — the headline: recovery time improved ~4x, and what that buys.

Long-run availability per tree under identical Table 1 fault arrivals,
with the analytic series-system model (§7's future-work direction) as a
cross-check.  "Availability is generally thought of as the ratio
MTTF/(MTTF+MTTR); recursive restartability improves this ratio by reducing
MTTR."
"""

from conftest import CACHE_DIR, JOBS, print_banner

from repro.analysis.markov import SeriesSystemModel
from repro.experiments.availability import measure_availability
from repro.experiments.report import format_table
from repro.experiments.runner import run_suite
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.trees import TREE_BUILDERS

DAYS = 5


def analytic_availability(label):
    """Independent-components series model for one tree generation."""
    config = PAPER_CONFIG
    tree = TREE_BUILDERS[label]()
    names = sorted(tree.components)
    mttf = {n: config.mttf_seconds[n] for n in names}
    seconds = config.restart_seconds(lone=False)
    detect = config.mean_detection
    mttr = {}
    for name in names:
        covered = tree.components_restarted_by(tree.minimal_cell_covering([name]))
        k = len(covered)
        factor = 1 + config.contention_coefficient * (k - 1)
        mttr[name] = detect + max(seconds[c] for c in covered) * factor
    return SeriesSystemModel.from_tables(mttf, mttr).system_availability()


def test_sec8(benchmark):
    benchmark.pedantic(
        lambda: measure_availability(TREE_BUILDERS["V"](), horizon_s=86400.0, seed=1),
        rounds=3,
        iterations=1,
    )

    labels = ["I", "II", "III", "IV", "V"]
    suite = run_suite(
        "availability",
        {"tree": labels},
        horizon_s=DAYS * 86400.0,
        seed=360,
        jobs=JOBS,
        cache_dir=CACHE_DIR,
    )
    results = {label: suite[(label,)] for label in labels}

    rows = []
    for label in labels:
        result = results[label]
        rows.append(
            [
                label,
                f"{result.availability:.5f}",
                f"{analytic_availability(label):.5f}",
                result.outages,
                f"{result.mean_outage_s:.1f}" if result.mean_outage_s else "—",
                f"{result.annual_downtime_minutes:.0f}",
            ]
        )

    print_banner(f"Section 8: availability over {DAYS} simulated days per tree")
    print(
        format_table(
            ["tree", "availability", "analytic (indep.)", "outages",
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
    # Correlated failures (ses/str induction, pbcom aging) mean the
    # simulated availability cannot beat the independence-assuming analytic
    # model by more than noise.
    for label in labels:
        assert a[label] <= analytic_availability(label) + 0.01
