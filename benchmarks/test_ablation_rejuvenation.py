"""Ablation — proactive rejuvenation between passes (§3/§4.4/§6 threads).

pbcom ages with every fedr disconnect and eventually crashes; if that
happens mid-pass its ~22 s restart breaks the link (§5.2).  Rejuvenating
the [fedr, pbcom] cell between passes — planned, free downtime — resets
the age so the crash (ideally) never happens at all, converting expensive
unplanned downtime into cheap planned downtime.  Two availability cells,
one with rejuvenation off and one with a 30-minute period.
"""

from conftest import print_banner

from repro.experiments.availability import measure_availability
from repro.experiments.report import format_table
from repro.mercury.trees import tree_v

DAYS = 10
#: Every 30 min, well under pbcom's ~1 h age-out.
PERIOD_S = 1800.0


def test_rejuvenation():
    baseline = measure_availability(tree_v(), horizon_s=DAYS * 86400.0, seed=400)
    rejuvenated = measure_availability(
        tree_v(), horizon_s=DAYS * 86400.0, seed=400, rejuvenation_period_s=PERIOD_S
    )

    rows = [
        [
            policy,
            f"{100 * result.pass_loss_fraction:.2f}%",
            result.broken_links,
            result.aging_crashes,
            result.proactive_restarts if result is rejuvenated else "—",
            f"{result.availability:.4f}",
        ]
        for policy, result in (("reactive only", baseline), ("+ rejuvenation", rejuvenated))
    ]
    print_banner(
        f"Ablation: between-pass [fedr,pbcom] rejuvenation, {DAYS} days (tree V)"
    )
    print(
        format_table(
            ["policy", "data lost", "links broken", "pbcom aging crashes",
             "proactive restarts", "A_entire"],
            rows,
        )
    )
    print(f"rounds skipped (pass imminent): {rejuvenated.rejuvenation_skipped}")

    baseline_aging = baseline.aging_crashes
    rejuvenated_aging = rejuvenated.aging_crashes
    # Rejuvenation eliminates (nearly) all aging crashes...
    assert rejuvenated_aging < baseline_aging / 3
    # ...and with them the broken links they caused during passes.
    assert rejuvenated.broken_links <= baseline.broken_links
    # The scheduler really did gate on the pass schedule.
    assert rejuvenated.rejuvenation_skipped > 0
    assert rejuvenated.proactive_restarts > 100
