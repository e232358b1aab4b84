"""Ablation — proactive rejuvenation between passes (§3/§4.4/§6 threads).

pbcom ages with every fedr disconnect and eventually crashes; if that
happens mid-pass its ~22 s restart breaks the link (§5.2).  Rejuvenating
the [fedr, pbcom] cell between passes — planned, free downtime — resets
the age so the crash (ideally) never happens at all, converting expensive
unplanned downtime into cheap planned downtime.
"""

from conftest import print_banner

from repro.core.rejuvenation import RejuvenationScheduler, no_pass_imminent
from repro.experiments.report import format_table
from repro.mercury.orbit import default_satellites, predict_passes
from repro.mercury.passes import PassAccountant
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.obs.sinks import CallbackSink

DAYS = 10


def run_campaign(rejuvenate, seed=400):
    station = MercuryStation(
        tree=tree_v(),
        seed=seed,
        oracle="perfect",
        supervisor="abstract",
        steady_faults=True,
        solution_period=600.0,
        trace_capacity=40_000,
    )
    station.manager.start_all(station.station_components)
    station.kernel.run(until=station.kernel.now + 120.0)
    horizon = DAYS * 86400.0
    windows = []
    for satellite in default_satellites():
        windows.extend(
            predict_passes(satellite, horizon_s=horizon, start=station.kernel.now)
        )
    accountant = PassAccountant(station, windows)
    scheduler = None
    aging_counter = {"count": 0}
    station.trace.add_sink(
        CallbackSink(
            lambda r: aging_counter.__setitem__("count", aging_counter["count"] + 1)
            if r.kind == "failure_injected" and r.data.get("failure_kind") == "aging"
            else None
        )
    )
    if rejuvenate:
        scheduler = RejuvenationScheduler(
            station.kernel,
            station.abstract_supervisor,
            station.tree,
            ["R_fedr_pbcom"],
            period=1800.0,  # every 30 min, well under pbcom's ~1 h age-out
            idle_predicate=no_pass_imminent(windows, margin_s=60.0),
        )
    station.run_for(horizon + 1800.0)
    return accountant.summary, aging_counter["count"], scheduler


def test_rejuvenation():
    baseline, baseline_aging, _ = run_campaign(rejuvenate=False)
    rejuvenated, rejuvenated_aging, scheduler = run_campaign(rejuvenate=True)

    rows = [
        [
            "reactive only",
            f"{100 * baseline.loss_fraction:.2f}%",
            baseline.broken_links,
            baseline_aging,
            "—",
        ],
        [
            "+ rejuvenation",
            f"{100 * rejuvenated.loss_fraction:.2f}%",
            rejuvenated.broken_links,
            rejuvenated_aging,
            scheduler.rounds_executed,
        ],
    ]
    print_banner(
        f"Ablation: between-pass [fedr,pbcom] rejuvenation, {DAYS} days (tree V)"
    )
    print(
        format_table(
            ["policy", "data lost", "links broken", "pbcom aging crashes",
             "proactive restarts"],
            rows,
        )
    )
    print(
        f"rounds skipped (pass imminent): {scheduler.rounds_skipped_not_idle}, "
        f"(supervisor busy): {scheduler.rounds_skipped_busy}"
    )

    # Rejuvenation eliminates (nearly) all aging crashes...
    assert rejuvenated_aging < baseline_aging / 3
    # ...and with them the broken links they caused during passes.
    assert rejuvenated.broken_links <= baseline.broken_links
    # The scheduler really did gate on the pass schedule.
    assert scheduler.rounds_skipped_not_idle > 0
    assert scheduler.rounds_executed > 100
