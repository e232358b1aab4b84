"""A day in the life of the Mercury ground station.

Full-fidelity simulation of 24 hours: Opal and Sapphire passes are
predicted by the orbit model, ses drives the antenna and radio through the
bus during each pass, Table 1 failures arrive at their natural rates, FD
detects them with XML pings, REC recovers with the tree V policy — and the
downlink accountant tallies the science data (§5.2).

Run with::

    python examples/ground_station_day.py
"""

from repro import MercuryStation, tree_v
from repro.mercury.orbit import default_satellites, predict_passes
from repro.mercury.passes import PassAccountant


def main() -> None:
    day = 86_400.0

    satellites = default_satellites()
    windows = []
    for satellite in satellites:
        windows.extend(predict_passes(satellite, horizon_s=day, start=300.0))
    windows.sort(key=lambda w: w.start)
    print(f"Pass schedule for the next 24h ({len(windows)} passes):")
    for window in windows:
        print(
            f"  {window.satellite:<9} t={window.start / 3600.0:5.2f}h  "
            f"{window.duration / 60.0:4.1f} min  max el {window.max_elevation_deg:4.1f} deg"
        )

    station = MercuryStation(
        tree=tree_v(),
        seed=7,
        oracle="perfect",
        supervisor="full",
        steady_faults=True,
        trace_capacity=200_000,
    )
    # Built before boot: from here on ses tracks only the satellite in view.
    accountant = PassAccountant(station, windows)
    station.boot()

    print("\nRunning one simulated day ...")
    station.run_for(day + 1800.0)

    failures = station.trace.filter(kind="failure_injected")
    restarts = station.trace.filter(kind="restart_ordered")
    print(f"\nFailures injected: {len(failures)}; restarts ordered: {len(restarts)}")
    for record in restarts:
        print(
            f"  t={record.time / 3600.0:5.2f}h  REC restarted {record.data['cell']}"
            f" (trigger: {record.data['trigger']})"
        )

    summary = accountant.summary
    print(f"\nDownlink accounting over {summary.passes} passes:")
    print(f"  expected : {summary.total_expected_bytes / 1e6:7.2f} MB")
    print(f"  received : {summary.total_received_bytes / 1e6:7.2f} MB")
    print(f"  lost     : {summary.total_lost_bytes / 1e6:7.2f} MB "
          f"({100 * summary.loss_fraction:.2f}%)")
    print(f"  links broken: {summary.broken_links}; "
          f"whole passes lost: {summary.whole_passes_lost}")
    print(f"\nAntenna slews commanded: {station.hardware.antenna.point_count}; "
          f"radio retunes: {station.hardware.radio.tune_count}")


if __name__ == "__main__":
    main()
