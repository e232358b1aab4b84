"""Standalone perf session: time the simulator's five hot paths.

Mirrors ``benchmarks/test_perf_simulator.py`` without the pytest harness so
CI can produce a machine-readable perf trajectory::

    PYTHONPATH=src python tools/bench.py --output BENCH_5.json
    PYTHONPATH=src python tools/bench.py --baseline BENCH_4.json --output BENCH_5.json

Metrics:

* ``kernel_events_per_sec`` — dispatched callbacks through
  :meth:`Kernel.run` under a station-shaped timer mix: 50 staggered
  interval timers (the FD/REC/steady-state cadences) plus a 20-callback
  same-instant burst each tick (a restart batch's fan-out), both riding
  the slab/batch dispatch path;
* ``bus_roundtrips_per_sec`` — ping round trips through the XML command
  bus (encode → broker envelope-route → templated reply → decode);
* ``bus_mixed_msgs_per_sec`` — a mixed-traffic bus profile shaped like an
  availability run: mostly broker pings, plus client-to-client pings,
  commands with parameters, and telemetry frames (the latter two exercise
  the full-parse fallback, so this metric tracks *both* bus paths);
* ``station_boot_seconds`` — wall-clock to boot the full-fidelity tree-V
  station to all-RUNNING plus settle;
* ``station_snapshot_restore_seconds`` — wall-clock to fork one campaign
  cell from the warmed tree-V template (fork + RNG rebase), the
  per-cell setup cost that replaces ``station_boot_seconds`` when the
  snapshot cache is active;
* ``fleet_stations_per_sec`` / ``fleet_events_per_sec`` — fleet-campaign
  throughput: a sharded 32-station correlated-wave fleet run end to end,
  divided by wall clock (stations simulated per second; kernel events per
  second across every member);
* ``fleet_station_boot_seconds`` / ``fleet_station_setup_seconds`` — a
  full-supervisor fleet station booted fresh, versus the per-station cost
  through the shared template store (one blob unpickle amortised over a
  shard plus a fork + rebase each).  Their ratio is the template-store
  amortisation factor;
* ``workload_requests_per_sec`` — user requests served per wall-clock
  second by the traffic plane (``repro.workload``) against a healthy
  tree-V station: open-loop arrivals, session chains, reply matching and
  the timeout ladder all inside the timed region.  This is the headline
  number for the user-effects layer — how much synthetic user traffic a
  campaign cell can absorb per core-second.

``--baseline`` embeds the previous run's *own* results (its ``generated``
/ ``host`` / ``metrics`` keys only) so a single artifact records the
before/after pair.  Chained runs stay depth-1: run N never embeds run
N-1's embedded baseline.

``--smoke`` runs reduced-rep benchmarks and compares each smoke metric
against the checked-in baseline artifact (``--baseline``, default
``BENCH_5.json``) under a per-metric regression budget; any breach fails
loudly (exit 1).  Set ``REPRO_BENCH_SMOKE_SKIP=1`` to report without
failing on slow or heavily loaded machines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time


def _collected(measure):
    """Run one measurement with a clean GC slate.

    Each benchmark leaves a pile of short-lived garbage behind (dead
    kernels, stations, trace buffers); without a collection between
    measurements that pile drives generational GC cycles *inside* the
    next bench's timed region, depressing it by 20-30% depending on
    what ran before it.  Collecting at the boundary makes every metric
    independent of measurement order.
    """
    gc.collect()
    return measure()


def bench_kernel_events(n: int = 200_000, reps: int = 7) -> float:
    """Dispatched callbacks/s through a station-shaped timer mix.

    50 repeating interval timers at near-1 ms periods model the periodic
    control plane (detector rounds, recoverer watchdogs, steady-state
    injectors); each tick fans a 20-callback burst out half a period
    ahead, modelling a ping round's replies arriving together — which is
    exactly the shape the transport's FIFO clamp produces.  Interval
    timers re-arm in place (one heap push, zero allocation per firing)
    and each burst shares one slab bucket, so this measures the batch
    dispatch paths a live station actually leans on.
    """
    from repro.sim.kernel import Kernel

    timers, burst = 50, 20
    best = float("inf")
    for _ in range(reps):
        kernel = Kernel(seed=1)
        count = [0]

        def deliver() -> None:
            count[0] += 1

        def tick() -> None:
            count[0] += 1
            when = kernel.now + 0.0005
            for _ in range(burst):
                kernel.schedule_at(when, deliver)

        for i in range(timers):
            kernel.schedule_interval(0.001 + i * 1e-6, tick)

        rounds = n // (timers * (burst + 1))
        start = time.perf_counter()
        kernel.run(until=rounds * 0.001 + 0.01)
        elapsed = time.perf_counter() - start
        assert count[0] >= n * 0.95
        best = min(best, elapsed / count[0])
    return 1.0 / best


def bench_bus_roundtrips(n: int = 1_000, reps: int = 5) -> float:
    from repro.bus.broker import BusBroker
    from repro.bus.client import BusClient
    from repro.procmgr.manager import ProcessManager
    from repro.procmgr.process import ProcessSpec, constant_work
    from repro.sim.kernel import Kernel
    from repro.transport.network import Network
    from repro.xmlcmd.commands import PingRequest

    kernel = Kernel(seed=2)
    network = Network(kernel)
    manager = ProcessManager(kernel)
    manager.spawn(
        ProcessSpec("mbus", constant_work(0.1), lambda p: BusBroker(p, network))
    )
    manager.start("mbus")
    kernel.run()
    client = BusClient(kernel, network, "perf")
    client.connect()
    kernel.run(until=kernel.now + 1.0)

    seq = [0]
    best = float("inf")
    for _ in range(reps):
        received = len(client.received)
        start = time.perf_counter()
        for _ in range(n):
            seq[0] += 1
            client.send(PingRequest("perf", "mbus", seq[0]))
        kernel.run(until=kernel.now + 5.0)
        best = min(best, time.perf_counter() - start)
        assert len(client.received) - received == n
    return n / best


def bench_bus_mixed(n: int = 1_000, reps: int = 5) -> float:
    """Messages/s through the broker under an availability-shaped mix.

    Per 10 messages: 7 broker pings (fast path), 1 client-to-client ping
    (fast route, raw forwarded untouched), 1 command with params and 1
    telemetry frame (full-parse fallback at the receiving client; the
    command's children also force the broker's envelope-scan fallback).
    """
    from repro.bus.broker import BusBroker
    from repro.bus.client import BusClient
    from repro.procmgr.manager import ProcessManager
    from repro.procmgr.process import ProcessSpec, constant_work
    from repro.sim.kernel import Kernel
    from repro.transport.network import Network
    from repro.xmlcmd.commands import CommandMessage, PingRequest, TelemetryFrame

    kernel = Kernel(seed=4)
    network = Network(kernel)
    manager = ProcessManager(kernel)
    manager.spawn(
        ProcessSpec("mbus", constant_work(0.1), lambda p: BusBroker(p, network))
    )
    manager.start("mbus")
    kernel.run()
    sender = BusClient(kernel, network, "mix-a")
    receiver = BusClient(kernel, network, "mix-b")
    sender.connect()
    receiver.connect()
    kernel.run(until=kernel.now + 1.0)

    command = CommandMessage(
        "mix-a", "mix-b", "track", {"azimuth": "143.2", "elevation": "67.9"}
    )
    frame = TelemetryFrame("mix-a", "mix-b", "opal", "p42", 4800)
    seq = [0]
    best = float("inf")
    for _ in range(reps):
        before = len(sender.received) + len(receiver.received)
        start = time.perf_counter()
        for i in range(n):
            seq[0] += 1
            slot = i % 10
            if slot < 7:
                sender.send(PingRequest("mix-a", "mbus", seq[0]))
            elif slot < 8:
                sender.send(PingRequest("mix-a", "mix-b", seq[0]))
            elif slot < 9:
                sender.send(command)
            else:
                sender.send(frame)
        kernel.run(until=kernel.now + 5.0)
        best = min(best, time.perf_counter() - start)
        assert len(sender.received) + len(receiver.received) - before == n
    return n / best


def bench_station_boot(reps: int = 5) -> float:
    from repro.mercury.station import MercuryStation
    from repro.mercury.trees import tree_v

    best = float("inf")
    for _ in range(reps):
        station = MercuryStation(tree=tree_v(), seed=3)
        start = time.perf_counter()
        station.boot()
        best = min(best, time.perf_counter() - start)
    return best


def bench_station_snapshot(reps: int = 5) -> float:
    """Per-cell setup seconds with the snapshot cache active.

    Times :func:`repro.experiments.snapshot.warmed_station` on a warm
    template: one fork of the booted tree-V station plus the per-cell
    RNG rebase.  The template boot itself is paid once, outside the timed
    region — exactly the amortisation the campaign runner sees.
    """
    from repro.experiments import snapshot as snap
    from repro.mercury.config import PAPER_CONFIG
    from repro.mercury.station import MercuryStation
    from repro.mercury.trees import tree_v

    tree = tree_v()
    shape = snap.station_shape("bench", tree, PAPER_CONFIG)

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(tree=tree, config=PAPER_CONFIG, seed=boot_seed)

    snap.warmed_station(shape, build, MercuryStation.boot, 0, snapshot=True)
    best = float("inf")
    for i in range(reps):
        start = time.perf_counter()
        snap.warmed_station(shape, build, MercuryStation.boot, i + 1, snapshot=True)
        best = min(best, time.perf_counter() - start)
    snap.clear_templates()  # no cross-benchmark (or cross-run) state
    return best


def bench_fleet(
    size: int = 32, horizon: float = 240.0, reps: int = 3
) -> "tuple[float, float]":
    """Fleet throughput: (stations simulated/s, kernel events/s).

    Runs one sharded fleet cell (correlated waves on, 4 shards, serial
    execution — sharding is bit-identical, so the serial number is the
    honest single-core figure) and divides by wall clock.  Stations/s is
    the capacity-planning number: how much fleet one core buys per second
    of real time at the default horizon.
    """
    from repro.experiments import snapshot as snap
    from repro.experiments.fleet import FleetSpec, run_fleet_cell
    from repro.experiments.template_store import STORE

    spec = FleetSpec(
        size=size,
        horizon_s=horizon,
        seed=11,
        wave_interval_s=120.0,
        wave_drop=0.2,
        drain_s=60.0,
    )
    best = float("inf")
    events = 0
    for _ in range(reps):
        snap.clear_templates()
        start = time.perf_counter()
        result = run_fleet_cell(spec, shards=4)
        best = min(best, time.perf_counter() - start)
        events = result.events_executed
        assert result.ok, "fleet bench run violated invariants"
    snap.clear_templates()
    STORE.clear()
    return size / best, events / best


def bench_fleet_setup(stations: int = 16) -> "tuple[float, float]":
    """(fresh-boot seconds, shared-template per-station setup seconds).

    The second number is what a fleet shard actually pays per station:
    one blob unpickle amortised over the shard's stations plus a fork
    and RNG rebase each.  The first is what it would pay without the
    shared store — the ratio is the template-store amortisation factor
    (the PR acceptance bar is >= 3x).
    """
    from repro.experiments import snapshot as snap
    from repro.experiments.fleet import (
        FleetSpec,
        _fleet_shape,
        _StationBuild,
        station_seed,
    )
    from repro.experiments.template_store import STORE
    from repro.mercury.config import PAPER_CONFIG

    spec = FleetSpec()
    builder = _StationBuild(spec, PAPER_CONFIG)
    shape = _fleet_shape(spec, PAPER_CONFIG)

    snap.clear_templates()
    STORE.clear()
    start = time.perf_counter()
    template = builder.build(snap.boot_seed(shape))
    builder.warm(template)
    boot_seconds = time.perf_counter() - start
    snap._TEMPLATES[shape] = template
    snap.publish_template(shape, builder.build, builder.warm)
    blobs = STORE.blobs()

    # Worker side: fresh per-process template cache, blob table installed.
    snap.clear_templates()
    STORE.clear()
    STORE.install(blobs)
    start = time.perf_counter()
    for index in range(stations):
        snap.warmed_station(
            shape, builder.build, builder.warm, station_seed(spec.seed, index)
        )
    setup_seconds = (time.perf_counter() - start) / stations

    snap.clear_templates()
    STORE.clear()
    return boot_seconds, setup_seconds


def bench_workload(horizon: float = 60.0, reps: int = 3) -> float:
    """User requests served per wall-clock second (healthy station).

    Boots a tree-V station outside the timed region, then runs the whole
    workload plane — Poisson arrivals, session chains, bus round trips,
    reply matching, timeout bookkeeping — for ``horizon`` simulated
    seconds.  On a healthy station every request is served, so the
    metric is pure throughput with no loss-path noise.
    """
    from repro.mercury.station import MercuryStation
    from repro.mercury.trees import tree_v
    from repro.workload.generator import WorkloadSpec
    from repro.workload.plane import WorkloadPlane

    best = float("inf")
    for rep in range(reps):
        station = MercuryStation(tree=tree_v(), seed=5 + rep)
        station.boot()
        plane = WorkloadPlane(station, WorkloadSpec(session_rate=50.0))
        start = time.perf_counter()
        effects = plane.run(horizon)
        elapsed = time.perf_counter() - start
        assert effects.requests_failed == 0, "healthy station dropped requests"
        assert effects.requests_ok > 0
        best = min(best, elapsed / effects.requests_ok)
    return 1.0 / best


#: ``--smoke`` regression gates: metric name -> (reduced-rep measurement,
#: higher-is-better, allowed fractional regression).  Throughputs get the
#: historical 20% budget (fleet runs are longer-wall-clock and steadier,
#: but carry more machinery, so 25%); the snapshot-restore wall clock is a
#: ~1 ms measurement and CI machines are noisy, so it gets 35% — re-pinned
#: from the original 50% after the ComponentTiming deepcopy regression was
#: fixed and the BENCH_5 baseline recorded the recovered number.  The
#: per-station fleet setup is equally tiny, hence 50%.
def _smoke_checks():
    return [
        ("bus_roundtrips_per_sec", lambda: bench_bus_roundtrips(n=500, reps=3), True, 0.20),
        ("bus_mixed_msgs_per_sec", lambda: bench_bus_mixed(n=500, reps=3), True, 0.20),
        ("station_snapshot_restore_seconds", lambda: bench_station_snapshot(reps=3), False, 0.35),
        ("fleet_stations_per_sec", lambda: bench_fleet(size=8, horizon=120.0, reps=1)[0], True, 0.25),
        ("fleet_station_setup_seconds", lambda: bench_fleet_setup(stations=8)[1], False, 0.50),
        ("workload_requests_per_sec", lambda: bench_workload(horizon=30.0, reps=1), True, 0.25),
    ]


def _run_smoke(parser, baseline_path: str) -> int:
    """Reduced-rep regression gate for ``make bench-smoke``."""
    try:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        reference = dict(baseline["metrics"])
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot read smoke baseline {baseline_path!r}: {exc}")

    bench_bus_roundtrips(n=200, reps=1)  # warmup
    # Two failure classes: *timing* regressions bow to the
    # REPRO_BENCH_SMOKE_SKIP escape hatch (slow or loaded machines lie
    # about throughput), but a bench that errors out or a metric missing
    # from the baseline artifact is a correctness problem and fails
    # regardless — the skip knob must never mask a broken benchmark.
    regressions = []
    broken = []
    for name, measure, higher_is_better, budget in _smoke_checks():
        ref = reference.get(name)
        if ref is None:
            print(
                f"bench-smoke: {name}: MISSING from baseline {baseline_path}"
                " (re-run `make bench` to record it)"
            )
            broken.append(name)
            continue
        ref = float(ref)
        try:
            current = _collected(measure)
        except Exception as exc:  # noqa: BLE001 - report, fail, keep measuring
            print(f"bench-smoke: {name}: ERROR {exc!r}")
            broken.append(name)
            continue
        # Normalised so 1.0 is parity and smaller is worse for both
        # orientations; the gate is ratio >= 1 - budget.
        ratio = (current / ref) if higher_is_better else (ref / current)
        verdict = "OK" if ratio >= 1.0 - budget else "FAIL"
        print(
            f"bench-smoke: {name} {current:.6g} vs baseline {ref:.6g}"
            f" ({ratio:.2f}x, budget {budget:.0%}): {verdict}"
        )
        if verdict == "FAIL":
            regressions.append(name)
    if broken:
        print(
            f"bench-smoke: FAIL — {', '.join(broken)} broken or missing"
            " (not skippable)"
        )
        return 1
    if not regressions:
        print(f"bench-smoke: OK (all metrics within budget, {baseline_path})")
        return 0
    if os.environ.get("REPRO_BENCH_SMOKE_SKIP", "") not in ("", "0"):
        print(
            "bench-smoke: REGRESSION ignored (REPRO_BENCH_SMOKE_SKIP set):"
            f" {', '.join(regressions)}"
        )
        return 0
    print(
        f"bench-smoke: FAIL — {', '.join(regressions)} regressed past budget"
        " (set REPRO_BENCH_SMOKE_SKIP=1 to ignore on slow machines)"
    )
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write JSON here (default stdout)")
    parser.add_argument(
        "--baseline", default=None,
        help="embed a previous run's generated/host/metrics as the"
        " 'baseline' key (with --smoke: the artifact to regress against,"
        " default BENCH_6.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced-rep benchmarks; fail on a per-metric regression"
        " budget breach vs the baseline artifact",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return _run_smoke(parser, args.baseline or "BENCH_6.json")

    baseline = None
    if args.baseline:
        # Read up front: fail before a minute of measurement, not after.
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.baseline!r}: {exc}")

    # Warmup pass first: interpreter caches and CPU frequency boost settle,
    # otherwise the first metric measured is penalized.
    bench_kernel_events(n=50_000, reps=3)
    # Measurement order matters on quota-throttled CI boxes: the historical
    # five metrics run first, in their historical order, so their numbers
    # stay comparable with earlier artifacts; the fleet metrics (new in
    # BENCH_5) append after.
    metrics = {
        "kernel_events_per_sec": round(_collected(lambda: bench_kernel_events(reps=10)), 1),
        "bus_roundtrips_per_sec": round(_collected(bench_bus_roundtrips), 1),
        "bus_mixed_msgs_per_sec": round(_collected(bench_bus_mixed), 1),
        "station_boot_seconds": round(_collected(bench_station_boot), 6),
        "station_snapshot_restore_seconds": round(_collected(bench_station_snapshot), 6),
    }
    fleet_stations, fleet_events = _collected(bench_fleet)
    fleet_boot, fleet_setup = _collected(bench_fleet_setup)
    metrics.update(
        {
            "fleet_stations_per_sec": round(fleet_stations, 1),
            "fleet_events_per_sec": round(fleet_events, 1),
            "fleet_station_boot_seconds": round(fleet_boot, 6),
            "fleet_station_setup_seconds": round(fleet_setup, 6),
            # New in BENCH_6: the user-traffic plane's headline number.
            "workload_requests_per_sec": round(_collected(bench_workload), 1),
        }
    )
    payload = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
        "metrics": metrics,
    }
    if baseline is not None:
        # Carry only the previous run's own results.  Embedding the file
        # verbatim would nest recursively across chained runs (run N
        # holding run N-1 holding run N-2 ...); every artifact stays
        # depth-1 instead.
        payload["baseline"] = {
            key: baseline.get(key) for key in ("generated", "host", "metrics")
        }

    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
