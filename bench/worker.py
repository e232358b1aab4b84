"""One workload in one fresh process: set up, measure, judge, report.

Started by ``run.py`` with a scrubbed environment; prints one JSON document
as its last line of standard output.  ``--mode setup`` stops after set-up
(the parent takes the median of several fresh-process set-ups); ``--mode
run`` goes on to the timed passes, or with ``--trace 1`` to one untraced
pass, one profiled pass and the isolated drivers.

Importing the program under test is part of set-up, so the modules that
import ``repro`` (``workloads``, ``drivers``) are imported inside functions,
after the leading calibration sample.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import calibrate


@dataclass
class PassRecord:
    """What one pass over the cell list produced and cost."""

    #: One payload per cell; ``None`` where the cell raised.
    payloads: List[Any]
    slice_cal_s: List[float]
    slice_wall_s: List[float]

    @property
    def cal_s(self) -> float:
        return sum(self.slice_cal_s)

    @property
    def wall_s(self) -> float:
        return sum(self.slice_wall_s)

    @property
    def complete(self) -> bool:
        return all(payload is not None for payload in self.payloads)


def run_pass(workload, specs, timer: calibrate.SliceTimer, ledger=None,
             around: Optional[Callable[[Callable[[], Any]], Any]] = None) -> PassRecord:
    """One pass, every slice timed by ``timer`` (and wrapped by ``around``)."""
    mark = len(timer.cal_s)
    if around is None:
        timed = timer.run
    else:
        def timed(work):
            return timer.run(lambda: around(work))
    payloads = workload.run_pass(specs, timed, ledger)
    return PassRecord(payloads, timer.cal_s[mark:], timer.walls[mark:])


def judge(workload, specs, passes: List[PassRecord]):
    """(attempted, failures, outcomes, digest) over every pass.

    Attempted operations are the cells of every pass plus the whole-pass
    criteria of the first pass plus one same-seed digest comparison per
    later pass; ``failures`` names each one that failed.
    """
    import workloads

    attempted = 0
    failures: List[str] = []
    for index, record in enumerate(passes):
        for position, (spec, payload) in enumerate(zip(specs, record.payloads)):
            attempted += 1
            if payload is None or not workload.cell_ok(spec, payload):
                failures.append("pass%d.cell%d" % (index, position))
    first = passes[0]
    outcomes: Dict[str, float] = {}
    if first.complete:
        outcomes = workload.outcomes(specs, first.payloads)
        for name, ok in workload.checks(specs, first.payloads):
            attempted += 1
            if not ok:
                failures.append(name)
    reference = workloads.digest(first.payloads)
    for index, record in enumerate(passes[1:], start=1):
        attempted += 1
        if workloads.digest(record.payloads) != reference:
            failures.append("pass%d.digest_differs" % index)
    return attempted, failures, outcomes, reference


def measure(workload, specs, seconds: float) -> Dict[str, Any]:
    """Timed passes for ``seconds`` (at least two, for the digest repeat).

    No station ledger here: holding every station a pass forks until the
    pass ends would be the harness's memory, not the program's, in
    ``peak_rss_mb``.
    """
    timer = calibrate.SliceTimer()
    timer.open()
    began = time.perf_counter()
    passes: List[PassRecord] = []
    while len(passes) < 2 or time.perf_counter() - began < seconds:
        passes.append(run_pass(workload, specs, timer))
    attempted, failures, outcomes, reference = judge(workload, specs, passes)
    complete = [p for p in passes if p.complete]
    rates = [workload.work(specs, p.payloads) / p.cal_s for p in complete]
    raw_rates = [workload.work(specs, p.payloads) / p.wall_s for p in complete]
    return {
        "attempted": attempted,
        "failures": failures,
        "digest": reference,
        "passes": len(passes),
        "metrics": {
            "work_per_cal_s": {
                "value": calibrate.quartiles(rates)[1] if rates else 0.0,
                "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        },
        # Not metrics of the result line.  The simulated results repeat
        # exactly for a seed and are compared as such (printed; ``--aa``);
        # the raw rate shows what calibration buys.
        "sim_results": outcomes,
        "raw_work_per_wall_s": calibrate.quartiles(raw_rates)[1] if raw_rates else 0.0,
    }


def trace(workload, specs) -> Dict[str, Any]:
    """One untraced pass, one profiled pass, then the isolated drivers."""
    import drivers
    import layers
    import workloads

    began = time.perf_counter()
    ledger = workloads.StationLedger()
    ledger.install()
    timer = calibrate.SliceTimer()
    timer.open()
    plain = run_pass(workload, specs, timer, ledger)
    counters = ledger.collect()

    profiler = cProfile.Profile(builtins=False)

    def profiled(work):
        profiler.enable()
        try:
            return work()
        finally:
            profiler.disable()

    unticked = calibrate.SliceTimer(segment_s=0.0)
    unticked.open()
    traced = run_pass(workload, specs, unticked, ledger, around=profiled)
    ledger.collect()
    seconds, calls = layers.attribute(profiler.getstats())
    share = layers.shares(seconds)

    attempted, failures, outcomes, reference = judge(workload, specs, [plain, traced])
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer in layers.LAYERS:
        put(layer + ".self_share", share[layer], "ratio")
        put(layer + ".calls", calls[layer], "count")
    put("harness.trace_overhead_ratio", traced.cal_s / plain.cal_s, "ratio")

    work = events = requests = retries = 0
    if plain.complete:
        work = workload.work(specs, plain.payloads)
        events = workload.events(plain.payloads, counters["events"])
        for payload in plain.payloads:
            effects = payload.get("effects", payload)
            if "requests_offered" in effects:
                requests += effects["requests_offered"]
                retries += effects["retries_sent"]
    put("sim.kernel.events_per_work", events / work if work else 0.0, "count")
    put("workload.retries_per_request", retries / requests if requests else 0.0, "ratio")
    put("workload.events_per_request", events / requests if requests else 0.0, "count")
    put("mercury.session_store.ops", counters["store_ops"], "count")
    put("transport.connections", counters["connections"], "count")

    for name, unit in workloads.RESULT_METRICS:
        put(name, outcomes.get(name, 0.0), unit)

    driver_report = drivers.run_drivers()
    for driver in drivers.DRIVERS:
        put(driver.metric, driver_report[driver.metric]["value"], driver.unit)

    cell_ms = [1000.0 * s for s in plain.slice_cal_s]
    _q1, p50, _q3 = calibrate.quartiles(cell_ms)
    cal_q1, cal_median, cal_q3 = calibrate.quartiles(timer.cals + unticked.cals)
    put("harness.cal_ms_median", 1000.0 * cal_median, "ms")
    put("harness.cal_spread", (cal_q3 - cal_q1) / cal_median, "ratio")
    put("harness.slices", len(cell_ms), "count")
    put("harness.cell_cal_ms_p50", p50, "ms")
    put("harness.cell_cal_ms_p90", sorted(cell_ms)[int(0.9 * (len(cell_ms) - 1))], "ms")
    put("harness.run_wall_s", time.perf_counter() - began, "s")
    return {
        "attempted": attempted,
        "failures": failures,
        "digest": reference,
        "passes": 2,
        "metrics": metrics,
        "driver_iqr": {name: entry["iqr"] for name, entry in driver_report.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() just before it started us")
    args = parser.parse_args(argv)

    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        raise SystemExit("REPRO_* variables reached the workload process: %s" % leaked)

    cal_at_start = calibrate.cal_loop()
    import workloads  # the program under test is imported inside set-up

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.plan(args.seed)
    workload.warm(specs)
    ready = time.monotonic()
    cal_when_ready = calibrate.cal_loop()
    # Process start to first timed slice, less the harness's own leading
    # calibration sample.
    setup_wall = (ready - args.spawned_at) - cal_at_start
    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_wall_s": setup_wall,
        "setup_cal_s": calibrate.normalise(setup_wall, cal_at_start, cal_when_ready),
    }
    if args.mode == "run":
        body = trace(workload, specs) if args.trace else measure(
            workload, specs, args.seconds
        )
        report.update(body)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
