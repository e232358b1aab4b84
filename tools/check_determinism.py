#!/usr/bin/env python
"""Fast determinism gate (``make check-determinism``).

Every result in this repo is supposed to be a pure function of its seed:
same seed, same bytes.  That property underwrites the campaign result
cache, serial/parallel bit-identity, and "reproduce this failing chaos
seed" debugging — and it silently dies the moment someone reads the wall
clock, iterates an unordered set into an RNG, or keys a schedule off
``id()``.  This gate catches that class of regression in seconds.  Each
leg runs one cell more than once and byte-compares what came out:

* **same-seed traces** — three chaos cells on tree V (``cascade``; ``lossy``:
  the network fault fabric's per-link RNG streams plus the adaptive
  detector; ``store-outage``: session-store crash/hang windows, torn and
  corrupt writes, strategy fallback) and one 4 h steady-state availability
  run, each run twice with the same seed, comparing the full JSONL event
  traces and the result payloads;
* **snapshot-fork** — one storm campaign (FD/REC) and one availability
  run (abstract supervisor) restored from the warmed-station template vs.
  booted afresh (``snapshot=False``), traces and payloads: the
  restore-vs-boot bit-identity contract that lets both share the result
  cache, over both supervision front ends' object graphs;
* **kinds** — one small sample cell per row of
  :data:`repro.experiments.runner.KINDS` (the gate refuses to run with a
  kind unsampled), each executed directly, again through a serial campaign
  and again through a campaign on two worker processes, payloads compared:
  every kind is a pure function of its cell, in and out of a pool;
* **workload fresh boot** — one user-traffic cell (microreboot, crash, tree
  III) from the warmed-station template and from a fresh boot, comparing
  the full payloads (user-effects ledger, MTTR samples, per-phase blame);
* **fleet** — one correlated-wave fleet cell with live user traffic run
  four ways — one shard, three shards, three shards fanned over worker
  processes, and fresh-booted stations — comparing the full payloads, which
  embed every station's event-stream digest and user-effects ledger.

What the gate does not run: a mode against its own twin.  The bus has one
receive path and stations one boot path; their references (the full
parser, ``snapshot=False``) are selected by tests, and ``cache_key`` purity
under environment variables is a tier-1 test
(``tests/experiments/test_runner.py``).

Exits 0 when all legs are bit-identical, 1 otherwise (with the first
differing line for the trace legs).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from typing import Callable, List, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chaos.engine import run_chaos
from repro.experiments.availability import measure_availability
from repro.experiments.runner import KINDS, execute_cell, plan_cell, run_campaign
from repro.experiments.snapshot import clear_templates
from repro.mercury.trees import TREE_BUILDERS
from repro.obs.sinks import JsonlSink, Sink

CHAOS_SEED = 42
AVAILABILITY_SEED = 7
AVAILABILITY_HORIZON_S = 4.0 * 3600.0

#: A traced run: attaches the sinks it is given, returns its JSON payload.
TracedRun = Callable[[Sequence[Sink]], str]


def _dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


def _first_diff(path_a: str, path_b: str) -> str:
    with open(path_a, "r", encoding="utf-8") as fh_a, open(
        path_b, "r", encoding="utf-8"
    ) as fh_b:
        for lineno, (line_a, line_b) in enumerate(zip(fh_a, fh_b), start=1):
            if line_a != line_b:
                return f"line {lineno}:\n  run1: {line_a.rstrip()}\n  run2: {line_b.rstrip()}"
    return "traces differ in length"


def _compare_traces(name: str, path_a: str, path_b: str) -> bool:
    with open(path_a, "rb") as fh:
        bytes_a = fh.read()
    with open(path_b, "rb") as fh:
        bytes_b = fh.read()
    if bytes_a == bytes_b:
        print(f"  {name}: traces identical ({len(bytes_a)} bytes)")
        return True
    print(f"FAIL {name}: traces differ; first divergence at {_first_diff(path_a, path_b)}")
    return False


def _same(name: str, claim: str, reference: str, other: str) -> bool:
    """Print the verdict on one payload comparison."""
    if reference == other:
        print(f"  {name}: {claim}")
        return True
    print(f"FAIL {name}: not {claim}")
    return False


def _traced_pair(workdir: str, name: str, run_a: TracedRun, run_b: TracedRun) -> bool:
    """Two traced runs: their JSONL event traces and their payloads must
    match byte for byte."""
    paths: List[str] = []
    payloads: List[str] = []
    for index, run in enumerate((run_a, run_b), start=1):
        paths.append(os.path.join(workdir, f"{name}-{index}.jsonl"))
        payloads.append(run([JsonlSink(paths[-1])]))
    ok = _compare_traces(name, *paths)
    return _same(name, "result payloads identical", *payloads) and ok


def _chaos_run(scenario: str, **kwargs) -> TracedRun:
    def run(sinks: Sequence[Sink]) -> str:
        result = run_chaos(
            TREE_BUILDERS["V"](), scenario, trials=1, seed=CHAOS_SEED, sinks=sinks, **kwargs
        )
        return _dump(result.to_payload())

    return run


def _availability_run(**kwargs) -> TracedRun:
    def run(sinks: Sequence[Sink]) -> str:
        result = measure_availability(
            TREE_BUILDERS["V"](),
            horizon_s=AVAILABILITY_HORIZON_S,
            seed=AVAILABILITY_SEED,
            sinks=sinks,
            **kwargs,
        )
        return _dump(dataclasses.asdict(result))

    return run


#: The same-seed trace leg: (name, what it is, the run).
TRACE_SCENARIOS = [
    ("chaos", "cascade on tree V, seed %d" % CHAOS_SEED, _chaos_run("cascade")),
    ("chaos-lossy", "lossy on tree V, seed %d" % CHAOS_SEED, _chaos_run("lossy")),
    ("store", "store-outage on tree V, seed %d" % CHAOS_SEED, _chaos_run("store-outage")),
    (
        "availability",
        "tree V, %.0f h, seed %d" % (AVAILABILITY_HORIZON_S / 3600.0, AVAILABILITY_SEED),
        _availability_run(),
    ),
]


def check_same_seed_traces(workdir: str) -> bool:
    """Each scenario twice with the same seed: fault-plan, network-fabric,
    store-fault and steady-state injector RNG streams all ride the seed."""
    ok = True
    for name, what, run in TRACE_SCENARIOS:
        print(f"determinism: {name} ({what}) ...")
        ok = _traced_pair(workdir, name, run, run) and ok
    return ok


def check_snapshot_fork(workdir: str) -> bool:
    """Restored cells must equal fresh-boot cells: a storm campaign (FD/REC
    station) and an availability run (abstract supervisor), each through
    the warmed-station template (boot once, fork + RNG rebase per cell) and
    with ``snapshot=False`` (full boot per cell)."""
    pairs = [
        ("snapshot-fork", "storm on tree V, seed %d" % CHAOS_SEED, _chaos_run, ("storm",)),
        (
            "snapshot-fork-availability",
            "abstract supervisor, tree V, seed %d" % AVAILABILITY_SEED,
            _availability_run,
            (),
        ),
    ]
    ok = True
    for name, what, make_run, args in pairs:
        print(f"determinism: {name} ({what}) ...")
        clear_templates()
        try:
            ok = _traced_pair(
                workdir, name, make_run(*args, snapshot=True), make_run(*args, snapshot=False)
            ) and ok
        finally:
            clear_templates()
    return ok


#: One small cell per campaign kind (the fields ``plan_cell`` takes).  The
#: gate's samples, not the product's: a new kind adds its own here.
SAMPLES = {
    "recovery": dict(tree="II", component="rtu", trials=1),
    "availability": dict(tree="V", horizon_s=1800.0),
    "chaos": dict(tree="V", scenario="mixed", trials=1),
    "strategy": dict(tree="V", strategy="microreboot", failure_kind="crash", trials=2),
    "workload": dict(
        tree="III", strategy="restart", failure_kind="hang", trials=1, request_rate=8.0
    ),
    "fleet": dict(tree="V", fleet_size=2, horizon_s=30.0, wave_interval_s=15.0, request_rate=4.0),
}


def check_kinds(workdir: str) -> bool:
    """Every row of ``KINDS`` is a pure function of its cell: run directly,
    through a serial campaign, and through two worker processes."""
    if set(SAMPLES) != set(KINDS):
        print(f"FAIL kinds: no sample cell for {sorted(set(KINDS) - set(SAMPLES))}")
        return False
    print("determinism: kinds (%s; seed %d) ..." % (", ".join(KINDS), CHAOS_SEED))
    cells = [plan_cell(kind, CHAOS_SEED, **SAMPLES[kind]) for kind in KINDS]
    direct = [_dump(execute_cell(cell)) for cell in cells]
    serial, workers = (
        [_dump(payload) for payload in run_campaign(cells, jobs=jobs)] for jobs in (1, 2)
    )
    ok = True
    for kind, reference, again, pooled in zip(KINDS, direct, serial, workers):
        ok = _same(kind, "result payloads identical", reference, again) and ok
        ok = _same(kind, "campaign serial == two workers", again, pooled) and ok
    return ok


def check_workload_fresh_boot(workdir: str) -> bool:
    """User-traffic ledgers — arrivals, retries, failures, latency sums and
    per-phase blame — ride the cell seed, not the boot path."""
    from repro.experiments.workload import run_workload_cell
    from repro.workload.generator import WorkloadSpec

    print("determinism: workload (microreboot, crash, tree III, seed %d) ..." % CHAOS_SEED)

    def run(snapshot: bool) -> str:
        clear_templates()
        spec = WorkloadSpec(session_rate=8.0)
        result = run_workload_cell(
            TREE_BUILDERS["III"](), "microreboot", "crash", failures=2, seed=CHAOS_SEED,
            spec=spec, snapshot=snapshot,
        )
        return _dump(result.to_payload())

    ok = _same("workload", "snapshot restore == fresh boot", run(True), run(False))
    clear_templates()
    return ok


def check_fleet(workdir: str) -> bool:
    """Shard count, process fan-out and boot path are all invisible in a
    fleet's results."""
    from repro.experiments.fleet import FleetSpec, run_fleet_cell
    from repro.experiments.template_store import STORE

    print("determinism: fleet (8 stations, waves, user traffic, seed %d) ..." % CHAOS_SEED)
    spec = FleetSpec(
        tree="V",
        size=8,
        horizon_s=120.0,
        seed=CHAOS_SEED,
        wave_interval_s=60.0,
        wave_drop=0.3,
        # Live user traffic on every station: the workload plane's events
        # feed the per-station digests, so shard-layout independence of
        # the user-effects ledger is part of this leg's bit-identity.
        request_rate=4.0,
    )
    layouts = [
        ("1 shard", dict(shards=1)),
        ("3 shards", dict(shards=3)),
        ("3 shards x 3 jobs", dict(shards=3, jobs=3)),
        ("fresh boot", dict(shards=1, snapshot=False)),
    ]
    payloads = []
    for _, kwargs in layouts:
        clear_templates()
        STORE.clear()
        payloads.append(_dump(run_fleet_cell(spec, **kwargs).to_payload()))
    clear_templates()
    STORE.clear()
    ok = True
    for (label, _), payload in zip(layouts[1:], payloads[1:]):
        ok = _same("fleet", f"{label} == {layouts[0][0]}", payloads[0], payload) and ok
    return ok


#: Every leg, in the order it runs; each takes the scratch directory.
LEGS = [
    check_same_seed_traces,
    check_snapshot_fork,
    check_kinds,
    check_workload_fresh_boot,
    check_fleet,
]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as workdir:
        # A list, not a generator: a failing leg must not hide the next.
        ok = all([leg(workdir) for leg in LEGS])
    if ok:
        print("determinism: PASS")
        return 0
    print("determinism: FAIL", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
