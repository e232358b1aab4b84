"""The repo benchmark: five campaign workloads, one command.

    python3 bench/run.py --workload recovery-matrix --seed 11 --seconds 12 --trace 0

runs one workload in a fresh subprocess (``worker.py``) with every
``REPRO_*`` variable scrubbed, prints each metric by name with its unit, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` the per-layer ones.  Without ``--workload`` all five run in
turn and the last line maps each name to its result.  A ``--trace 0`` run
also prints the workload's simulated results (``result.sim_*``): they are
not in the result line, because they repeat exactly for a seed and are to
be compared exactly against the parent, not within a bound.  ``--aa`` runs
the acceptance procedure instead: two sets of ten runs per workload on the
same code and seeds, their quartiles and spreads against each bound.  The
exit code is non-zero when an operation failed, an A/A gap exceeded its
bound or a simulated result differed between the sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-ups behind one ``setup_s`` (the median is reported).
SETUP_PROBES = 3

#: A worker that has not finished by now is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

#: Runs per set under ``--aa``: the acceptance rule's ten seeds.
AA_RUNS = 10


def spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units and bounds this command honours."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` execution knob.

    ``PYTHONHASHSEED`` is pinned so set iteration order, and with it every
    call count of the traced run, repeats exactly.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, mode: str) -> Dict[str, Any]:
    """Run ``worker.py`` to completion and return its JSON document."""
    command = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode,
        "--spawned-at", repr(time.monotonic()),
    ]
    # subprocess.run kills and reaps the child on timeout.
    done = subprocess.run(
        command, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S, check=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One benchmark run of one workload; the contract's result object
    plus a ``detail`` entry (stripped before the last line is printed)."""
    report = run_worker(workload, seed, seconds, trace, "run")
    metrics = report["metrics"]
    detail = {
        key: report[key]
        for key in ("digest", "passes", "failures", "sim_results",
                    "raw_work_per_wall_s", "driver_iqr")
        if key in report
    }
    if not trace:
        setups = [report] + [
            run_worker(workload, seed, seconds, trace, "setup")
            for _ in range(SETUP_PROBES - 1)
        ]
        metrics["setup_s"] = {
            "value": calibrate.quartiles([s["setup_cal_s"] for s in setups])[1],
            "unit": "s",
        }
        detail["setup_wall_s"] = calibrate.quartiles([s["setup_wall_s"] for s in setups])[1]
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": metrics,
        "detail": detail,
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=10, check=True, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def print_result(workload: str, seed: int, result: Dict[str, Any]) -> None:
    detail = result["detail"]
    print("== %s  seed=%d  passes=%s  digest=%s" % (
        workload, seed, detail.get("passes"), detail.get("digest")))
    for name, metric in result["metrics"].items():
        iqr = detail.get("driver_iqr", {}).get(name)
        print("%-40s %16.6f %-6s%s" % (
            name, metric["value"], metric["unit"],
            "  (iqr %.6f)" % iqr if iqr is not None else ""))
    for name, value in detail.get("sim_results", {}).items():
        print("%-40s %16.6f  (simulated: exact for the seed, compare exactly)" % (name, value))
    print("attempted=%d failed=%d %s" % (
        result["attempted"], result["failed"], " ".join(detail.get("failures", []))))


def contract_line(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


# ----------------------------------------------------------------------
# A/A acceptance
# ----------------------------------------------------------------------


#: Counters of simulated work: with the ``.calls`` and ``result.`` families
#: they depend on the seed alone and must repeat exactly between runs.
EXACT_COUNTERS = (
    "sim.kernel.events_per_work",
    "workload.retries_per_request",
    "workload.events_per_request",
    "mercury.session_store.ops",
    "transport.connections",
    "harness.slices",
)


def repeats_exactly(name: str) -> bool:
    """Whether a per-layer metric is a function of the seed alone."""
    return name.endswith(".calls") or name.startswith("result.") or name in EXACT_COUNTERS


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def run_aa(workloads: Sequence[str], seed: int, seconds: float) -> int:
    """Two sets of :data:`AA_RUNS` runs per workload (seeds ``seed ..
    seed+9``, the same in both sets), judged by the acceptance rule: every
    spread (IQR / median) within the metric's bound, except ``setup_s``; the
    second median not worse than the first by more than the bound; simulated
    results, digests and call counts identical between the sets, seed by
    seed."""
    declared = spec()
    verdict = 0
    for workload in workloads:
        sets: List[List[Dict[str, Any]]] = []
        traces: List[Dict[str, Any]] = []
        for _set in range(2):
            sets.append([run_workload(workload, seed + i, seconds, 0) for i in range(AA_RUNS)])
            traces.append(run_workload(workload, seed, seconds, 1))
            if not all(r["correct"] for r in sets[-1] + traces[-1:]):
                print("%s: a run was incorrect" % workload)
                verdict = 1
        print("== A/A %s: 2 sets x %d runs, seeds %d..%d" % (
            workload, AA_RUNS, seed, seed + AA_RUNS - 1))
        print("%-16s %3s %14s %14s %14s %8s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "gap", "bound"))
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, runs_of_set in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs_of_set]
                q1, median, q3 = calibrate.quartiles(values)
                medians.append(median)
                gap = worse_by(medians[0], median, metric["better"]) if index else 0.0
                spread = (q3 - q1) / median
                bad = gap > bound or (spread > bound and name != "setup_s")
                verdict |= int(bad)
                print("%-16s %3d %14.6f %14.6f %14.6f %8.4f %8.4f %8.2f%s" % (
                    name, index, q1, median, q3, spread, gap, bound,
                    "  FAIL" if bad else ""))
        for label, key in (("raw work/wall_s", "raw_work_per_wall_s"),
                           ("raw setup wall_s", "setup_wall_s")):
            for index, runs_of_set in enumerate(sets):
                print("%-16s %3d  spread %.4f  (uncalibrated, for comparison)" % (
                    label, index, calibrate.spread([r["detail"][key] for r in runs_of_set])))
        exact = [
            name for name, value in traces[0]["metrics"].items()
            if repeats_exactly(name)
            and traces[1]["metrics"][name]["value"] != value["value"]
        ]
        if traces[0]["detail"]["digest"] != traces[1]["detail"]["digest"]:
            exact.append("digest")
        for offset, (first, second) in enumerate(zip(*sets)):
            for key in ("digest", "sim_results"):
                if first["detail"][key] != second["detail"][key]:
                    exact.append("seed%d.%s" % (seed + offset, key))
        print("simulated results and counts identical between sets: %s" % (
            "yes" if not exact else "NO " + " ".join(exact)))
        verdict |= int(bool(exact))
    return verdict


def main(argv: Optional[List[str]] = None) -> int:
    declared = spec()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=11,
                        help="drives every generated cell list")
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="how long the timed passes of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics in place of the end-to-end ones")
    parser.add_argument("--aa", action="store_true",
                        help="run the A/A acceptance procedure")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        parser.exit(2, "bench/run.py: no program to measure under %s\n" % SRC)

    chosen = [args.workload] if args.workload else names
    print("python=%s nproc=%s commit=%s" % (
        platform.python_version(), os.cpu_count(), git_commit()))
    if args.aa:
        return run_aa(chosen, args.seed, args.seconds)

    results = {}
    for workload in chosen:
        results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
        print_result(workload, args.seed, results[workload])
    lines = {name: contract_line(result) for name, result in results.items()}
    print(json.dumps(lines[args.workload] if args.workload else lines))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
