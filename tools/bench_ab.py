#!/usr/bin/env python
"""Alternating A/B of the repo benchmark against another revision
(``make repo-bench-ab BASE=<rev> WORKLOAD=<w> PAIRS=10``).

    python3 tools/bench_ab.py --base HEAD~1 --workload traffic-steady --pairs 10

checks ``BASE`` out into a temporary ``git worktree`` (removed afterwards;
``--base-dir`` names a checkout that already exists instead), then runs
``python3 bench/run.py --workload W --seed S`` once per side per pair, each
side from its own tree, alternating which side goes first so drift in the
machine's load lands on both.  It prints what a performance claim in this
repo has to show (ROADMAP "Open items"; the choosing-metrics rule):

* per end-to-end metric of ``BENCHMARK.json``: each side's median and
  quartiles over the pairs, the ratio of the medians with its base, the
  pairs the change won (ties count for neither side), and whether that is
  a gain by the rule — ten pairs or more, at least nine tenths of them won
  *and* the medians further apart than the base's own interquartile range;
* the exact comparison: the payload digest and every ``result.sim_*`` line
  of every run, which repeat exactly for a seed and so must be equal
  unless the change meant to alter behaviour;
* failed operations on either side;
* with ``--ledger``, the "which layer moved" table: one ``--trace 1`` run
  per side, and every per-layer metric that repeats exactly for a seed
  (``*.calls``, ``sim.kernel.events_per_work``,
  ``workload.events_per_request``, ``transport.connections``, ...) whose two
  values differ, each layer's ``self_share`` beside its call count.

Report-only: the exit code is non-zero only when a benchmark run itself
failed (``bench/run.py`` exited non-zero or reported failed operations).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from calibrate import quartiles  # the acceptance rule's own (q1, median, q3)
from run import repeats_exactly  # which per-layer metrics depend on the seed alone

#: Pairs the rule needs before it calls anything a gain.
RULE_PAIRS = 10


def run_once(tree: str, workload: str, seed: int, trace: int = 0) -> Dict[str, Any]:
    """One ``bench/run.py`` run from ``tree``: its contract line plus the
    digest and the simulated-result lines it printed."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        raise SystemExit("bench_ab: no result line from %s (exit %d)" % (tree, done.returncode))
    exact = {}
    for line in lines:
        fields = line.split()
        if line.startswith("== "):
            exact["digest"] = line.rsplit("digest=", 1)[-1]
        elif fields and fields[0].startswith("result.sim_"):
            exact[fields[0]] = fields[1]
    result["exact"] = exact
    result["exit"] = done.returncode
    return result


def report(
    declared: Dict[str, Any],
    workload: str,
    runs: Dict[str, List[Dict[str, Any]]],
) -> None:
    base, change = runs["base"], runs["change"]
    pairs = len(base)
    print("== A/B %s: %d alternating pairs" % (workload, pairs))
    print("%-16s %-7s %14s %14s %14s" % ("metric", "side", "q1", "median", "q3"))
    for metric in declared["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]]
            for side in ("base", "change")
        }
        stats = {side: quartiles(values[side]) for side in values}
        for side in ("base", "change"):
            print("%-16s %-7s %14.6f %14.6f %14.6f" % ((name, side) + stats[side]))
        wins = sum(
            (c > b) if higher else (c < b)
            for b, c in zip(values["base"], values["change"])
        )
        ties = sum(b == c for b, c in zip(values["base"], values["change"]))
        base_iqr = stats["base"][2] - stats["base"][0]
        apart = stats["change"][1] - stats["base"][1]
        better_by = apart if higher else -apart
        if pairs < RULE_PAIRS:
            verdict = "not judged under %d pairs" % RULE_PAIRS
        else:
            verdict = "yes" if wins >= 0.9 * pairs and better_by > base_iqr else "no"
        print(
            "%-16s change/base %.4f (base %.6f %s, %s is better); change won "
            "%d/%d pairs (%d ties); base IQR %.6f; gain by the rule: %s" % (
                name, stats["change"][1] / stats["base"][1], stats["base"][1],
                metric["unit"], metric["better"], wins, pairs, ties, base_iqr,
                verdict,
            )
        )
    keys = sorted({key for run in base + change for key in run["exact"]})
    seen = {
        side: {key: sorted({run["exact"].get(key, "-") for run in runs[side]}) for key in keys}
        for side in ("base", "change")
    }
    differing = [key for key in keys if seen["base"][key] != seen["change"][key]]
    print("digest and result.sim_* identical: %s" % (
        "yes (%d values, every run)" % len(keys) if not differing
        else "NO  " + "  ".join(
            "%s %s -> %s" % (key, "|".join(seen["base"][key]), "|".join(seen["change"][key]))
            for key in differing
        )
    ))
    for side in ("base", "change"):
        print("%s: failed operations %d of %d attempted" % (
            side,
            sum(run["failed"] for run in runs[side]),
            sum(run["attempted"] for run in runs[side]),
        ))


def report_ledger(workload: str, traced: Dict[str, Dict[str, Any]]) -> None:
    """The layers that moved: exact-repeat per-layer metrics that differ
    between the two traced runs (a count repeats for a seed, so any
    difference is the change's doing, not the machine's)."""
    base, change = traced["base"]["metrics"], traced["change"]["metrics"]
    exact = [name for name in base if name in change and repeats_exactly(name)]
    moved = [name for name in exact if base[name]["value"] != change[name]["value"]]
    print("== ledger %s: %d of %d exact-repeat per-layer metrics differ" % (
        workload, len(moved), len(exact)))
    for name in moved:
        line = "%-32s %16.6f -> %16.6f" % (name, base[name]["value"], change[name]["value"])
        share = name[: -len("calls")] + "self_share"
        if name.endswith(".calls") and share in base and share in change:
            line += "  self_share %.3f -> %.3f" % (base[share]["value"], change[share]["value"])
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="revision to compare against")
    parser.add_argument("--base-dir", default=None,
                        help="an existing checkout of the base (no worktree is made)")
    parser.add_argument("--workload", choices=names, default="traffic-steady")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ledger", action="store_true",
                        help="add one --trace 1 run per side and print the "
                             "exact-repeat per-layer metrics that differ")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = None
    base_tree = args.base_dir
    if base_tree is None:
        scratch = tempfile.mkdtemp(prefix="bench-ab-")
        base_tree = os.path.join(scratch, "base")
        subprocess.run(
            ["git", "worktree", "add", "--detach", base_tree, args.base],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
    trees = {"base": os.path.abspath(base_tree), "change": ROOT}
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    traced: Dict[str, Dict[str, Any]] = {}
    try:
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed)
                runs[side].append(result)
                print("pair %d %-6s %s" % (pair + 1, side, "  ".join(
                    "%s=%.6g" % (name, metric["value"])
                    for name, metric in result["metrics"].items()
                )), flush=True)
        if args.ledger:
            for side in ("base", "change"):
                traced[side] = run_once(trees[side], args.workload, args.seed, trace=1)
                print("traced %-6s done" % side, flush=True)
    finally:
        if scratch is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", base_tree],
                cwd=ROOT, check=False, stdout=subprocess.DEVNULL,
            )
            os.rmdir(scratch)
    report(declared, args.workload, runs)
    if traced:
        report_ledger(args.workload, traced)
    every = [run for side in runs.values() for run in side] + list(traced.values())
    broken = any(run["exit"] or run["failed"] for run in every)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
