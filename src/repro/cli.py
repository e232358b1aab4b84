"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro.cli trees
    python -m repro.cli recovery --tree V --component rtu --trials 20
    python -m repro.cli table2 --trials 40 --jobs 4
    python -m repro.cli table4 --trials 40 --jobs 4 --cache-dir .repro-cache
    python -m repro.cli optimize --tree II'
    python -m repro.cli availability --days 3 --jobs 2
    python -m repro.cli passes --days 7 --tree I --tree V
    python -m repro.cli chaos --scenario cascade --tree V --trials 1
    python -m repro.cli strategy-compare --strategy microreboot --kind crash
    python -m repro.cli workload --strategy classic --strategy restart --rate 8
    python -m repro.cli detection-ablation --tree V
    python -m repro.cli fleet --size 8 --horizon 120 --wave-interval 60 --shards 2
    python -m repro.cli trace run.jsonl --source rec --limit 20
    python -m repro.cli explain run.jsonl

Every subcommand prints the same paper-layout tables the benches produce;
the CLI is a thin veneer over :mod:`repro.experiments`.  Campaign-style
subcommands (``table2``, ``table4``, ``availability``, ``passes``,
``chaos``, ``strategy-compare``, ``workload``, ``detection-ablation``,
``fleet``) plan their
cells from the runner's ``KINDS`` table and honour ``--jobs N`` to fan
cells across worker processes and ``--cache-dir`` to reuse the
content-addressed result cache — results are bit-identical for any jobs
value.  ``availability`` and ``passes`` are two views of the same cells;
``detection-ablation`` is a view of ``detection`` chaos cells.
``table4`` also prints the paper's Table 4 (``PAPER_TABLE4``, the values
the reproduction suite asserts against) and the analytic model's, and
``optimize`` runs its §7 tree search (:mod:`repro.analysis.model`; no
simulation).
``--profile`` wraps any subcommand in :mod:`cProfile` (most useful with
``--jobs 1``, since workers run in separate processes).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.model import mercury_system_model, optimize_tree
from repro.core.recovery_strategies import strategy_names
from repro.core.render import render_tree
from repro.experiments.recovery import measure_recovery
from repro.experiments.report import format_phase_breakdown, format_table
from repro.experiments.runner import (
    PAPER_TABLE4,
    TABLE4_COLUMNS,
    TABLE4_ROWS,
    plan_cell,
    run_recovery_matrix,
    run_suite,
    table4_cure_set,
)
from repro.chaos.scenarios import SCENARIOS
from repro.experiments.workload import (
    DEFAULT_SESSION_RATE,
    DEFAULT_TREES,
    FAILURE_KINDS,
    format_workload_report,
)
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.trees import TREE_BUILDERS


def _print_violations(rows: Sequence[Tuple[str, Mapping[str, Any]]]) -> None:
    """The invariant verdict of a campaign: ``(cell label, violation)`` rows,
    the first 20 spelled out."""
    if not rows:
        print("invariants: all OK")
        return
    print(f"INVARIANT VIOLATIONS: {len(rows)}")
    for label, violation in rows[:20]:
        print(
            f"  [{label}] {violation['invariant']} "
            f"@{violation['time']:.3f}s {violation['subject']}: "
            f"{violation['detail']}"
        )
    if len(rows) > 20:
        print(f"  ... and {len(rows) - 20} more")


def _write_report(path: str, payload: Mapping[str, Any]) -> None:
    """Write a campaign's per-cell payloads as the ``--report`` JSON file."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"report -> {path}")


def _campaign_tail(
    args: argparse.Namespace,
    suite: Mapping[Tuple[Any, ...], Any],
    label: Callable[[Tuple[Any, ...], str], str],
) -> int:
    """How every invariant-checked campaign ends: verdict, ``--report``
    file, exit code.  ``label(point, "")`` is a cell's report key and
    ``label(point, "tree ")`` its name on a verdict row."""
    violations = [
        (label(point, "tree "), violation)
        for point, result in sorted(suite.items())
        for violation in result.violations
    ]
    _print_violations(violations)
    if getattr(args, "report", None):
        _write_report(
            args.report,
            {label(point, ""): result.to_payload() for point, result in suite.items()},
        )
    return 1 if violations else 0


def _tree_argument(parser: argparse.ArgumentParser, multiple: bool = False) -> None:
    kwargs = dict(choices=sorted(TREE_BUILDERS), default=None)
    if multiple:
        parser.add_argument(
            "--tree", action="append", help="tree label (repeatable)", **kwargs
        )
    else:
        parser.add_argument("--tree", help="tree label", **kwargs)


def _strategy_argument(parser: argparse.ArgumentParser, default: str) -> None:
    """``--strategy``: a registry name, or ``classic`` for the restart-only
    baseline station; :func:`_strategies` turns the names into cell values."""
    parser.add_argument(
        "--strategy", action="append",
        choices=sorted(strategy_names()) + ["classic"],
        default=None,
        help="strategy name, or 'classic' for the restart-only baseline "
        f"(repeatable; default: {default})",
    )


def _strategies(names: Sequence[str]) -> List[str]:
    """``classic`` is spelled ``""`` inside the experiment layer."""
    return ["" if name == "classic" else name for name in names]


def _fault_series_label(point: Tuple[Any, ...], tree: str) -> str:
    """A (strategy, kind, tree) cell's report key / verdict name."""
    return f"{point[0] or 'classic'}/{point[1]}/{tree}{point[2]}"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recursive-restartability reproduction experiments",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for campaign fan-out (0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the content-addressed campaign result cache",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the subcommand under cProfile and print the top 20 "
        "cumulative entries (use with --jobs 1 to see simulation internals)",
    )
    # The same flags are accepted after the subcommand (`repro table2
    # --jobs 4`); SUPPRESS defaults so they only override the root values
    # when explicitly given.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    common.add_argument("--profile", action="store_true", default=argparse.SUPPRESS)
    subparsers = parser.add_subparsers(dest="command", required=True)

    trees = subparsers.add_parser(
        "trees",
        help="render the restart trees I-V and a booted tree-V station's wiring",
        parents=[common],
    )

    recovery = subparsers.add_parser(
        "recovery",
        help="kill-and-measure one component (Table 2/4 cell)",
        parents=[common],
    )
    _tree_argument(recovery)
    recovery.add_argument("--component", required=True)
    recovery.add_argument("--trials", type=_count, default=20)
    recovery.add_argument(
        "--oracle", choices=["perfect", "naive", "faulty", "learning"],
        default="perfect",
    )
    recovery.add_argument("--error-rate", type=_probability, default=0.3)
    recovery.add_argument(
        "--cure", nargs="*", default=None,
        help="minimal cure set (defaults to the component alone)",
    )
    recovery.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="stream every trace event of the run to a JSONL file "
        "(inspect with `repro trace FILE`)",
    )

    table2 = subparsers.add_parser(
        "table2", help="regenerate Table 2", parents=[common]
    )
    table2.add_argument("--trials", type=_count, default=20)

    table4 = subparsers.add_parser(
        "table4",
        help="regenerate the full Table 4 MTTR matrix",
        parents=[common],
    )
    table4.add_argument("--trials", type=_count, default=20)

    optimize = subparsers.add_parser(
        "optimize",
        help="derive a restart tree by the analytic model's greedy search (§7)",
        parents=[common],
    )
    _tree_argument(optimize)

    availability = subparsers.add_parser(
        "availability",
        help="steady-state availability per tree",
        parents=[common],
    )
    availability.add_argument("--days", type=_positive, default=3.0)
    availability.add_argument(
        "--phases", action="store_true",
        help="also print the per-component recovery-phase breakdown "
        "(detection / decision / restart latency) for each tree",
    )
    _tree_argument(availability, multiple=True)

    passes = subparsers.add_parser(
        "passes", help="satellite-pass data-loss campaign (§5.2)", parents=[common]
    )
    passes.add_argument("--days", type=_positive, default=7.0)
    _tree_argument(passes, multiple=True)

    chaos = subparsers.add_parser(
        "chaos",
        help="adversarial chaos campaigns with live invariant checking",
        parents=[common],
    )
    chaos.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS), default=None,
        help="scenario name (repeatable; default: the full catalogue)",
    )
    _tree_argument(chaos, multiple=True)
    chaos.add_argument("--trials", type=_count, default=1)
    chaos.add_argument(
        "--oracle", choices=["perfect", "naive", "faulty", "learning"],
        default="perfect",
    )
    chaos.add_argument("--error-rate", type=_probability, default=0.3)
    chaos.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="stream every trace event to a JSONL file; requires exactly "
        "one scenario and one tree (inspect with `repro trace FILE`)",
    )
    chaos.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full per-cell results as sorted JSON",
    )

    strategy = subparsers.add_parser(
        "strategy-compare",
        help="recovery-strategy matrix: strategy x failure kind x tree",
        parents=[common],
    )
    _strategy_argument(strategy, "the full registry")
    strategy.add_argument(
        "--kind", action="append", choices=sorted(FAILURE_KINDS), default=None,
        help="injected failure kind (repeatable; default: "
        + " ".join(FAILURE_KINDS) + ")",
    )
    _tree_argument(strategy, multiple=True)
    strategy.add_argument("--trials", type=_count, default=3)
    strategy.add_argument(
        "--user-effects", action="store_true",
        help=f"run every cell under user traffic ({DEFAULT_SESSION_RATE:g} "
        "sessions/s) and add the goodput / user-visible-loss columns",
    )
    strategy.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full per-cell results as sorted JSON",
    )

    workload = subparsers.add_parser(
        "workload",
        help="user-traffic cells: goodput and user-visible loss per "
        "strategy x failure kind x tree",
        parents=[common],
    )
    _strategy_argument(workload, "classic restart microreboot")
    workload.add_argument(
        "--kind", action="append", choices=sorted(FAILURE_KINDS), default=None,
        help="injected failure kind (repeatable; default: crash)",
    )
    _tree_argument(workload, multiple=True)
    workload.add_argument(
        "--failures", type=_count, default=3,
        help="faults injected per cell (default: 3)",
    )
    workload.add_argument(
        "--rate", type=_positive, default=DEFAULT_SESSION_RATE,
        metavar="SESSIONS_PER_S",
        help=f"offered session arrival rate, > 0 (default: {DEFAULT_SESSION_RATE:g})",
    )
    workload.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full per-cell results as sorted JSON",
    )

    ablation = subparsers.add_parser(
        "detection-ablation",
        help="detection accuracy vs MTTR: drop rate x timeout policy sweep",
        parents=[common],
    )
    _tree_argument(ablation)
    ablation.add_argument(
        "--drop", action="append", type=_probability, default=None, metavar="RATE",
        help="message drop rate (repeatable; default: 0.0 0.05 0.15)",
    )
    ablation.add_argument(
        "--policy", action="append", choices=["fixed", "adaptive"],
        default=None,
        help="reply-timeout policy (repeatable; default: both)",
    )
    ablation.add_argument(
        "--trials", type=_count, default=1,
        help="trials per cell, three crashes each (default: 1)",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="fleet-scale campaign: MTTR/availability/session loss vs "
        "fleet size under independent and correlated failures",
        parents=[common],
    )
    _tree_argument(fleet)
    fleet.add_argument(
        "--size", action="append", type=_count, default=None, metavar="N",
        help="fleet size (repeatable; default: 16 64)",
    )
    fleet.add_argument(
        "--horizon", type=_positive, default=600.0, metavar="SECONDS",
        help="measured window per fleet (default: 600)",
    )
    fleet.add_argument(
        "--wave-interval", action="append", type=_non_negative, default=None,
        metavar="SECONDS",
        help="mean seconds between correlated ground-segment fault waves "
        "(repeatable; 0 = independent failures only; default: 0 150)",
    )
    fleet.add_argument(
        "--wave-drop", type=_probability, default=0.2, metavar="P",
        help="wave-coupled uplink drop probability (default: 0.2)",
    )
    fleet.add_argument(
        "--shards", type=_count, default=1, metavar="N",
        help="kernel shards per fleet (default: 1); with N > 1, --jobs fans "
        "each fleet's shards over worker processes instead of fanning the "
        "cells (results are bit-identical for any layout)",
    )
    fleet.add_argument(
        "--request-rate", type=_non_negative, default=0.0, metavar="SESSIONS_PER_S",
        help="per-station user-session arrival rate; 0 disables the "
        "workload plane (default: 0)",
    )
    fleet.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full per-cell results as sorted JSON",
    )

    trace = subparsers.add_parser(
        "trace",
        help="dump/filter a JSONL event trace (see `recovery --trace-out`)",
        parents=[common],
    )
    trace.add_argument("path", help="JSONL trace file written by a JsonlSink")
    trace.add_argument(
        "--kind", action="append", default=None,
        help="keep only this event kind (repeatable)",
    )
    trace.add_argument(
        "--source", action="append", default=None,
        help="keep only this emitting source (repeatable)",
    )
    trace.add_argument(
        "--since", type=float, default=None,
        help="keep only events at or after this simulated time (s)",
    )
    trace.add_argument(
        "--until", type=float, default=None,
        help="keep only events at or before this simulated time (s)",
    )
    trace.add_argument(
        "--limit", type=_count, default=None,
        help="print at most the first N matching events",
    )

    explain = subparsers.add_parser(
        "explain",
        help="replay a JSONL event trace into recovery episodes, each with "
        "its phase latencies and narrative",
        parents=[common],
    )
    explain.add_argument("path", help="JSONL trace file written by --trace-out")

    return parser


def cmd_trees(args: argparse.Namespace) -> int:
    from repro.mercury.architecture import render_architecture
    from repro.mercury.station import MercuryStation

    for label in ("I", "II", "II'", "III", "IV", "V"):
        print(render_tree(TREE_BUILDERS[label]()))
        print()
    # Figure 1 as wired: a booted tree-V station, introspected.
    station = MercuryStation(tree=TREE_BUILDERS["V"](), seed=args.seed)
    station.boot()
    station.run_for(5.0)
    print(render_architecture(station))
    return 0


def cmd_recovery(args: argparse.Namespace) -> int:
    label = args.tree or "V"
    tree = TREE_BUILDERS[label]()
    if args.component not in tree.components:
        print(
            f"error: component {args.component!r} not in tree {label} "
            f"(has {sorted(tree.components)})",
            file=sys.stderr,
        )
        return 2
    if args.cure is not None:
        unknown = sorted(set(args.cure) - set(tree.components))
        if unknown:
            print(f"error: --cure names {unknown}, not in tree {label}", file=sys.stderr)
            return 2
        if args.component not in args.cure:
            print(
                f"error: --cure {sorted(args.cure)} must include the component "
                f"{args.component!r}",
                file=sys.stderr,
            )
            return 2
    sinks = []
    if args.trace_out:
        from repro.obs.sinks import JsonlSink

        sinks.append(JsonlSink(args.trace_out))
    result = measure_recovery(
        tree,
        args.component,
        trials=args.trials,
        seed=args.seed,
        oracle=args.oracle,
        oracle_error_rate=args.error_rate,
        cure_set=args.cure,
        sinks=sinks,
    )
    stats = result.stats
    print(
        f"tree {label}, {result.oracle} oracle, {args.component} "
        f"(cure set {sorted(result.cure_set)}): "
        f"mean {stats.mean:.2f}s  std {stats.std:.2f}s  "
        f"min {stats.minimum:.2f}s  max {stats.maximum:.2f}s  n={stats.n}"
    )
    if result.phases:
        print()
        print(format_phase_breakdown(result.phases))
    for sink in sinks:
        sink.close()
        print(f"trace: {sink.written} events -> {args.trace_out}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    components = ["mbus", "ses", "str", "rtu", "fedrcom"]
    matrix = run_recovery_matrix(
        [("I", "perfect"), ("II", "perfect")],
        components,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    rows = [
        [label] + [matrix[(label, "perfect", name)].mean for name in components]
        for label in ("I", "II")
    ]
    print(format_table(["tree"] + components, rows, title="Table 2 (measured)"))
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    error_rate = 0.3  # the faulty oracle's; perfect rows make no mistakes
    matrix = run_recovery_matrix(
        TABLE4_ROWS,
        TABLE4_COLUMNS,
        trials=args.trials,
        seed=args.seed,
        oracle_error_rate=error_rate,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cure_set_for=table4_cure_set,
    )

    def measured(label: str, oracle: str, component: str) -> Optional[float]:
        result = matrix.get((label, oracle, component))
        return result.mean if result is not None else None

    def analytic(label: str, oracle: str, component: str) -> Optional[float]:
        tree = TREE_BUILDERS[label]()
        if component not in tree.components:
            return None
        p = error_rate if oracle == "faulty" else 0.0
        cure = table4_cure_set(label, oracle, component) or (component,)
        return mercury_system_model(tree, oracle_error_rate=p).expected_recovery(
            tree, component, cure
        )

    def paper(label: str, oracle: str, component: str) -> Optional[float]:
        return PAPER_TABLE4[(label, oracle)].get(component)

    blocks = (("paper", paper), ("measured", measured), ("analytic", analytic))
    for index, (title, cell) in enumerate(blocks):
        rows = [
            [f"{label}/{oracle}"]
            + [cell(label, oracle, component) for component in TABLE4_COLUMNS]
            for label, oracle in TABLE4_ROWS
        ]
        if index:
            print()
        print(
            format_table(
                ["tree/oracle"] + TABLE4_COLUMNS, rows, title=f"Table 4 ({title})"
            )
        )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    label = args.tree or "II'"
    tree = TREE_BUILDERS[label]()
    result = optimize_tree(mercury_system_model(tree), tree)
    rows = [[f"(start: tree {label})", f"{result.initial_downtime_rate * 1e3:.3f}"]]
    rows += [
        [step.description, f"{step.downtime_rate * 1e3:.3f}"] for step in result.steps
    ]
    print(
        format_table(
            ["accepted move", "downtime rate (ms/s)"],
            rows,
            title=f"Greedy tree search from tree {label} (analytic model, §7)",
        )
    )
    print()
    print(render_tree(result.tree))
    return 0


def _steady_state_cells(args: argparse.Namespace) -> Tuple[List[str], Mapping]:
    """One availability cell per ``--tree``: ``availability`` and ``passes``
    print two views of the same cells and share their cache entries."""
    labels = args.tree or ["I", "V"]
    suite = run_suite(
        "availability",
        {"tree": labels},
        horizon_s=args.days * 86400.0,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    return labels, suite


def cmd_availability(args: argparse.Namespace) -> int:
    labels, suite = _steady_state_cells(args)
    rows = []
    for label in labels:
        result = suite[(label,)]
        rows.append(
            [
                label,
                f"{result.availability:.5f}",
                result.outages,
                f"{result.mean_outage_s:.1f}" if result.mean_outage_s else "—",
            ]
        )
    print(
        format_table(
            ["tree", "availability", "outages", "mean outage (s)"],
            rows,
            title=f"Availability over {args.days:g} days",
        )
    )
    if getattr(args, "phases", False):
        for label in labels:
            result = suite[(label,)]
            if not result.phase_breakdown:
                continue
            print()
            print(
                format_phase_breakdown(
                    result.phase_breakdown,
                    title=f"Tree {label}: per-phase recovery breakdown",
                )
            )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    scenarios = args.scenario or sorted(SCENARIOS)
    labels = args.tree or list(TREE_BUILDERS)
    if args.trace_out:
        if len(scenarios) != 1 or len(labels) != 1:
            print(
                "error: --trace-out needs exactly one --scenario and one "
                "--tree (the trace is a single station's event stream)",
                file=sys.stderr,
            )
            return 2
        from repro.chaos.engine import run_chaos
        from repro.obs.sinks import JsonlSink

        scenario, label = scenarios[0], labels[0]
        sink = JsonlSink(args.trace_out)
        # The campaign path's own cell seed, so a traced rerun reproduces
        # a cached campaign cell bit for bit.
        result = run_chaos(
            TREE_BUILDERS[label](),
            scenario,
            trials=args.trials,
            seed=plan_cell("chaos", args.seed, scenario=scenario, tree=label).seed,
            oracle=args.oracle,
            oracle_error_rate=args.error_rate,
            sinks=[sink],
        )
        print(f"trace: {sink.written} events -> {args.trace_out}")
        suite = {(scenario, label): result}
    else:
        suite = run_suite(
            "chaos",
            {"scenario": scenarios, "tree": labels},
            trials=args.trials,
            seed=args.seed,
            oracle=args.oracle,
            oracle_error_rate=args.error_rate,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )

    def mean_mttr(scenario: str, label: str) -> Optional[float]:
        result = suite[(scenario, label)]
        return result.stats.mean if result.mttr_samples else None

    rows: List[List[object]] = []
    for scenario in scenarios:
        rows.append([scenario] + [mean_mttr(scenario, label) for label in labels])
    print(
        format_table(
            ["scenario"] + [f"tree {label}" for label in labels],
            rows,
            title=f"Chaos campaigns: mean MTTR (s), {args.trials} trial(s)/cell",
        )
    )
    if "I" in labels and len(labels) > 1:
        ratio_rows: List[List[object]] = []
        for scenario in scenarios:
            base = mean_mttr(scenario, "I")
            row: List[object] = [scenario]
            for label in labels:
                value = mean_mttr(scenario, label)
                row.append(
                    f"{base / value:.2f}x" if base and value else None
                )
            ratio_rows.append(row)
        print()
        print(
            format_table(
                ["scenario"] + [f"tree {label}" for label in labels],
                ratio_rows,
                title="Recovery speed-up vs tree I (higher is better)",
            )
        )
    print()
    for scenario in scenarios:
        injected = sum(suite[(scenario, label)].injected for label in labels)
        skipped = sum(suite[(scenario, label)].skipped for label in labels)
        episodes = sum(suite[(scenario, label)].episodes for label in labels)
        escalations = sum(suite[(scenario, label)].escalations for label in labels)
        interventions = sum(
            suite[(scenario, label)].operator_interventions for label in labels
        )
        print(
            f"{scenario}: {injected} injected ({skipped} skipped), "
            f"{episodes} episodes, {escalations} escalations, "
            f"{interventions} operator interventions"
        )

    print()
    return _campaign_tail(args, suite, lambda point, tree: f"{point[0]}/{tree}{point[1]}")


def cmd_strategy_compare(args: argparse.Namespace) -> int:
    strategies = _strategies(args.strategy or sorted(strategy_names()))
    kinds = args.kind or list(FAILURE_KINDS)
    labels = args.tree or list(DEFAULT_TREES)
    # One suite: MTTR, ledger and user-effects columns come from the same
    # cells, at zero traffic unless --user-effects asks for it.
    suite = run_suite(
        "workload",
        {"strategy": strategies, "failure_kind": kinds, "tree": labels},
        trials=args.trials,
        seed=args.seed,
        request_rate=DEFAULT_SESSION_RATE if args.user_effects else 0.0,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )

    for label in labels:
        rows: List[List[object]] = []
        for strategy in strategies:
            for kind in kinds:
                cell = suite[(strategy, kind, label)]
                stats = cell.stats
                row: List[object] = [
                    strategy or "classic",
                    kind,
                    f"{stats.mean:.3f}",
                    f"{stats.maximum:.3f}",
                    cell.sessions_lost,
                    cell.sessions_restored,
                    cell.checkpoints_restored,
                    cell.messages_replayed,
                    len(cell.violations),
                ]
                if args.user_effects:
                    effects = cell.user_effects
                    row += [
                        f"{effects.goodput_rps:.1f}",
                        effects.lost_requests,
                        f"{100 * effects.session_loss_ratio:.2f}%",
                    ]
                rows.append(row)
        headers = [
            "strategy", "kind", "mean MTTR (s)", "max (s)",
            "ses lost", "restored", "ckpt", "replayed", "viol",
        ]
        if args.user_effects:
            headers += ["goodput", "req lost", "user loss"]
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"Recovery strategies, tree {label}, "
                    f"{args.trials} trial(s)/cell"
                ),
            )
        )
        print()

    return _campaign_tail(args, suite, _fault_series_label)


def cmd_workload(args: argparse.Namespace) -> int:
    strategies = _strategies(args.strategy or ["classic", "restart", "microreboot"])
    kinds = args.kind or ["crash"]
    labels = args.tree or list(DEFAULT_TREES)
    suite = run_suite(
        "workload",
        {"strategy": strategies, "failure_kind": kinds, "tree": labels},
        trials=args.failures,
        seed=args.seed,
        request_rate=args.rate,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    print(
        f"User-traffic cells: {args.rate:g} sessions/s, "
        f"{args.failures} fault(s)/cell\n"
    )
    print(format_workload_report(suite))

    print()
    return _campaign_tail(args, suite, _fault_series_label)


def cmd_detection_ablation(args: argparse.Namespace) -> int:
    label = args.tree or "V"
    drops = args.drop or [0.0, 0.05, 0.15]
    policies = args.policy or ["fixed", "adaptive"]
    # The policy is a station setting, so each is its own suite; a policy's
    # cells share their seed with the other's, drop for drop.
    cells = {}
    for policy in policies:
        suite = run_suite(
            "chaos",
            {"drop": drops},
            scenario="detection",
            tree=label,
            trials=args.trials,
            seed=args.seed,
            config=PAPER_CONFIG.with_overrides(timeout_policy=policy),
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        for (drop,), cell in suite.items():
            cells[(drop, policy)] = cell
    rows: List[List[object]] = []
    for drop in drops:
        for policy in policies:
            cell = cells[(drop, policy)]
            detection = cell.phase("detection")
            rows.append(
                [
                    f"{drop:.2f}",
                    policy,
                    cell.false_positives,
                    cell.retractions,
                    detection.n,
                    f"{detection.mean:.3f}" if detection.n else "—",
                    f"{detection.maximum:.3f}" if detection.n else "—",
                    f"{cell.stats.mean:.3f}" if cell.mttr_samples else "—",
                    cell.escalations,
                    cell.operator_interventions,
                ]
            )
    print(
        format_table(
            [
                "drop", "policy", "FP", "retracted", "detected",
                "mean det (s)", "max det (s)", "mean MTTR (s)", "escal", "operator",
            ],
            rows,
            title=(
                f"Detection accuracy vs MTTR, tree {label}, "
                f"{args.trials} trial(s)/cell, 3 crashes each"
            ),
        )
    )
    print()
    return _campaign_tail(
        args, cells, lambda point, tree: f"{point[1]}/{tree}{label}/drop {point[0]:g}"
    )


def _read_trace_file(path: str, consume: Callable[[Iterator[Any]], None]) -> int:
    """Hand ``path``'s records (:func:`repro.sim.trace.read_trace`) to
    ``consume``; exit status 2 for a file that cannot be read or is not a
    trace, 0 otherwise."""
    from repro.sim.trace import read_trace

    try:
        consume(read_trace(path))
    except OSError as error:
        print(f"error: cannot read trace {path!r}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: malformed trace {path!r}: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    def show(records: Iterator[Any]) -> None:
        shown = 0
        for record in records:
            if args.kind and record.kind not in args.kind:
                continue
            if args.source and record.source not in args.source:
                continue
            if args.since is not None and record.time < args.since:
                continue
            if args.until is not None and record.time > args.until:
                continue
            print(record.format())
            shown += 1
            if args.limit is not None and shown >= args.limit:
                break

    return _read_trace_file(args.path, show)


def _subjects(data: Mapping[str, Any]) -> set:
    """The components and cells a record's payload names."""
    names = {data.get(key) for key in ("component", "name", "target", "cell")}
    names.update(data.get("components", ()))
    return names


def cmd_explain(args: argparse.Namespace) -> int:
    from bisect import bisect_left, bisect_right

    from repro.obs import events as ev
    from repro.obs.spans import PHASES, EpisodeTracker

    records: List[Any] = []
    code = _read_trace_file(args.path, records.extend)
    if code:
        return code
    tracker = EpisodeTracker()
    ends: List[float] = []  # ends[i]: when tracker.episodes[i] completed
    for record in records:
        tracker.accept(record)
        ends += [record.time] * (len(tracker.episodes) - len(ends))
    last = records[-1].time if records else 0.0
    tracker.flush()
    ends += [last] * (len(tracker.episodes) - len(ends))
    still_open = tracker.open_episodes()
    print(f"{args.path}: {len(records)} records, {len(ends) + len(still_open)} episodes ({len(still_open)} open)")
    times = [record.time for record in records]
    for episode, end in [*zip(tracker.episodes, ends), *((e, None) for e in still_open)]:
        watchdog = episode.kind == "watchdog"
        what = "watchdog" if watchdog else f"failure {episode.failure_id} ({episode.failure_kind})"
        print(f"\n{episode.component}: {what}, cells {', '.join(episode.cells) or '-'}, "
              f"restarts {episode.restarts}, detected via {episode.detected_via or '-'}")
        latencies = (episode.detection_latency, episode.decision_latency,
                     episode.restart_duration, episode.total_recovery)
        print("  " + "  ".join(f"{phase} " + ("-" if value is None else f"{value:.3f}s")
                               for phase, value in zip(PHASES, latencies)))
        start = episode.decided_at if watchdog else episode.injected_at
        # The window closes at the recovery end or the episode's close, not
        # at whichever later record happened to finalize it.
        bounds = [t for t in (episode.recovery_end, episode.closed_at) if t is not None]
        stop = max(bounds) if bounds else last if end is None else end
        names = {episode.component, *episode.cure_set, *episode.cells}
        for record in records[bisect_left(times, start):bisect_right(times, stop)]:
            phrase = ev.REGISTRY.narrative_for(record.kind, record.data)
            if phrase is not None and names & _subjects(record.data):
                print(f"  t=+{record.time - start:8.3f}s  {phrase}")
        if end is None:
            print("  open at end of trace")
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    labels, suite = _steady_state_cells(args)
    rows = []
    for label in labels:
        result = suite[(label,)]
        rows.append(
            [
                label,
                result.passes,
                f"{100 * result.pass_loss_fraction:.2f}%",
                result.broken_links,
                result.whole_passes_lost,
            ]
        )
    print(
        format_table(
            ["tree", "passes", "data lost", "links broken", "whole passes lost"],
            rows,
            title=f"Pass campaign over {args.days:g} days (§5.2)",
        )
    )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    sizes = args.size or [16, 64]
    intervals = args.wave_interval if args.wave_interval is not None else [0.0, 150.0]
    suite = run_suite(
        "fleet",
        {"fleet_size": sizes, "wave_interval_s": intervals},
        tree=args.tree or "V",
        horizon_s=args.horizon,
        seed=args.seed,
        wave_drop=args.wave_drop,
        request_rate=args.request_rate,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        shards=args.shards,
    )
    with_effects = args.request_rate > 0
    rows = []
    for size in sizes:
        for interval in intervals:
            result = suite[(size, interval)]
            regime = "independent" if interval == 0 else f"wave/{interval:g}s"
            row = [
                size,
                regime,
                f"{result.availability:.5f}",
                f"{result.mean_mttr:.2f}" if result.mean_mttr else "—",
                result.outages,
                result.sessions_lost,
                result.ground.get("waves", 0),
                "yes" if result.ok else "NO",
            ]
            if with_effects:
                from repro.workload.effects import UserEffects

                payload = result.user_effects
                if payload is None:
                    row += ["—", "—", "—"]
                else:
                    effects = UserEffects.from_payload(payload)
                    row += [
                        f"{effects.goodput_rps:.1f}",
                        effects.lost_requests,
                        f"{100 * effects.session_loss_ratio:.2f}%",
                    ]
            rows.append(row)
    headers = [
        "stations", "failures", "availability", "MTTR (s)",
        "outages", "sessions lost", "waves", "invariants",
    ]
    if with_effects:
        headers += ["goodput", "req lost", "user loss"]
    print(
        format_table(
            headers,
            rows,
            title=f"Fleet campaign, tree {args.tree or 'V'}, "
            f"{args.horizon:g}s horizon",
        )
    )
    print()
    return _campaign_tail(args, suite, lambda point, tree: f"{point[0]}:{point[1]:g}")


COMMANDS = {
    "trees": cmd_trees,
    "recovery": cmd_recovery,
    "table2": cmd_table2,
    "table4": cmd_table4,
    "optimize": cmd_optimize,
    "availability": cmd_availability,
    "passes": cmd_passes,
    "chaos": cmd_chaos,
    "strategy-compare": cmd_strategy_compare,
    "workload": cmd_workload,
    "detection-ablation": cmd_detection_ablation,
    "fleet": cmd_fleet,
    "trace": cmd_trace,
    "explain": cmd_explain,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        print(
            f"error: --cache-dir {cache_dir!r} exists and is not a directory",
            file=sys.stderr,
        )
        return 2
    command = COMMANDS[args.command]
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        code = profiler.runcall(command, args)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
        return code
    return command(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
