"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro.cli trees
    python -m repro.cli recovery --tree V --component rtu --trials 20
    python -m repro.cli table2 --trials 40 --jobs 4
    python -m repro.cli table4 --trials 40 --jobs 4 --cache-dir .repro-cache
    python -m repro.cli availability --days 3 --jobs 2
    python -m repro.cli passes --days 7 --tree I --tree V
    python -m repro.cli chaos --scenario cascade --tree V --trials 1
    python -m repro.cli strategy-compare --strategy microreboot --kind crash
    python -m repro.cli workload --strategy classic --strategy restart --rate 8
    python -m repro.cli detection-ablation --tree V
    python -m repro.cli fleet --size 8 --horizon 120 --wave-interval 60 --shards 2
    python -m repro.cli trace run.jsonl --source rec --limit 20

Every subcommand prints the same paper-layout tables the benches produce;
the CLI is a thin veneer over :mod:`repro.experiments`.  Campaign-style
subcommands (``table2``, ``table4``, ``availability``, ``chaos``,
``strategy-compare``, ``workload``, ``fleet``) plan their cells from the
runner's ``KINDS`` table and honour ``--jobs N`` to fan cells across
worker processes and ``--cache-dir`` to reuse the content-addressed
result cache — results are bit-identical for any jobs value.  ``--profile`` wraps any subcommand in :mod:`cProfile` (most useful
with ``--jobs 1``, since workers run in separate processes).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.core.recovery_strategies import strategy_names
from repro.core.render import render_tree
from repro.experiments.passes_experiment import run_pass_campaign
from repro.experiments.recovery import measure_recovery
from repro.experiments.report import format_phase_breakdown, format_table
from repro.experiments.runner import (
    TABLE4_COLUMNS,
    TABLE4_ROWS,
    plan_cell,
    run_recovery_matrix,
    run_suite,
    table4_cure_set,
)
from repro.chaos.scenarios import SCENARIOS
from repro.experiments.strategy_compare import FAILURE_KINDS
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
    if args.report:
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
        "trees", help="render the restart trees I-V", parents=[common]
    )

    recovery = subparsers.add_parser(
        "recovery",
        help="kill-and-measure one component (Table 2/4 cell)",
        parents=[common],
    )
    _tree_argument(recovery)
    recovery.add_argument("--component", required=True)
    recovery.add_argument("--trials", type=int, default=20)
    recovery.add_argument(
        "--oracle", choices=["perfect", "naive", "faulty", "learning"],
        default="perfect",
    )
    recovery.add_argument("--error-rate", type=float, default=0.3)
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
    table2.add_argument("--trials", type=int, default=20)

    table4 = subparsers.add_parser(
        "table4",
        help="regenerate the full Table 4 MTTR matrix",
        parents=[common],
    )
    table4.add_argument("--trials", type=int, default=20)

    availability = subparsers.add_parser(
        "availability",
        help="steady-state availability per tree",
        parents=[common],
    )
    availability.add_argument("--days", type=float, default=3.0)
    availability.add_argument(
        "--phases", action="store_true",
        help="also print the per-component recovery-phase breakdown "
        "(detection / decision / restart latency) for each tree",
    )
    _tree_argument(availability, multiple=True)

    passes = subparsers.add_parser(
        "passes", help="satellite-pass data-loss campaign (§5.2)", parents=[common]
    )
    passes.add_argument("--days", type=float, default=7.0)
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
    chaos.add_argument("--trials", type=int, default=1)
    chaos.add_argument(
        "--oracle", choices=["perfect", "naive", "faulty", "learning"],
        default="perfect",
    )
    chaos.add_argument("--error-rate", type=float, default=0.3)
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
    strategy.add_argument(
        "--strategy", action="append", choices=sorted(strategy_names()),
        default=None,
        help="strategy name (repeatable; default: the full registry)",
    )
    strategy.add_argument(
        "--kind", action="append", choices=sorted(FAILURE_KINDS), default=None,
        help="injected failure kind (repeatable; default: "
        + " ".join(FAILURE_KINDS) + ")",
    )
    _tree_argument(strategy, multiple=True)
    strategy.add_argument("--trials", type=int, default=3)
    strategy.add_argument(
        "--user-effects", action="store_true",
        help="also run a user-traffic workload cell per matrix cell and "
        "join the goodput / user-visible-loss columns into the table",
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
    workload.add_argument(
        "--strategy", action="append",
        choices=sorted(strategy_names()) + ["classic"],
        default=None,
        help="strategy name, or 'classic' for the restart-only baseline "
        "(repeatable; default: classic restart microreboot)",
    )
    workload.add_argument(
        "--kind", action="append", choices=sorted(FAILURE_KINDS), default=None,
        help="injected failure kind (repeatable; default: crash)",
    )
    _tree_argument(workload, multiple=True)
    workload.add_argument(
        "--failures", type=int, default=3,
        help="faults injected per cell (default: 3)",
    )
    workload.add_argument(
        "--rate", type=float, default=None, metavar="SESSIONS_PER_S",
        help="offered session arrival rate (default: 40)",
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
        "--drop", action="append", type=float, default=None, metavar="RATE",
        help="message drop rate (repeatable; default: 0.0 0.05 0.15)",
    )
    ablation.add_argument(
        "--policy", action="append", choices=["fixed", "adaptive"],
        default=None,
        help="reply-timeout policy (repeatable; default: both)",
    )
    ablation.add_argument(
        "--failures", type=int, default=3,
        help="crashes injected per cell under loss (default: 3)",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="fleet-scale campaign: MTTR/availability/session loss vs "
        "fleet size under independent and correlated failures",
        parents=[common],
    )
    _tree_argument(fleet)
    fleet.add_argument(
        "--size", action="append", type=int, default=None, metavar="N",
        help="fleet size (repeatable; default: 16 64)",
    )
    fleet.add_argument(
        "--horizon", type=float, default=600.0, metavar="SECONDS",
        help="measured window per fleet (default: 600)",
    )
    fleet.add_argument(
        "--wave-interval", action="append", type=float, default=None,
        metavar="SECONDS",
        help="mean seconds between correlated ground-segment fault waves "
        "(repeatable; 0 = independent failures only; default: 0 150)",
    )
    fleet.add_argument(
        "--wave-drop", type=float, default=0.2, metavar="P",
        help="wave-coupled uplink drop probability (default: 0.2)",
    )
    fleet.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="kernel shards per fleet (default: REPRO_FLEET_SHARDS or 1; "
        "results are bit-identical for any value)",
    )
    fleet.add_argument(
        "--request-rate", type=float, default=0.0, metavar="SESSIONS_PER_S",
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
        "--limit", type=int, default=None,
        help="print at most the first N matching events",
    )

    return parser


def cmd_trees(args: argparse.Namespace) -> int:
    for label in ("I", "II", "II'", "III", "IV", "V"):
        print(render_tree(TREE_BUILDERS[label]()))
        print()
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
    matrix = run_recovery_matrix(
        TABLE4_ROWS,
        TABLE4_COLUMNS,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cure_set_for=table4_cure_set,
    )
    rows = []
    for label, oracle in TABLE4_ROWS:
        row: List[object] = [f"{label}/{oracle}"]
        for component in TABLE4_COLUMNS:
            result = matrix.get((label, oracle, component))
            row.append(result.mean if result is not None else None)
        rows.append(row)
    print(
        format_table(
            ["tree/oracle"] + TABLE4_COLUMNS, rows, title="Table 4 (measured)"
        )
    )
    return 0


def cmd_availability(args: argparse.Namespace) -> int:
    labels = args.tree or ["I", "V"]
    suite = run_suite(
        "availability",
        {"tree": labels},
        horizon_s=args.days * 86400.0,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
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
    labels = args.tree or ["I", "II", "III", "IV", "V"]
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
    from repro.experiments.strategy_compare import DEFAULT_TREES

    strategies = args.strategy or sorted(strategy_names())
    kinds = args.kind or list(FAILURE_KINDS)
    labels = args.tree or list(DEFAULT_TREES)
    axes = {"strategy": strategies, "failure_kind": kinds, "tree": labels}
    campaign = dict(
        trials=args.trials, seed=args.seed, jobs=args.jobs, cache_dir=args.cache_dir
    )
    suite = run_suite("strategy", axes, **campaign)
    effects_suite = None
    if getattr(args, "user_effects", False):
        from repro.experiments.workload import DEFAULT_SESSION_RATE

        effects_suite = run_suite(
            "workload", axes, request_rate=DEFAULT_SESSION_RATE, **campaign
        )

    for label in labels:
        rows: List[List[object]] = []
        for strategy in strategies:
            for kind in kinds:
                cell = suite[(strategy, kind, label)]
                stats = cell.stats
                row: List[object] = [
                    strategy,
                    kind,
                    f"{stats.mean:.3f}",
                    f"{stats.maximum:.3f}",
                    cell.sessions_lost,
                    cell.sessions_restored,
                    cell.checkpoints_restored,
                    cell.messages_replayed,
                    len(cell.violations),
                ]
                if effects_suite is not None:
                    effects = effects_suite[(strategy, kind, label)].user_effects
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
        if effects_suite is not None:
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

    return _campaign_tail(
        args, suite, lambda point, tree: f"{point[0]}/{point[1]}/{tree}{point[2]}"
    )


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.experiments.workload import (
        DEFAULT_SESSION_RATE,
        DEFAULT_TREES,
        format_workload_report,
    )

    # "classic" is the restart-only baseline station (no session store),
    # spelled "" inside the experiment layer.
    raw = args.strategy or ["classic", "restart", "microreboot"]
    strategies = ["" if name == "classic" else name for name in raw]
    kinds = args.kind or ["crash"]
    labels = args.tree or list(DEFAULT_TREES)
    rate = args.rate if args.rate is not None else DEFAULT_SESSION_RATE
    suite = run_suite(
        "workload",
        {"strategy": strategies, "failure_kind": kinds, "tree": labels},
        trials=args.failures,
        seed=args.seed,
        request_rate=rate,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    print(
        f"User-traffic cells: {rate:g} sessions/s, "
        f"{args.failures} fault(s)/cell\n"
    )
    print(format_workload_report(suite))

    print()
    return _campaign_tail(
        args,
        suite,
        lambda point, tree: f"{point[0] or 'classic'}/{point[1]}/{tree}{point[2]}",
    )


def cmd_detection_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.detection_ablation import run_detection_ablation

    label = args.tree or "V"
    drop_rates = tuple(args.drop) if args.drop else (0.0, 0.05, 0.15)
    policies = tuple(args.policy) if args.policy else ("fixed", "adaptive")
    results = run_detection_ablation(
        TREE_BUILDERS[label](),
        drop_rates=drop_rates,
        policies=policies,
        failures=args.failures,
        seed=args.seed,
    )
    rows: List[List[object]] = []
    for drop in drop_rates:
        for policy in policies:
            cell = results[(drop, policy)]
            rows.append(
                [
                    f"{drop:.2f}",
                    policy,
                    cell.false_positives,
                    cell.retractions,
                    cell.detections,
                    f"{cell.mean_detection_latency:.3f}"
                    if cell.detections else "—",
                    cell.late_detections,
                    f"{cell.mttr.mean:.3f}" if cell.mttr_samples else "—",
                    cell.escalations,
                    cell.operator_interventions,
                ]
            )
    print(
        format_table(
            [
                "drop", "policy", "FP", "retracted", "detected",
                "mean det (s)", "late", "mean MTTR (s)", "escal", "operator",
            ],
            rows,
            title=(
                f"Detection accuracy vs MTTR, tree {label}, "
                f"{args.failures} failure(s)/cell"
            ),
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.sinks import read_jsonl

    try:
        records = read_jsonl(args.path)
        shown = 0
        for record in records:
            if args.kind and record.get("kind") not in args.kind:
                continue
            if args.source and record.get("source") not in args.source:
                continue
            time = float(record.get("t", 0.0))
            if args.since is not None and time < args.since:
                continue
            if args.until is not None and time > args.until:
                continue
            payload = " ".join(
                f"{k}={v!r}" for k, v in sorted(record.get("data", {}).items())
            )
            severity = record.get("severity", "info")
            line = (
                f"[{time:12.6f}] {severity:7} {record.get('source', ''):18} "
                f"{record.get('kind', '')} {payload}"
            )
            print(line.rstrip())
            shown += 1
            if args.limit is not None and shown >= args.limit:
                break
    except OSError as error:
        print(f"error: cannot read trace {args.path!r}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: malformed trace {args.path!r}: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    labels = args.tree or ["I", "V"]
    rows = []
    for label in labels:
        result = run_pass_campaign(
            TREE_BUILDERS[label](), days=args.days, seed=args.seed
        )
        summary = result.summary
        rows.append(
            [
                label,
                summary.passes,
                f"{100 * summary.loss_fraction:.2f}%",
                summary.broken_links,
                summary.whole_passes_lost,
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
    # Sharding is an execution knob (bit-identical results), threaded
    # through the environment so it can never enter a cell spec — and put
    # back afterwards, so a later ``main()`` in this process does not
    # inherit this call's layout.
    prior = os.environ.get("REPRO_FLEET_SHARDS")
    if args.shards is not None:
        os.environ["REPRO_FLEET_SHARDS"] = str(args.shards)
    try:
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
        )
    finally:
        if prior is not None:
            os.environ["REPRO_FLEET_SHARDS"] = prior
        elif args.shards is not None:
            del os.environ["REPRO_FLEET_SHARDS"]
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
    "availability": cmd_availability,
    "passes": cmd_passes,
    "chaos": cmd_chaos,
    "strategy-compare": cmd_strategy_compare,
    "workload": cmd_workload,
    "detection-ablation": cmd_detection_ablation,
    "fleet": cmd_fleet,
    "trace": cmd_trace,
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
