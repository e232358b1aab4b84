"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import PAPER_TABLE4, TABLE4_COLUMNS
from repro.mercury.trees import TREE_BUILDERS


def test_trees_renders_all(capsys):
    assert main(["trees"]) == 0
    out = capsys.readouterr().out
    for label in ("tree-I", "tree-II", "tree-III", "tree-IV", "tree-V"):
        assert label in out
    assert "R_fedr_pbcom" in out


def test_trees_renders_the_live_architecture(capsys):
    assert main(["trees"]) == 0
    out = capsys.readouterr().out
    live = out.split("Live connections:", 1)[1]
    assert "fedr <-TCP-> pbcom" in live
    assert "fd <-TCP-> rec" in live


def test_recovery_command(capsys):
    assert main(["recovery", "--component", "rtu", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "tree V" in out
    assert "rtu" in out
    assert "mean" in out
    assert "n=3" in out


def test_recovery_with_tree_and_oracle(capsys):
    code = main([
        "recovery", "--tree", "IV", "--component", "pbcom", "--trials", "2",
        "--oracle", "faulty", "--error-rate", "1.0",
        "--cure", "fedr", "pbcom",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "faulty" in out
    assert "['fedr', 'pbcom']" in out


def test_recovery_unknown_component_errors(capsys):
    assert main(["recovery", "--tree", "V", "--component", "fedrcom"]) == 2
    assert "not in tree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cure, message",
    [
        (["ghost"], "error: --cure names ['ghost'], not in tree V"),
        (["rtu", "ghost"], "error: --cure names ['ghost'], not in tree V"),
        (["ses"], "error: --cure ['ses'] must include the component 'rtu'"),
    ],
    ids=["unknown", "unknown-beside-component", "without-component"],
)
def test_recovery_rejects_a_cure_set_outside_the_tree_or_the_component(
    cure, message, monkeypatch, capsys
):
    """A cure set naming a component the tree lacks died in a traceback, or
    ran 300 simulated seconds first; one without ``--component`` died in a
    traceback.  Both are usage errors, caught before any run."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "measure_recovery", None)
    assert main(["recovery", "--tree", "V", "--component", "rtu", "--cure", *cure]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv",
    [["recovery", "--component", "rtu", "--oracle", "faulty"], ["chaos"]],
    ids=["recovery", "chaos"],
)
@pytest.mark.parametrize("rate", ["1.7", "-0.5", "nan"])
def test_error_rate_outside_the_unit_interval_rejected(argv, rate, capsys):
    """An error rate outside [0, 1] ended in a ``ValueError`` traceback from
    the oracle."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--error-rate", rate])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"repro {argv[0]}: error: argument --error-rate: must be in [0, 1], got {rate}"
    ]


def test_table2_command(capsys):
    assert main(["table2", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "fedrcom" in out


def test_availability_command(capsys):
    assert main(["availability", "--days", "0.5", "--tree", "V"]) == 0
    out = capsys.readouterr().out
    assert "Availability" in out
    assert "V" in out


def test_passes_command(capsys):
    assert main(["passes", "--days", "1", "--tree", "V"]) == 0
    out = capsys.readouterr().out
    assert "Pass campaign" in out


def test_passes_fans_out_and_caches(tmp_path, capsys, monkeypatch):
    """``passes`` runs availability cells: ``--jobs 2`` prints the bytes
    ``--jobs 1`` does, and a re-run is served from ``--cache-dir``."""
    from repro.experiments import runner

    cache = str(tmp_path / "cache")
    argv = ["passes", "--days", "0.5", "--tree", "V", "--tree", "I"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--cache-dir", cache]) == 0
    assert capsys.readouterr().out == serial
    assert len(list(tmp_path.joinpath("cache").iterdir())) == 2

    def no_run(*args, **kwargs):
        raise AssertionError("a cached cell ran again")

    monkeypatch.setattr(runner, "execute_cell", no_run)
    assert main(argv + ["--jobs", "2", "--cache-dir", cache]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("command", ["availability", "passes"])
@pytest.mark.parametrize("days", ["0", "-1"])
def test_non_positive_days_rejected(command, days, capsys):
    """``passes --days 0`` ended in a traceback and ``availability --days
    0`` printed a perfect 1.00000; both are usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--days", days])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"repro {command}: error: argument --days: must be > 0, got {days}"
    ]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["recovery", "--component", "rtu"], "--trials"),
        (["table2"], "--trials"),
        (["table4"], "--trials"),
        (["chaos"], "--trials"),
        (["strategy-compare"], "--trials"),
        (["workload"], "--failures"),
        (["detection-ablation"], "--trials"),
        (["fleet"], "--size"),
    ],
)
@pytest.mark.parametrize("count", ["0", "-1"])
def test_non_positive_counts_rejected(argv, flag, count, capsys):
    """A zero count ran nothing and reported success (``chaos``,
    ``detection-ablation``) or ended in a traceback (the rest)."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, count])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"repro {argv[0]}: error: argument {flag}: must be >= 1, got {count}"
    ]


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (["availability"], "--days", "inf", "must be finite"),
        (["passes"], "--days", "1e400", "must be finite"),
        (["workload"], "--rate", "inf", "must be finite"),
        (["fleet"], "--horizon", "inf", "must be finite"),
        (["fleet"], "--horizon", "nan", "must be finite"),
        (["fleet"], "--horizon", "-5", "must be > 0"),
        (["fleet"], "--wave-drop", "1.5", "must be in [0, 1]"),
        (["fleet"], "--wave-drop", "nan", "must be in [0, 1]"),
        (["fleet"], "--wave-interval", "-10", "must be >= 0"),
        (["fleet"], "--wave-interval", "inf", "must be finite"),
        (["fleet"], "--request-rate", "-1", "must be >= 0"),
        (["fleet"], "--request-rate", "nan", "must be finite"),
        (["detection-ablation"], "--drop", "1.5", "must be in [0, 1]"),
        (["detection-ablation"], "--drop", "-0.1", "must be in [0, 1]"),
    ],
)
def test_out_of_range_float_flags_rejected(argv, flag, value, message, capsys):
    """Checked at parse time: ``--days inf`` died in ``predict_passes``,
    ``fleet --horizon inf`` never returned, ``--horizon -5`` ended in a
    traceback, and the rest ran silently on a meaningless value."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv + [flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"repro {argv[0]}: error: argument {flag}: {message}, got {value}"
    ]


def test_float_flags_keep_their_valid_range():
    parse = build_parser().parse_args
    fleet = parse(["fleet", "--wave-interval", "0", "--request-rate", "0", "--wave-drop", "1"])
    assert (fleet.wave_interval, fleet.request_rate, fleet.wave_drop) == ([0.0], 0.0, 1.0)
    assert parse(["detection-ablation", "--drop", "0"]).drop == [0.0]


def test_seed_changes_results(capsys):
    main(["--seed", "1", "recovery", "--component", "rtu", "--trials", "2"])
    first = capsys.readouterr().out
    main(["--seed", "2", "recovery", "--component", "rtu", "--trials", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_table4_command(capsys, monkeypatch):
    # One table of the paper's numbers: its components are Table 4's
    # columns, and it is what the paper block prints.
    for row in PAPER_TABLE4.values():
        assert set(row) <= set(TABLE4_COLUMNS)
    monkeypatch.setitem(PAPER_TABLE4[("V", "faulty")], "pbcom", 99.99)
    assert main(["table4", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    paper = out[out.index("Table 4 (paper)"):out.index("Table 4 (measured)")]
    assert "IV/faulty   |  5.73 |  6.25 |  6.11 |  5.59 | 5.76 | 29.19 |       —" in paper
    assert "V/faulty    |  5.73 |  6.25 |  6.11 |  5.59 | 5.76 | 99.99 |       —" in paper
    assert "IV/faulty" in out
    assert "V/faulty" in out
    analytic = out[out.index("Table 4 (analytic)"):]
    # §4.4: the faulty oracle costs tree IV's pbcom, tree V is immune.
    assert "IV/faulty   |  5.73 |  6.25 |  6.25 |  5.59 | 5.76 | 28.59" in analytic
    assert "V/faulty    |  5.73 |  6.25 |  6.25 |  5.59 | 5.76 | 22.21" in analytic


def test_optimize_command_rederives_tree_v(capsys):
    assert main(["optimize"]) == 0
    out = capsys.readouterr().out
    for move in ("consolidate(R_ses, R_str)", "insert_joint(R_fedr, R_pbcom)", "promote(pbcom)"):
        assert move in out
    assert "12.083" in out and "10.633" in out
    assert "[ses, str]" in out


def test_optimize_command_from_tree_i(capsys):
    assert main(["optimize", "--tree", "I"]) == 0
    out = capsys.readouterr().out
    assert "(start: tree I)" in out
    assert "R_mercury  [fedrcom, mbus, rtu, ses, str]" in out


def test_jobs_flag_accepted_before_and_after_subcommand(capsys):
    assert main(["--jobs", "2", "table2", "--trials", "2"]) == 0
    before = capsys.readouterr().out
    assert main(["table2", "--trials", "2", "--jobs", "2"]) == 0
    after = capsys.readouterr().out
    assert before == after


def test_parallel_cli_output_matches_serial(capsys):
    assert main(["table2", "--trials", "2", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["table2", "--trials", "2", "--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_cache_dir_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["table2", "--trials", "2", "--cache-dir", cache]) == 0
    first = capsys.readouterr().out
    entries = len(list(tmp_path.joinpath("cache").iterdir()))
    assert entries > 0
    assert main(["table2", "--trials", "2", "--cache-dir", cache]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(list(tmp_path.joinpath("cache").iterdir())) == entries


def test_profile_flag_prints_stats(capsys):
    assert main(["--profile", "recovery", "--component", "rtu", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert "function calls" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_invalid_tree_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["recovery", "--tree", "VII", "--component", "rtu"])


def test_recovery_trace_out_and_phase_table(tmp_path, capsys):
    out_path = str(tmp_path / "run.jsonl")
    code = main([
        "recovery", "--component", "rtu", "--trials", "2",
        "--trace-out", out_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Per-phase recovery breakdown" in out
    assert "detection (s)" in out
    assert f"-> {out_path}" in out
    from repro.obs.sinks import read_jsonl
    kinds = {row["kind"] for row in read_jsonl(out_path)}
    assert {"failure_injected", "detection", "restart_ordered"} <= kinds


def test_trace_subcommand_filters(tmp_path, capsys):
    out_path = str(tmp_path / "run.jsonl")
    main(["recovery", "--component", "rtu", "--trials", "2",
          "--trace-out", out_path])
    capsys.readouterr()

    assert main(["trace", out_path, "--kind", "restart_ordered"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines
    assert all("restart_ordered" in line for line in lines)

    assert main(["trace", out_path, "--source", "faults", "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert len([line for line in out.splitlines() if line.strip()]) == 1

    assert main(["trace", out_path, "--since", "1e12"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_trace_limit_below_one_is_a_usage_error(tmp_path, capsys):
    out_path = str(tmp_path / "run.jsonl")
    main(["recovery", "--component", "rtu", "--trials", "1",
          "--trace-out", out_path])
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", out_path, "--limit", "0"])
    assert excinfo.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_trace_subcommand_missing_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_explain_marks_an_episode_still_open_at_the_end(tmp_path, capsys):
    from repro.obs import events as ev
    from repro.obs.sinks import JsonlSink
    from repro.sim.trace import Trace

    path = str(tmp_path / "cut.jsonl")
    trace = Trace()
    sink = trace.add_sink(JsonlSink(path))
    trace.emit("faults", ev.FAILURE_INJECTED, time=2.0, component="rtu",
               failure_id=4, cure_set=("rtu",), failure_kind="hang")
    trace.emit("fd", ev.DETECTION, time=2.5, component="rtu", via="probe")
    trace.emit("fd", ev.DETECTION, time=2.5, component="ses", via="ping")
    sink.close()
    assert main(["explain", path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "",
        "rtu: failure 4 (hang), cells -, restarts 0, detected via probe",
        "  detection 0.500s  decision -  restart -  total -",
        "  t=+   0.000s  failure injected in rtu (cure set: rtu)",
        "  t=+   0.500s  FD detected rtu",
        "  open at end of trace",
    ]


@pytest.mark.parametrize(
    "text", ["not json\n", "[1, 2]\n", '{"t": 1.0, "data": 3}\n', '{"t": null}\n']
)
def test_explain_refuses_a_malformed_or_missing_trace(tmp_path, capsys, text):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    assert main(["explain", str(path)]) == 2
    assert "malformed trace" in capsys.readouterr().err
    assert main(["explain", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_availability_phases_flag(capsys):
    code = main(["availability", "--days", "0.5", "--tree", "V", "--phases"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Tree V: per-phase recovery breakdown" in out
    assert "detection (s)" in out


def test_chaos_command(capsys):
    code = main(["chaos", "--scenario", "cascade", "--tree", "V",
                 "--trials", "1", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Chaos campaigns" in out
    assert "cascade" in out
    assert "invariants: all OK" in out


def test_chaos_runs_every_tree_by_default(capsys):
    assert main(["chaos", "--scenario", "blind", "--trials", "1", "--seed", "7"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert [cell.strip() for cell in header.split("|")[1:]] == [
        f"tree {label}" for label in TREE_BUILDERS
    ]
    assert "tree II'" in header


def test_chaos_speedup_table_and_report(tmp_path, capsys):
    report = str(tmp_path / "chaos.json")
    code = main(["chaos", "--scenario", "mixed", "--tree", "I", "--tree", "V",
                 "--seed", "7", "--report", report])
    assert code == 0
    out = capsys.readouterr().out
    assert "Recovery speed-up vs tree I" in out
    import json
    with open(report, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload) == {"mixed/I", "mixed/V"}
    assert payload["mixed/V"]["violations"] == []


def test_chaos_trace_out_is_deterministic(tmp_path, capsys):
    paths = [str(tmp_path / f"run{i}.jsonl") for i in (1, 2)]
    for path in paths:
        code = main(["chaos", "--scenario", "cascade", "--tree", "V",
                     "--seed", "42", "--trace-out", path])
        assert code == 0
    capsys.readouterr()
    with open(paths[0], "rb") as fh:
        first = fh.read()
    with open(paths[1], "rb") as fh:
        second = fh.read()
    assert first and first == second


def test_chaos_trace_out_reruns_the_campaign_cell(tmp_path, capsys):
    """``--trace-out`` runs the campaign path's own cell (same derived
    seed): everything it prints but the trace line is what the campaign
    path prints for that seed, scenario and tree."""
    args = ["chaos", "--scenario", "cascade", "--tree", "V", "--seed", "42"]
    assert main(args) == 0
    campaign = capsys.readouterr().out
    assert main(args + ["--trace-out", str(tmp_path / "run.jsonl")]) == 0
    traced = capsys.readouterr().out.splitlines()
    assert traced[0].startswith("trace: ")
    assert "mean MTTR" in campaign
    assert traced[1:] == campaign.splitlines()


def test_chaos_trace_out_requires_single_cell(capsys):
    code = main(["chaos", "--scenario", "cascade", "--tree", "I", "--tree", "V",
                 "--trace-out", "/tmp/unused.jsonl"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--scenario", "nope"])


def test_detection_ablation_command(capsys):
    code = main([
        "detection-ablation", "--tree", "V",
        "--drop", "0.0", "--drop", "0.15", "--trials", "2", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Detection accuracy vs MTTR" in out
    assert "fixed" in out and "adaptive" in out
    assert "max det (s)" in out
    assert "invariants: all OK" in out


def test_detection_ablation_fans_out_and_caches(tmp_path, capsys, monkeypatch):
    """The ablation is chaos cells: ``--jobs 2`` prints the bytes ``--jobs
    1`` does, and a re-run reads every cell from ``--cache-dir``."""
    from repro.experiments import runner

    cache = tmp_path / "cache"
    argv = ["detection-ablation", "--tree", "V", "--drop", "0.0", "--drop", "0.15",
            "--seed", "7"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == serial
    assert len(list(cache.iterdir())) == 4  # 2 drops x 2 policies

    def no_run(*args, **kwargs):
        raise AssertionError("a cached cell ran again")

    monkeypatch.setattr(runner, "execute_cell", no_run)
    assert main(argv + ["--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == serial


def test_chaos_command_knows_new_scenarios(capsys):
    assert main([
        "chaos", "--scenario", "zombie-fleet", "--tree", "V",
        "--trials", "1", "--seed", "7",
    ]) == 0
    out = capsys.readouterr().out
    assert "invariants: all OK" in out


def test_workload_command(tmp_path, capsys):
    report = str(tmp_path / "workload.json")
    code = main([
        "workload", "--strategy", "classic", "--strategy", "microreboot",
        "--kind", "crash", "--tree", "III", "--failures", "1",
        "--rate", "6", "--seed", "7", "--report", report,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "User-traffic cells" in out
    assert "(classic)" in out and "microreboot" in out
    assert "loss %" in out
    assert "invariants: all OK" in out
    import json
    with open(report, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload) == {"classic/crash/III", "microreboot/crash/III"}
    effects = payload["microreboot/crash/III"]["effects"]
    assert effects["requests_ok"] > 0


def test_workload_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["workload", "--strategy", "nope"])


def test_workload_rejects_non_positive_rate():
    """``--rate 0`` used to print "0 sessions/s" and run the default 40."""
    for rate in ("0", "-4"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--rate", rate])
    assert build_parser().parse_args(["workload", "--rate", "8"]).rate == 8.0


def test_strategy_compare_user_effects_columns(capsys):
    code = main([
        "strategy-compare", "--strategy", "classic", "--strategy", "microreboot",
        "--kind", "crash", "--tree", "III", "--trials", "1", "--seed", "7",
        "--user-effects",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "user loss" in out
    assert "classic" in out


def test_strategy_compare_report_covers_the_printed_cells(tmp_path, capsys):
    """One suite: the ``--report`` payloads (and the verdict) are the cells
    whose user-effects columns were printed, not a traffic-free twin's."""
    report = str(tmp_path / "strategy.json")
    code = main([
        "strategy-compare", "--strategy", "restart", "--strategy", "microreboot",
        "--kind", "crash", "--tree", "III", "--trials", "1", "--seed", "7",
        "--user-effects", "--report", report,
    ])
    assert code == 0
    assert "invariants: all OK" in capsys.readouterr().out
    import json
    with open(report, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload) == {"restart/crash/III", "microreboot/crash/III"}
    for cell in payload.values():
        assert cell["effects"] is not None
        assert cell["effects"]["requests_ok"] > 0


def test_fleet_request_rate_columns(capsys):
    code = main([
        "fleet", "--size", "2", "--horizon", "60", "--wave-interval", "0",
        "--seed", "7", "--request-rate", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "user loss" in out


def test_fleet_shards_flag_does_not_outlive_the_call(capsys, monkeypatch):
    """``--shards`` (and ``--jobs`` with it) is an argument of the run: it
    reaches the fleet cell, sets no environment variable, and a sharded
    call prints what an unsharded one does."""
    from repro.experiments import fleet

    layouts = []
    real = fleet.run_fleet_cell

    def spy(spec, **kwargs):
        layouts.append((kwargs["shards"], kwargs["jobs"]))
        return real(spec, **kwargs)

    monkeypatch.setattr(fleet, "run_fleet_cell", spy)
    args = [
        "fleet", "--size", "2", "--horizon", "30", "--wave-interval", "0",
        "--seed", "7",
    ]
    environ = dict(os.environ)
    assert main(args + ["--shards", "2", "--jobs", "2"]) == 0
    sharded = capsys.readouterr().out
    assert dict(os.environ) == environ
    assert main(args) == 0
    assert capsys.readouterr().out == sharded
    assert layouts == [(2, 2), (1, 1)]
