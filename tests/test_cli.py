"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


def test_trees_renders_all(capsys):
    assert main(["trees"]) == 0
    out = capsys.readouterr().out
    for label in ("tree-I", "tree-II", "tree-III", "tree-IV", "tree-V"):
        assert label in out
    assert "R_fedr_pbcom" in out


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


def test_seed_changes_results(capsys):
    main(["--seed", "1", "recovery", "--component", "rtu", "--trials", "2"])
    first = capsys.readouterr().out
    main(["--seed", "2", "recovery", "--component", "rtu", "--trials", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_table4_command(capsys):
    assert main(["table4", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "IV/faulty" in out
    assert "V/faulty" in out


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


def test_trace_subcommand_missing_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    assert "nope.jsonl" in capsys.readouterr().err


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
        "--drop", "0.0", "--drop", "0.15", "--failures", "2", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Detection accuracy vs MTTR" in out
    assert "fixed" in out and "adaptive" in out


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


def test_strategy_compare_user_effects_columns(capsys):
    code = main([
        "strategy-compare", "--strategy", "microreboot", "--kind", "crash",
        "--tree", "III", "--trials", "1", "--seed", "7", "--user-effects",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "user loss" in out


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
    """``--shards`` travels through ``REPRO_FLEET_SHARDS``; it used to stay
    set, so the next ``main()`` in the process inherited this call's layout."""
    args = [
        "fleet", "--size", "2", "--horizon", "30", "--wave-interval", "0",
        "--seed", "7", "--shards", "2",
    ]
    monkeypatch.delenv("REPRO_FLEET_SHARDS", raising=False)
    assert main(args) == 0
    assert "REPRO_FLEET_SHARDS" not in os.environ
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "3")
    assert main(args) == 0
    assert os.environ["REPRO_FLEET_SHARDS"] == "3"
