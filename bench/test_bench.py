"""Checks on the benchmark itself (``python -m pytest bench -q``, ~1.5 min).

Outside the tier-1 ``testpaths``: these tests run the real benchmark command
on the cheapest workload, so they cost a minute and depend on host speed
only for how long they take, never for whether they pass.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import namedtuple

import pytest

import calibrate
import layers
import run
import table4

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
WORKLOAD = "traffic-steady"


@pytest.fixture(scope="module")
def declared():
    return run.spec()


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs of the same workload and seed."""
    return [run.run_workload(WORKLOAD, 11, 1.0, 1) for _ in range(2)]


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------


def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["bench"]
    assert declared["command"] == ["python3", "bench/run.py"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    # 4 + 22 x workloads runs, each a set-up plus run_seconds, fit the cap
    # with the ~12 s a run spends outside its timed passes.
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * (declared["run_seconds"] + 12) <= 3420


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_command_prints_exactly_the_declared_end_to_end_metrics(declared):
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", WORKLOAD,
         "--seed", "29", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _units(result["metrics"]) == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every metric is also printed by name with its unit, and the host
    # facts are recorded.
    text = "\n".join(lines[:-1])
    for metric in declared["end_to_end"]:
        assert re.search(r"^%s\s+\S+\s+%s" % (
            re.escape(metric["name"]), re.escape(metric["unit"])), text, re.M)
    assert re.search(r"python=\S+ nproc=\d+ commit=\S+", text)
    # The simulated results are printed beside them, outside the result line.
    assert re.search(r"^result\.sim_goodput_ratio\s+1\.0+\s", text, re.M)


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(declared, traced_twice):
    for result in traced_twice:
        assert result["correct"], result["detail"]["failures"]
        assert _units(result["metrics"]) == {
            m["name"]: m["unit"] for m in declared["per_layer"]
        }


def test_layer_shares_sum_to_one(traced_twice):
    for result in traced_twice:
        total = sum(
            metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith(".self_share")
        )
        assert total == pytest.approx(1.0, abs=0.02)
    assert traced_twice[0]["metrics"]["harness.trace_overhead_ratio"]["value"] > 1.0


def test_counts_repeat_exactly_across_traced_runs(traced_twice):
    first, second = (r["metrics"] for r in traced_twice)
    exact = [name for name in first if run.repeats_exactly(name)]
    assert len(exact) == len(layers.LAYERS) + 6 + len(run.EXACT_COUNTERS)
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name
    assert first["xmlcmd.calls"]["value"] > 0
    assert first["sim.kernel.events_per_work"]["value"] > 0
    assert traced_twice[0]["detail"]["digest"] == traced_twice[1]["detail"]["digest"]


# ----------------------------------------------------------------------
# the harness refuses to measure the wrong thing
# ----------------------------------------------------------------------


def test_worker_fails_loudly_on_a_leaked_repro_variable():
    env = dict(run.worker_env(), REPRO_FLEET_JOBS="4")
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "worker.py"), "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--mode", "setup",
         "--spawned-at", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "REPRO_FLEET_JOBS" in done.stderr


def test_parent_scrubs_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_STATION_SNAPSHOT", "0")
    env = run.worker_env()
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["PYTHONPATH"] == run.SRC


def test_command_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------------
# calibration arithmetic
# ----------------------------------------------------------------------


def test_normalise_is_identity_on_the_reference_host():
    ref = calibrate.REFERENCE_CAL_S
    assert calibrate.normalise(2.0, ref, ref) == pytest.approx(2.0)


def test_normalise_undoes_a_uniform_slowdown():
    # The host runs 25 % slow: the slice and both brackets stretch alike.
    ref = calibrate.REFERENCE_CAL_S
    assert calibrate.normalise(2.0 * 1.25, ref * 1.25, ref * 1.25) == pytest.approx(2.0)


def test_normalise_averages_the_two_brackets():
    ref = calibrate.REFERENCE_CAL_S
    assert calibrate.normalise(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_slice_timer_shares_one_sample_between_neighbouring_slices(monkeypatch):
    samples = iter([0.025, 0.050, 0.025])
    clock = iter([0.0, 1.0, 10.0, 12.0])
    monkeypatch.setattr(calibrate, "cal_loop", lambda: next(samples))
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(clock))
    timer = calibrate.SliceTimer()
    timer.open()
    assert timer.run(lambda: "a") == "a"
    assert timer.run(lambda: "b") == "b"
    assert timer.walls == [1.0, 2.0]
    # Both slices are bracketed by (0.025, 0.050) in one order or the other.
    assert timer.cal_s == [pytest.approx(1.0 * 0.025 / 0.0375),
                           pytest.approx(2.0 * 0.025 / 0.0375)]
    assert timer.cals == [0.025, 0.050, 0.025]


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_a_long_slice_is_cut_into_calibrated_segments():
    timer = calibrate.SliceTimer(segment_s=0.05)
    timer.open()
    timer.run(lambda: _spin(0.3))
    inside = timer.cals[1:-1]  # between the leading and the closing sample
    assert len(inside) >= 3
    # The handler's own time is not the slice's: work plus samples make up
    # the 0.3 s the slice spun for.
    assert timer.walls[0] < 0.3
    assert timer.walls[0] + sum(inside) == pytest.approx(0.3, abs=0.05)
    assert timer.cal_s[0] > 0


def test_a_tick_landing_as_the_slice_ends_cannot_make_time_negative(monkeypatch):
    timer = calibrate.SliceTimer(segment_s=5.0)
    timer.open()
    clock = calibrate.time.perf_counter
    pending = []

    def ticking_clock():
        now = clock()
        if pending:  # the signal lands just after this reading is taken
            pending.pop()
            timer._on_tick(calibrate.signal.SIGALRM, None)
        return now

    def work():
        _spin(0.01)
        pending.append(True)  # the slice's closing reading is the next one

    monkeypatch.setattr(calibrate.time, "perf_counter", ticking_clock)
    timer.run(work)
    assert len(timer.cals) == 2  # the late tick took no sample
    assert 0.01 <= timer.walls[0] < 0.04


def test_segment_zero_takes_no_samples_inside_a_slice():
    timer = calibrate.SliceTimer(segment_s=0.0)
    timer.open()
    timer.run(lambda: _spin(0.15))
    assert len(timer.cals) == 2


def test_spread_is_the_acceptance_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    q1, median, q3 = calibrate.quartiles(values)
    assert calibrate.spread(values) == pytest.approx((q3 - q1) / median)
    assert calibrate.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_cal_loop_is_linear_in_rounds():
    short = min(calibrate.cal_loop(4_000) for _ in range(5))
    long = min(calibrate.cal_loop(16_000) for _ in range(5))
    assert 2.5 < long / short < 6.0


# ----------------------------------------------------------------------
# layer attribution
# ----------------------------------------------------------------------

Code = namedtuple("Code", "co_filename")
Edge = namedtuple("Edge", "code callcount totaltime inlinetime")
Entry = namedtuple("Entry", "code callcount totaltime inlinetime calls")


def _repro(path):
    return Code(os.path.join(os.sep, "x", "src", "repro", *path.split("/")))


def test_layer_of_maps_module_paths():
    assert layers.layer_of(_repro("sim/kernel.py").co_filename) == "sim.kernel"
    assert layers.layer_of(_repro("sim/fleet.py").co_filename) == "sim.fleet"
    assert layers.layer_of(_repro("sim/trace.py").co_filename) == "obs"
    assert layers.layer_of(_repro("mercury/components/ses_component.py").co_filename) == "components"
    assert layers.layer_of(_repro("mercury/session_store.py").co_filename) == "mercury.session_store"
    assert layers.layer_of(_repro("mercury/config.py").co_filename) == "mercury.station"
    assert layers.layer_of(_repro("experiments/template_store.py").co_filename) == "experiments.snapshot"
    assert layers.layer_of(_repro("experiments/runner.py").co_filename) == "experiments"
    assert layers.layer_of(_repro("chaos/invariants.py").co_filename) == "other"
    assert layers.layer_of(os.path.join(run.BENCH_DIR, "worker.py")) == "other"
    assert layers.layer_of("/usr/lib/python3/copy.py") is None
    assert set(layer for _, layer in layers._PREFIXES) | {"other"} == set(layers.LAYERS)


def test_unlayered_frames_are_charged_to_the_calling_layer():
    snapshot = _repro("experiments/snapshot.py")
    codec = _repro("xmlcmd/fastpath.py")
    parser = _repro("xmlcmd/parser.py")
    deepcopy = Code("/usr/lib/python3/copy.py")
    reconstruct = Code("/usr/lib/python3/copyreg.py")
    stats = [
        # snapshot (1 s self) calls deepcopy; the codec (2 s self) calls its
        # own parser (4 calls, same layer) and deepcopy too.
        Entry(snapshot, 1, 7.0, 1.0, [Edge(deepcopy, 3, 6.0, 3.0)]),
        Entry(codec, 5, 4.0, 2.0, [Edge(parser, 4, 1.0, 1.0), Edge(deepcopy, 1, 1.0, 0.5)]),
        Entry(parser, 4, 1.0, 1.0, []),
        # deepcopy recurses into another stdlib frame: 3.5 s of self time
        # whose responsibility follows deepcopy's own callers, 6:1.
        Entry(deepcopy, 4, 7.0, 3.5, [Edge(reconstruct, 8, 3.5, 3.5)]),
        Entry(reconstruct, 8, 3.5, 3.5, []),
    ]
    seconds, calls = layers.attribute(stats)
    assert seconds["experiments.snapshot"] == pytest.approx(1.0 + 3.0 + 3.5 * 6 / 7)
    assert seconds["xmlcmd"] == pytest.approx(2.0 + 1.0 + 0.5 + 3.5 * 1 / 7)
    assert sum(seconds.values()) == pytest.approx(1.0 + 2.0 + 1.0 + 3.5 + 3.5)
    assert sum(layers.shares(seconds).values()) == pytest.approx(1.0)
    # Entries into a layer from outside it: the parser's four calls came
    # from its own layer.
    assert calls["experiments.snapshot"] == 1
    assert calls["xmlcmd"] == 5


# ----------------------------------------------------------------------
# Table 4 criteria
# ----------------------------------------------------------------------


def _paper_matrix():
    return {
        (tree, oracle, component): value
        for (tree, oracle), row in table4.PAPER_TABLE4.items()
        for component, value in row.items()
    }


def test_the_papers_own_table_meets_every_shape_criterion():
    matrix = _paper_matrix()
    assert table4.worst_relative_error(matrix) == 0.0
    assert all(ok for _, ok in table4.shape_checks(matrix))
    assert len(table4.shape_checks(matrix)) == 5


def test_a_lost_promotion_gain_fails_its_criterion_only():
    matrix = _paper_matrix()
    matrix[("V", "faulty", "pbcom")] = matrix[("IV", "faulty", "pbcom")] - 1.0
    failed = [name for name, ok in table4.shape_checks(matrix) if not ok]
    assert failed == [
        "table4.promotion_beats_iv_under_faulty_oracle", "table4.agrees_with_paper"
    ]


def test_reference_table_matches_the_repos_copy():
    conftest = os.path.join(run.ROOT, "benchmarks", "conftest.py")
    scope = {}
    with open(conftest, "r", encoding="utf-8") as fh:
        source = fh.read()
    start = source.index("PAPER_TABLE4 = {")
    end = source.index("\n}\n", start) + 3
    exec(source[start:end], scope)  # noqa: S102 - a literal from this repo
    assert scope["PAPER_TABLE4"] == table4.PAPER_TABLE4
