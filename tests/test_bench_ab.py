"""The no-regression rule behind ``tools/bench_ab.py``'s exit status."""

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
BASE = {"work_per_cal_s": 1000.0, "peak_rss_mb": 100.0, "setup_s": 0.2}

_saved_path = list(sys.path)  # bench_ab puts bench/ on sys.path
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)
sys.path[:] = _saved_path


def _runs(pairs=3, failed=0, **scale):
    def run(scale):
        metrics = {name: {"value": value * scale.get(name, 1.0)} for name, value in BASE.items()}
        return {"metrics": metrics, "failed": failed, "exit": 0}

    return {"base": [run({}) for _ in range(pairs)], "change": [run(scale) for _ in range(pairs)]}


def test_a_throughput_drop_past_its_bound_fails():
    passed, lines = bench_ab.verdict(END_TO_END, _runs(work_per_cal_s=0.80))
    assert not passed
    assert lines == {
        "work_per_cal_s": "REGRESSED (worse by 20.0 % > bound 15 %)",
        "peak_rss_mb": "within bound",
        "setup_s": "within bound",
    }


def test_a_memory_rise_past_its_bound_fails_and_a_fall_passes():
    passed, lines = bench_ab.verdict(END_TO_END, _runs(peak_rss_mb=1.12))
    assert not passed
    assert lines["peak_rss_mb"] == "REGRESSED (worse by 12.0 % > bound 10 %)"
    assert bench_ab.verdict(END_TO_END, _runs(peak_rss_mb=0.80))[0]


def test_moves_inside_the_bounds_pass_at_any_pair_count():
    for pairs in (1, 3, 10):
        runs = _runs(pairs, work_per_cal_s=0.90, peak_rss_mb=1.05, setup_s=1.20)
        assert bench_ab.verdict(END_TO_END, runs) == (True, dict.fromkeys(BASE, "within bound"))


def test_the_median_decides_not_one_outlier():
    runs = _runs()
    runs["change"][0]["metrics"]["work_per_cal_s"]["value"] = 500.0
    assert bench_ab.verdict(END_TO_END, runs)[0]


def test_a_failed_run_fails_even_within_bounds():
    assert bench_ab.verdict(END_TO_END, _runs(failed=2)) == (False, dict.fromkeys(BASE, "within bound"))
    runs = _runs()
    runs["base"][0]["exit"] = 1
    assert not bench_ab.verdict(END_TO_END, runs)[0]
