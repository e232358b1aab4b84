# Developer/CI entry points.  The python toolchain is assumed present
# (no installs); everything runs from the source tree via PYTHONPATH.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test lint verify chaos-smoke chaos-lossy-smoke strategy-smoke \
	fleet-smoke workload-smoke store-chaos-smoke examples-smoke \
	check-determinism bench bench-smoke repo-bench repo-bench-test \
	repo-bench-ab benchmarks \
	table4-parallel chaos-full fleet-large workload-soak soak nightly

# Tier-1 verification: the full unit/integration suite.  The ten slowest
# tests are printed so a drift in suite time shows in the log of the run
# that caused it.
test:
	$(PYTHON) -m pytest -x -q --durations=10

# Static checks.  tools/lint.py prefers ruff, then pyflakes, and falls
# back to its own AST-based checks when neither is installed.
lint:
	$(PYTHON) tools/lint.py src tests tools

# Two fast chaos campaigns with live invariant checking; nonzero exit on
# any invariant violation.  Flapping kills REC mid-recovery on a
# strategy-less station, so the crash-only supervision plane (REC rebuilt
# by FD, episodes reconciled, stale plans fenced) runs on every push.
chaos-smoke:
	$(PYTHON) -m repro.cli chaos --scenario cascade --scenario flapping \
		--tree V --trials 1 --seed 7

# The lossy-network campaign: the fault fabric, the adaptive detector,
# and the detection-accuracy invariants, end to end.
chaos-lossy-smoke:
	$(PYTHON) -m repro.cli chaos --scenario lossy --tree V --trials 1 --seed 7

# One fast strategy-comparison matrix (restart vs microreboot under
# crashes on tree V) with live invariant checking; nonzero exit on any
# invariant violation.
strategy-smoke:
	$(PYTHON) -m repro.cli strategy-compare --strategy restart \
		--strategy microreboot --kind crash --tree V --trials 2 --seed 7

# One fast sharded fleet campaign (independent + correlated waves) with
# per-station invariant checking; nonzero exit on any violation.  Shards
# and process fan-out are bit-identical, so the sharded smoke run stands
# in for every execution layout.
fleet-smoke:
	REPRO_FLEET_JOBS=2 $(PYTHON) -m repro.cli fleet --size 8 --horizon 120 \
		--wave-interval 0 --wave-interval 60 --shards 2 --seed 7

# One fast user-traffic matrix: the classic baseline vs restart vs
# microreboot under crashes on tree III, with live goodput / user-loss
# accounting and invariant checking.  Tree III keeps the lone ses/str
# cells, so full restart's resync cascade shows up in the loss column.
workload-smoke:
	$(PYTHON) -m repro.cli workload --strategy classic --strategy restart \
		--strategy microreboot --kind crash --tree III --failures 2 \
		--rate 8 --seed 7

# The crash-only recovery plane end to end: session-store crash/hang
# windows with torn/corrupt writes forcing strategy fallback
# (store-outage), and supervisor kills mid-recovery exercising generation
# fencing and oracle rebuild (rogue-oracle-crash) — both under the
# no-recovery-deadlock-on-store-failure and stale-plan-fencing
# invariants; nonzero exit on any violation.
store-chaos-smoke:
	$(PYTHON) -m repro.cli chaos --scenario store-outage \
		--scenario rogue-oracle-crash --tree V --trials 1 --seed 7

# The three self-contained examples that boot, break and wait (the station
# waits and, in two of them, bare Kernel.run_until); deterministic, a few
# seconds in all.  Nonzero exit on any exception.
examples-smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/custom_system.py
	$(PYTHON) examples/recursive_recovery.py

# Every experiment plane run more than once and byte-compared: same-seed
# double runs of three chaos scenarios and an availability run with their
# JSONL traces, warmed-station forks vs fresh boots (snapshot=False), one
# sample cell per row of the runner's KINDS table run directly, through a
# serial campaign and through two worker processes, and one fleet across
# shard counts and process fan-out.
check-determinism:
	$(PYTHON) tools/check_determinism.py

# The pre-merge gate: tier-1 tests, lint, and the smoke campaigns.
verify: test lint chaos-smoke chaos-lossy-smoke strategy-smoke fleet-smoke \
	workload-smoke store-chaos-smoke examples-smoke

# Perf session: time the simulator hot paths and write BENCH_6.json,
# carrying the previous artifact's own results forward as the embedded
# (depth-1) baseline so future PRs have a perf trajectory to compare
# against.
bench:
	$(PYTHON) tools/bench.py --baseline BENCH_5.json --output BENCH_6.json

# Fast regression gate: reduced-rep benchmarks vs the checked-in
# BENCH_6.json under per-metric budgets (bus throughputs: 20%;
# fleet_stations_per_sec / workload_requests_per_sec: 25%;
# station_snapshot_restore_seconds: 35%; fleet_station_setup_seconds:
# 50%).  REPRO_BENCH_SMOKE_SKIP=1 ignores *timing* regressions on slow
# machines; bench errors and metrics missing from the baseline still
# fail.
bench-smoke:
	$(PYTHON) tools/bench.py --smoke --baseline BENCH_6.json

# The repo benchmark declared in BENCHMARK.json: five campaign workloads,
# calibrated end-to-end metrics and the per-layer ledger (bench/README.md).
# A performance claim names a workload and a metric from this command.
repo-bench:
	python3 bench/run.py

# Checks on the benchmark itself (schema, attribution, exact-repeat
# counts; ~1.5 min, outside tier-1).
repo-bench-test:
	$(PYTHON) -m pytest bench -q

# What a performance claim has to show: PAIRS alternating runs of one
# workload on BASE (a temporary git worktree) and on this tree — each
# side's median and quartiles, pair wins, and the exact comparison of the
# payload digest and the result.sim_* lines (tools/bench_ab.py).
# LEDGER=1 adds one traced run per side and the "which layer moved" table:
# every exact-repeat per-layer metric (*.calls, events_per_work, ...) that
# differs.  CI runs it report-only (PAIRS=3) on traffic-steady (LEDGER=1),
# traffic-faulted, fleet-waves, availability-month (LEDGER=1) and
# recovery-matrix.
BASE ?= HEAD~1
WORKLOAD ?= traffic-steady
PAIRS ?= 10
repo-bench-ab:
	python3 tools/bench_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) \
		$(if $(LEDGER),--ledger)

# Full paper-reproduction suite (slow).  REPRO_BENCH_TRIALS/JOBS/CACHE
# control fidelity, fan-out, and result caching.
benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The Table 4 matrix with maximum fan-out, cached for re-runs.
table4-parallel:
	REPRO_BENCH_JOBS=0 REPRO_BENCH_CACHE=.repro-cache \
		$(PYTHON) -m pytest benchmarks/test_table4_mttr_matrix.py --benchmark-only -s

# ---------------------------------------------------------------------------
# Nightly campaigns (scheduled CI; all deterministic, all fail on any
# invariant violation).

# The full chaos catalogue: every scenario x every tree (9 x 6 = 54
# cells), two trials each, fanned over all CPUs.
chaos-full:
	$(PYTHON) -m repro.cli chaos --trials 2 --seed 7 --jobs 0

# The 64-station correlated-wave fleet cell with live user traffic,
# sharded: the scale point the smoke run only samples.
fleet-large:
	$(PYTHON) -m repro.cli fleet --size 64 --horizon 300 --wave-interval 0 \
		--wave-interval 120 --shards 4 --request-rate 2 --seed 7

# Workload soak: the full strategy baseline matrix under sustained user
# traffic — classic vs restart vs microreboot, crashes and hangs, both
# default trees, six faults per cell.
workload-soak:
	$(PYTHON) -m repro.cli workload --kind crash --kind hang --failures 6 \
		--rate 40 --seed 7 --jobs 0

# The tests marked `soak` (long simulated horizons on the full-fidelity
# station), which tier-1 deselects by default.
soak:
	$(PYTHON) -m pytest -q -m soak

# Everything the scheduled nightly workflow runs.
nightly: chaos-full fleet-large workload-soak check-determinism soak
