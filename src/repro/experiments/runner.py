"""Parallel campaign execution: fan independent cells across processes.

Every headline number in the paper (Tables 2/4, the §8 availability ratios)
is a campaign of kill-and-measure trials over (tree × component × oracle)
cells, and each cell is a pure function of its spec — tree label, component,
trial count, and a seed.  That purity is what makes fan-out safe (the
*Microreboot* argument for isolated per-trial state) and it is what this
module exploits:

* **Deterministic seeding** — every cell derives its seed by hashing the
  campaign root seed with the cell's identity
  (:func:`campaign_seed`), never by position in a list.  Adding a component
  to a row, reordering columns, or changing the number of worker processes
  cannot perturb any other cell's random stream, so ``jobs=4`` results are
  bit-identical to ``jobs=1``.
* **Process fan-out** — cells run on a ``ProcessPoolExecutor``
  (simulations are CPU-bound Python; threads would serialize on the GIL).
  Results are reassembled in planning order, so output never depends on
  completion order.
* **Content-addressed result cache** — each cell's result can be stored as
  JSON under a key hashing the cell spec, the station config, and a cache
  version.  Re-running a benchmark with unchanged inputs replays from disk;
  changing *any* input (trials, seed, oracle, a config constant) changes
  the key and forces recomputation.

Cells large enough to dominate wall-clock can additionally be split into
**seed shards** (``shard_size``): each shard is an independent station with
its own derived seed, and the merged sample list is the concatenation in
shard order.  The shard decomposition is part of the campaign spec — serial
and parallel runs of the same spec agree exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.experiments.availability import AvailabilityResult, measure_availability
from repro.experiments.recovery import RecoveryResult, measure_recovery
from repro.experiments.snapshot import config_fingerprint, tree_fingerprint
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.obs.sinks import merge_phase_snapshots
from repro.sim.rng import derive_seed

#: Bump when the result payload layout or experiment semantics change in a
#: way that silently invalidates cached campaign results.
#: v2: recovery payloads gained "phases"; availability gained
#: "phase_breakdown" (per-component recovery-phase aggregates).
#: v3: chaos cells (new "chaos" kind and the ``scenario`` spec field).
#: v4: chaos payloads gained detection-accuracy and network-fabric counters
#: (``false_positives``/``retractions``/``net_dropped``/``net_duplicated``),
#: and scenarios may carry station overrides that change cell semantics.
#: v5: warmed-station snapshot/fork — every cell now boots under the
#: shape-derived snapshot seed and is rebased onto the cell seed (see
#: :mod:`repro.experiments.snapshot`), changing per-cell randomness.
#: v6: recovery-strategy registry — cells gained the ``strategy`` and
#: ``failure_kind`` spec fields (new "strategy" kind; chaos cells accept a
#: strategy sweep dimension), and strategy-enabled stations wire a session
#: store that changes their event streams.
#: v7: fleet campaigns — cells gained the ``fleet_size``/``wave_interval_s``
#: /``wave_drop`` spec fields (new "fleet" kind).  Shard count and process
#: fan-out are deliberately *absent* from the spec: fleet results are
#: bit-identical across both (``REPRO_FLEET_SHARDS``/``REPRO_FLEET_JOBS``
#: are execution knobs), so they must never split the cache.
#: v8: user-traffic plane — cells gained the ``request_rate`` spec field
#: (new "workload" kind; fleet cells accept an offered load and their
#: payloads gain a merged ``user_effects`` ledger).  The Mercury service
#: endpoints answer new request verbs, so stations under traffic emit
#: event streams that did not exist under v7.
#: v9: crash-only recovery plane — the session store gained a fault model
#: (crash/hang windows, torn/corrupt writes) and checksummed records, the
#: oracle/supervisors became restartable nodes with generation fencing,
#: and scenarios gained ``store_ops``/``store_faults``/``default_strategy``
#: (new "store-outage" and "rogue-oracle-crash" recipes).  Strategy-enabled
#: stations emit new store/supervisor event kinds, so their streams differ
#: from v8 even when no fault fires.
#: v10: FD judges a ping round with one kernel event instead of one per
#: component, so ``FleetResult.stations[*].events_executed`` fell for
#: identical specs; every other payload field is unchanged.
#: v11: a dial refused because nothing is bound parks with the network
#: instead of polling, and a parked dial executes no kernel event, so
#: ``FleetResult.stations[*].events_executed`` fell again for identical
#: specs; every other payload field is unchanged.
#: Still v11 with the ``correlations`` spec field and the "lifetimes" kind
#: removed: the key hashes the full cell spec, so dropping a field changes
#: every key by itself — older entries are orphaned, never misread.
CACHE_VERSION = 11


# ----------------------------------------------------------------------
# seeds and fingerprints
# ----------------------------------------------------------------------


def campaign_seed(root_seed: int, *parts: object) -> int:
    """Derive a cell seed from the campaign root seed and the cell identity.

    Pure function of ``(root_seed, parts)`` — stable across interpreter
    runs, independent of planning order and of every other cell.
    """
    return derive_seed(root_seed, "campaign:" + ":".join(str(p) for p in parts))


# ----------------------------------------------------------------------
# cell specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One independent unit of campaign work (picklable, hashable).

    ``kind`` selects the experiment family (:func:`execute_cell` has the
    ladder): ``"recovery"`` runs
    :func:`~repro.experiments.recovery.measure_recovery` shards;
    ``"availability"`` runs one long-horizon station; ``"chaos"`` one
    scenario's trials under the invariant checker; ``"strategy"`` one
    strategy × failure-kind cell; ``"workload"`` the same under live user
    traffic; ``"fleet"`` one whole fleet to its horizon.  A field a kind
    does not read keeps its default.  ``seed`` is the fully derived per-cell
    seed — planners call :func:`campaign_seed`; nothing downstream adds
    offsets.
    """

    kind: str
    tree: str
    seed: int
    component: str = ""
    trials: int = 0
    shard: int = 0
    oracle: str = "perfect"
    oracle_error_rate: float = 0.3
    oracle_too_high_rate: float = 0.0
    cure_set: Optional[Tuple[str, ...]] = None
    supervisor: str = "full"
    trial_timeout: float = 300.0
    aging: bool = False
    horizon_s: float = 0.0
    scenario: str = ""
    #: Recovery-strategy registry name ("" = classic restart-only station,
    #: which is *not* the same cell as ``strategy="restart"`` — the latter
    #: wires the session store and therefore observes session losses).
    strategy: str = ""
    #: Injected failure kind for "strategy" cells (crash/hang/zombie).
    failure_kind: str = ""
    #: Stations in a "fleet" cell (0 for every other kind).
    fleet_size: int = 0
    #: Mean seconds between correlated ground-segment fault waves in a
    #: "fleet" cell; 0 runs the independent-failures baseline.
    wave_interval_s: float = 0.0
    #: Wave-coupled uplink drop probability ("fleet" cells).
    wave_drop: float = 0.0
    #: Offered user-traffic load in sessions/s ("workload" cells; also
    #: arms the per-station workload plane in "fleet" cells when > 0).
    request_rate: float = 0.0


def _resolve_tree(label: str, trees: Optional[Mapping[str, RestartTree]]) -> RestartTree:
    if trees is not None and label in trees:
        return trees[label]
    from repro.mercury.trees import TREE_BUILDERS

    return TREE_BUILDERS[label]()


def execute_cell(
    cell: CampaignCell,
    config: StationConfig = PAPER_CONFIG,
    trees: Optional[Mapping[str, RestartTree]] = None,
) -> Dict[str, Any]:
    """Run one cell to completion and return a JSON-serializable payload.

    This is the worker entry point — it must stay a module-level function
    so ``ProcessPoolExecutor`` can pickle it by reference.
    """
    tree = _resolve_tree(cell.tree, trees)
    if cell.kind == "recovery":
        result = measure_recovery(
            tree,
            cell.component,
            trials=cell.trials,
            seed=cell.seed,
            oracle=cell.oracle,
            oracle_error_rate=cell.oracle_error_rate,
            oracle_too_high_rate=cell.oracle_too_high_rate,
            cure_set=cell.cure_set,
            config=config,
            supervisor=cell.supervisor,
            trial_timeout=cell.trial_timeout,
            aging=cell.aging,
        )
        return {
            "tree_name": result.tree_name,
            "oracle": result.oracle,
            "component": result.component,
            "cure_set": sorted(result.cure_set),
            "samples": result.samples,
            "phases": result.phases,
        }
    if cell.kind == "availability":
        availability = measure_availability(
            tree,
            horizon_s=cell.horizon_s,
            seed=cell.seed,
            config=config,
            oracle=cell.oracle,
        )
        return dataclasses.asdict(availability)
    if cell.kind == "chaos":
        # Local import: the chaos package pulls in the full station stack,
        # and workers executing other cell kinds never need it.
        from repro.chaos.engine import run_chaos

        chaos = run_chaos(
            tree,
            cell.scenario,
            trials=cell.trials,
            seed=cell.seed,
            oracle=cell.oracle,
            oracle_error_rate=cell.oracle_error_rate,
            config=config,
            supervisor=cell.supervisor,
            strategy=cell.strategy or None,
        )
        return chaos.to_payload()
    if cell.kind == "strategy":
        from repro.experiments.strategy_compare import run_strategy_cell

        strategy_result = run_strategy_cell(
            tree,
            strategy=cell.strategy,
            failure_kind=cell.failure_kind,
            trials=cell.trials,
            seed=cell.seed,
            config=config,
            supervisor=cell.supervisor,
        )
        return strategy_result.to_payload()
    if cell.kind == "workload":
        from repro.experiments.workload import (
            DEFAULT_SESSION_RATE,
            run_workload_cell,
        )
        from repro.workload.generator import WorkloadSpec

        workload = run_workload_cell(
            tree,
            strategy=cell.strategy,
            failure_kind=cell.failure_kind or "crash",
            failures=cell.trials,
            seed=cell.seed,
            config=config,
            supervisor=cell.supervisor,
            spec=WorkloadSpec(
                session_rate=cell.request_rate or DEFAULT_SESSION_RATE
            ),
        )
        return workload.to_payload()
    if cell.kind == "fleet":
        from repro.experiments.fleet import FleetSpec, fleet_shards, run_fleet_cell

        fleet = run_fleet_cell(
            FleetSpec(
                tree=cell.tree,
                size=cell.fleet_size,
                horizon_s=cell.horizon_s,
                seed=cell.seed,
                wave_interval_s=cell.wave_interval_s,
                wave_drop=cell.wave_drop,
                oracle=cell.oracle,
                request_rate=cell.request_rate,
            ),
            config=config,
            shards=fleet_shards(),
        )
        return fleet.to_payload()
    raise ValueError(f"unknown campaign cell kind {cell.kind!r}")


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------


def cache_key(
    cell: CampaignCell,
    config: StationConfig,
    tree: Optional[RestartTree] = None,
) -> str:
    """Content address of one cell's result.

    Hashes the full cell spec, the station-config fingerprint, the tree
    structure (when an ad hoc tree object is supplied), and the cache
    version; any change to any input yields a different key.
    """
    identity = {
        "version": CACHE_VERSION,
        "cell": dataclasses.asdict(cell),
        "config": config_fingerprint(config),
        "tree": tree_fingerprint(tree) if tree is not None else cell.tree,
    }
    payload = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_read(
    cache_dir: str, key: str, cell: CampaignCell
) -> Optional[Dict[str, Any]]:
    """The cached result for ``cell``, or ``None`` when no entry exists.

    An entry that exists but cannot be this cell's result — truncated
    JSON, a stored spec other than the requesting cell's (a file copied
    under the wrong key), a non-object result — is rejected here, by file
    name, rather than as a ``KeyError`` in whichever merge reads it first.
    """
    path = os.path.join(cache_dir, f"{key}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    try:
        entry = json.loads(text)
    except ValueError as error:
        raise ExperimentError(f"campaign cache entry {path}: not JSON ({error})") from None
    # JSON-normalised: a ``cure_set`` tuple was stored as a list.
    spec = json.loads(json.dumps(dataclasses.asdict(cell)))
    if not isinstance(entry, dict) or entry.get("cell") != spec:
        raise ExperimentError(
            f"campaign cache entry {path}: stored cell spec is not the requesting cell's"
        )
    result = entry.get("result")
    if not isinstance(result, dict):
        raise ExperimentError(f"campaign cache entry {path}: result is not an object")
    return result


def _cache_write(
    cache_dir: str, key: str, cell: CampaignCell, result: Dict[str, Any]
) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    payload = {"cell": dataclasses.asdict(cell), "result": result}
    # Atomic publish so a crashed/parallel writer can never leave a torn file.
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, os.path.join(cache_dir, f"{key}.json"))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def run_campaign(
    cells: Sequence[CampaignCell],
    config: StationConfig = PAPER_CONFIG,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    trees: Optional[Mapping[str, RestartTree]] = None,
) -> List[Dict[str, Any]]:
    """Execute every cell, returning payloads in planning order.

    ``jobs <= 1`` runs inline (no pool, no pickling); ``jobs > 1`` fans
    across processes.  Either way the result list is ordered like
    ``cells``, and each payload is a pure function of its cell spec, so
    the two modes are bit-identical.  With ``cache_dir``, cells whose key
    is already on disk are not recomputed.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    todo: List[int] = []
    for index, cell in enumerate(cells):
        if cache_dir is not None:
            tree = trees.get(cell.tree) if trees else None
            keys[index] = cache_key(cell, config, tree)
            cached = _cache_read(cache_dir, keys[index], cell)
            if cached is not None:
                results[index] = cached
                continue
        todo.append(index)

    def finished(index: int, result: Dict[str, Any]) -> None:
        # Published as each cell completes, so a later cell that raises (or
        # a Ctrl-C) keeps every finished cell on disk for the re-run.
        results[index] = result
        if cache_dir is not None:
            _cache_write(cache_dir, keys[index], cells[index], result)

    if jobs <= 1 or len(todo) <= 1:
        for index in todo:
            finished(index, execute_cell(cells[index], config, trees))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            futures = {
                index: pool.submit(execute_cell, cells[index], config, trees)
                for index in todo
            }
            for index, future in futures.items():
                finished(index, future.result())
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# planners and mergers
# ----------------------------------------------------------------------


def plan_recovery_cell(
    tree_label: str,
    component: str,
    trials: int,
    seed: int,
    shard_size: Optional[int] = None,
    **options: Any,
) -> List[CampaignCell]:
    """Shard one (tree, component) cell into independent seed shards.

    ``shard_size=None`` keeps the cell whole (one station reused across
    all trials, exactly like a direct :func:`measure_recovery` call with
    the derived seed).  Smaller shards trade a little per-station boot
    overhead for intra-cell parallelism.
    """
    cure = options.get("cure_set")
    oracle = options.get("oracle", "perfect")
    identity = (
        tree_label,
        oracle,
        component,
        ",".join(sorted(cure)) if cure else "-",
    )
    if shard_size is None or shard_size >= trials:
        shards = [trials]
    else:
        shards = [
            min(shard_size, trials - start) for start in range(0, trials, shard_size)
        ]
    return [
        CampaignCell(
            kind="recovery",
            tree=tree_label,
            component=component,
            trials=shard_trials,
            shard=shard_index,
            seed=campaign_seed(seed, *identity, shard_index),
            **options,
        )
        for shard_index, shard_trials in enumerate(shards)
    ]


def merge_recovery_cells(
    cells: Sequence[CampaignCell], payloads: Sequence[Dict[str, Any]]
) -> RecoveryResult:
    """Reassemble one cell's shards into a :class:`RecoveryResult`."""
    if not payloads:
        raise ValueError("no payloads to merge")
    ordered = sorted(zip(cells, payloads), key=lambda pair: pair[0].shard)
    first = ordered[0][1]
    samples: List[float] = []
    for _, payload in ordered:
        samples.extend(payload["samples"])
    phases = merge_phase_snapshots(
        *(payload.get("phases", {}) for _, payload in ordered)
    )
    return RecoveryResult(
        tree_name=first["tree_name"],
        oracle=first["oracle"],
        component=first["component"],
        cure_set=frozenset(first["cure_set"]),
        samples=samples,
        phases=phases,
    )


def run_recovery_row(
    tree_label: str,
    components: Sequence[str],
    trials: int = 100,
    seed: int = 0,
    oracle: str = "perfect",
    oracle_error_rate: float = 0.3,
    config: StationConfig = PAPER_CONFIG,
    supervisor: str = "full",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    shard_size: Optional[int] = None,
    trees: Optional[Mapping[str, RestartTree]] = None,
    cure_set_for: Optional[Callable[[str], Optional[Tuple[str, ...]]]] = None,
) -> List[RecoveryResult]:
    """One Table 2/4 row, fanned across ``jobs`` workers.

    ``cure_set_for(component)`` may supply a per-component minimal cure
    set (§4.4's joint [fedr, pbcom] failures); by default each failure is
    curable by the component alone.
    """
    plan: List[List[CampaignCell]] = []
    for component in components:
        cure = cure_set_for(component) if cure_set_for is not None else None
        plan.append(
            plan_recovery_cell(
                tree_label,
                component,
                trials,
                seed,
                shard_size=shard_size,
                oracle=oracle,
                oracle_error_rate=oracle_error_rate,
                cure_set=tuple(cure) if cure else None,
                supervisor=supervisor,
            )
        )
    flat = [cell for group in plan for cell in group]
    payloads = run_campaign(flat, config=config, jobs=jobs, cache_dir=cache_dir, trees=trees)
    results: List[RecoveryResult] = []
    cursor = 0
    for group in plan:
        results.append(
            merge_recovery_cells(group, payloads[cursor : cursor + len(group)])
        )
        cursor += len(group)
    return results


def run_recovery_matrix(
    rows: Sequence[Tuple[str, str]],
    columns: Sequence[str],
    trials: int = 100,
    seed: int = 0,
    oracle_error_rate: float = 0.3,
    config: StationConfig = PAPER_CONFIG,
    supervisor: str = "full",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    shard_size: Optional[int] = None,
    cure_set_for: Optional[
        Callable[[str, str, str], Optional[Tuple[str, ...]]]
    ] = None,
) -> Dict[Tuple[str, str, str], RecoveryResult]:
    """The full Table 4 matrix: (tree, oracle) rows × component columns.

    Components absent from a row's tree are skipped.  ``cure_set_for``
    receives ``(tree_label, oracle, component)`` so callers can express
    the §4.4 rule (faulty-oracle pbcom failures need the joint restart).
    """
    from repro.mercury.trees import TREE_BUILDERS

    plan: List[Tuple[Tuple[str, str, str], List[CampaignCell]]] = []
    for tree_label, oracle in rows:
        tree_components = TREE_BUILDERS[tree_label]().components
        for component in columns:
            if component not in tree_components:
                continue
            cure = (
                cure_set_for(tree_label, oracle, component)
                if cure_set_for is not None
                else None
            )
            cells = plan_recovery_cell(
                tree_label,
                component,
                trials,
                seed,
                shard_size=shard_size,
                oracle=oracle,
                oracle_error_rate=oracle_error_rate,
                cure_set=tuple(cure) if cure else None,
                supervisor=supervisor,
            )
            plan.append(((tree_label, oracle, component), cells))
    flat = [cell for _, group in plan for cell in group]
    payloads = run_campaign(flat, config=config, jobs=jobs, cache_dir=cache_dir)
    matrix: Dict[Tuple[str, str, str], RecoveryResult] = {}
    cursor = 0
    for key, group in plan:
        matrix[key] = merge_recovery_cells(group, payloads[cursor : cursor + len(group)])
        cursor += len(group)
    return matrix


def run_availability_suite(
    tree_labels: Sequence[str],
    horizon_s: float,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    oracle: str = "perfect",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, AvailabilityResult]:
    """Steady-state availability for several trees, one worker per tree."""
    cells = [
        CampaignCell(
            kind="availability",
            tree=label,
            seed=campaign_seed(seed, "availability", label, horizon_s),
            oracle=oracle,
            horizon_s=horizon_s,
        )
        for label in tree_labels
    ]
    payloads = run_campaign(cells, config=config, jobs=jobs, cache_dir=cache_dir)
    return {
        label: AvailabilityResult(**payload)
        for label, payload in zip(tree_labels, payloads)
    }


def run_chaos_suite(
    scenarios: Sequence[str],
    tree_labels: Sequence[str],
    trials: int = 1,
    seed: int = 0,
    oracle: str = "perfect",
    oracle_error_rate: float = 0.3,
    config: StationConfig = PAPER_CONFIG,
    supervisor: str = "full",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[Tuple[str, str], "ChaosResult"]:
    """Chaos campaign: every (scenario, tree) cell, one worker per cell.

    Cell seeds hash in both the scenario and the tree label, so adding a
    scenario to the list cannot perturb any other cell's fault schedule —
    the same isolation argument as the recovery matrix.
    """
    from repro.chaos.engine import ChaosResult

    pairs = [(scenario, label) for scenario in scenarios for label in tree_labels]
    cells = [
        CampaignCell(
            kind="chaos",
            tree=label,
            seed=campaign_seed(seed, "chaos", scenario, label),
            trials=trials,
            oracle=oracle,
            oracle_error_rate=oracle_error_rate,
            supervisor=supervisor,
            scenario=scenario,
        )
        for scenario, label in pairs
    ]
    payloads = run_campaign(cells, config=config, jobs=jobs, cache_dir=cache_dir)
    return {
        pair: ChaosResult.from_payload(payload)
        for pair, payload in zip(pairs, payloads)
    }


def run_fleet_campaign(
    sizes: Sequence[int],
    tree: str = "V",
    horizon_s: float = 600.0,
    seed: int = 0,
    wave_intervals: Sequence[float] = (0.0,),
    wave_drop: float = 0.0,
    request_rate: float = 0.0,
    config: StationConfig = PAPER_CONFIG,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[Tuple[int, float], "FleetResult"]:
    """Fleet sweep: one cell per (size, wave regime), keyed accordingly.

    Cell seeds hash in the size and wave interval, so growing the sweep
    cannot perturb existing cells; within a cell every station's streams
    derive from the cell seed and its station id alone, independent of
    shard layout.  Sharding/fan-out inside a cell comes from
    ``REPRO_FLEET_SHARDS`` and ``REPRO_FLEET_JOBS`` (bit-identical, hence
    absent from the spec).
    """
    from repro.experiments.fleet import FleetResult

    pairs = [(size, interval) for size in sizes for interval in wave_intervals]
    cells = [
        CampaignCell(
            kind="fleet",
            tree=tree,
            seed=campaign_seed(seed, "fleet", tree, size, interval, horizon_s),
            horizon_s=horizon_s,
            fleet_size=size,
            wave_interval_s=interval,
            wave_drop=wave_drop,
            request_rate=request_rate,
        )
        for size, interval in pairs
    ]
    payloads = run_campaign(cells, config=config, jobs=jobs, cache_dir=cache_dir)
    return {
        pair: FleetResult.from_payload(payload)
        for pair, payload in zip(pairs, payloads)
    }
