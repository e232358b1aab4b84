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
  JSON under a key hashing the cell spec, the station config, and the
  kind's cache version.  Re-running a benchmark with unchanged inputs
  replays from disk; changing *any* input (trials, seed, oracle, a config
  constant) changes the key and forces recomputation.
* **One table of kinds** — :data:`KINDS` says, per campaign kind, which
  cell fields it reads, what its seed hashes, what runs it, what decodes
  its payload and its cache version; :func:`plan_cell` and
  :func:`run_suite` plan from it, and nothing else describes a kind.

Cells large enough to dominate wall-clock can additionally be split into
**seed shards** (``shard_size``): each shard is an independent station with
its own derived seed, and the merged sample list is the concatenation in
shard order.  The shard decomposition is part of the campaign spec — serial
and parallel runs of the same spec agree exactly.  A fleet cell can also be
laid out over kernel shards and worker processes (:class:`Layout`); that
layout is bit-identical by construction, so it is an argument of the run,
never a field of the cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.experiments.availability import AvailabilityResult, measure_availability
from repro.experiments.recovery import RecoveryResult, measure_recovery
from repro.experiments.snapshot import config_fingerprint, tree_fingerprint
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.obs.sinks import merge_phase_snapshots
from repro.sim.rng import derive_seed

#: One cell's JSON-serializable result.
Payload = Dict[str, Any]

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

    ``kind`` names a row of :data:`KINDS`, which says what the kind runs,
    which of the fields below it reads, and what its seed hashes.  A field
    a kind does not read keeps its default (:func:`kind_of` rejects the
    cell otherwise).  ``seed`` is the fully derived per-cell seed —
    :func:`plan_cell` calls :func:`campaign_seed`; nothing downstream adds
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
    trial_timeout: float = 300.0
    aging: bool = False
    horizon_s: float = 0.0
    scenario: str = ""
    #: Recovery-strategy registry name ("" = classic restart-only station,
    #: which is *not* the same cell as ``strategy="restart"`` — the latter
    #: wires the session store and therefore observes session losses).
    strategy: str = ""
    #: Injected failure kind for "workload" cells (crash/hang/zombie).
    failure_kind: str = ""
    #: Stations in a "fleet" cell (0 for every other kind).
    fleet_size: int = 0
    #: Mean seconds between correlated ground-segment fault waves in a
    #: "fleet" cell; 0 runs the independent-failures baseline.
    wave_interval_s: float = 0.0
    #: Wave-coupled uplink drop probability ("fleet" cells).
    wave_drop: float = 0.0
    #: Offered user-traffic load in sessions/s: arms the workload plane of
    #: a "workload" cell, and of each station of a "fleet" cell, when > 0.
    request_rate: float = 0.0
    #: Message drop rate a "chaos" cell applies to every link for each
    #: whole trial (its scenario must declare ``uses_network``).
    drop: float = 0.0


class Layout(NamedTuple):
    """How one cell runs, never what it computes: a fleet's kernel shards
    and the worker processes they fan over (bit-identical for any values,
    so never part of a cell or its cache key).  Other kinds ignore it."""

    shards: int = 1
    jobs: int = 1


def _resolve_tree(label: str, trees: Optional[Mapping[str, RestartTree]]) -> RestartTree:
    if trees is not None and label in trees:
        return trees[label]
    from repro.mercury.trees import TREE_BUILDERS

    builder = TREE_BUILDERS.get(label)
    if builder is None:
        raise ExperimentError(
            f"cell sets tree={label!r}, which names no tree (have: {', '.join(TREE_BUILDERS)})"
        )
    return builder()


# ----------------------------------------------------------------------
# the table of kinds
# ----------------------------------------------------------------------


def _run_recovery(
    cell: CampaignCell, tree: RestartTree, config: StationConfig, layout: Layout
) -> Payload:
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


def _decode_recovery(payload: Payload) -> RecoveryResult:
    return RecoveryResult(
        tree_name=payload["tree_name"],
        oracle=payload["oracle"],
        component=payload["component"],
        cure_set=frozenset(payload["cure_set"]),
        samples=list(payload["samples"]),
        phases=payload.get("phases", {}),
    )


def _run_availability(
    cell: CampaignCell, tree: RestartTree, config: StationConfig, layout: Layout
) -> Payload:
    availability = measure_availability(
        tree, horizon_s=cell.horizon_s, seed=cell.seed, config=config, oracle=cell.oracle
    )
    return dataclasses.asdict(availability)


def _decode_availability(payload: Payload) -> AvailabilityResult:
    return AvailabilityResult(**payload)


# The chaos, workload and fleet modules import
# ``repro.experiments.snapshot`` (hence this package), and a worker running
# another kind never needs them: their imports stay inside the functions.


def _run_chaos(
    cell: CampaignCell, tree: RestartTree, config: StationConfig, layout: Layout
) -> Payload:
    from repro.chaos.engine import run_chaos

    return run_chaos(
        tree,
        cell.scenario,
        trials=cell.trials,
        seed=cell.seed,
        oracle=cell.oracle,
        oracle_error_rate=cell.oracle_error_rate,
        config=config,
        strategy=cell.strategy or None,
        drop=cell.drop,
    ).to_payload()


def _decode_chaos(payload: Payload) -> "ChaosResult":
    from repro.chaos.engine import ChaosResult

    return ChaosResult.from_payload(payload)


def _run_workload(
    cell: CampaignCell, tree: RestartTree, config: StationConfig, layout: Layout
) -> Payload:
    from repro.experiments.workload import run_workload_cell
    from repro.workload.generator import WorkloadSpec

    # Rate 0 is no traffic plane, the rule fleet cells follow too.
    return run_workload_cell(
        tree,
        strategy=cell.strategy,
        failure_kind=cell.failure_kind,
        failures=cell.trials,
        seed=cell.seed,
        config=config,
        spec=WorkloadSpec(session_rate=cell.request_rate) if cell.request_rate > 0 else None,
    ).to_payload()


def _decode_workload(payload: Payload) -> "WorkloadCellResult":
    from repro.experiments.workload import WorkloadCellResult

    return WorkloadCellResult.from_payload(payload)


def _run_fleet(
    cell: CampaignCell, tree: RestartTree, config: StationConfig, layout: Layout
) -> Payload:
    from repro.experiments.fleet import FleetSpec, run_fleet_cell

    return run_fleet_cell(
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
        shards=layout.shards,
        jobs=layout.jobs,
    ).to_payload()


def _decode_fleet(payload: Payload) -> "FleetResult":
    from repro.experiments.fleet import FleetResult

    return FleetResult.from_payload(payload)


@dataclass(frozen=True)
class Kind:
    """One campaign kind: everything the runner knows about it."""

    #: The ``CampaignCell`` fields the kind reads beside ``kind``, ``tree``
    #: and ``seed``; every other field must keep its default.
    reads: Tuple[str, ...]
    #: The cell fields :func:`plan_cell` hashes into the cell seed, in order.
    identity: Tuple[str, ...]
    #: ``run(cell, tree, config, layout)``: one cell to its payload.
    run: Callable[[CampaignCell, RestartTree, StationConfig, Layout], Payload]
    #: A payload back to the kind's result object.
    decode: Callable[[Payload], Any]
    #: Bump when this kind's payload layout or semantics change in a way
    #: that silently invalidates its cached results; other kinds' entries
    #: stay valid (CHANGES.md has the history).
    version: int


#: What a campaign kind is.  A new kind is one row here (and one sample in
#: ``tools/check_determinism.py``, which refuses to run without it).
KINDS: Dict[str, Kind] = {
    "recovery": Kind(
        reads=(
            "component", "trials", "shard", "oracle", "oracle_error_rate",
            "oracle_too_high_rate", "cure_set", "trial_timeout", "aging",
        ),
        identity=("tree", "oracle", "component", "cure_set", "shard"),
        run=_run_recovery,
        decode=_decode_recovery,
        version=3,
    ),
    "availability": Kind(
        reads=("horizon_s", "oracle"),
        identity=("kind", "tree", "horizon_s"),
        run=_run_availability,
        decode=_decode_availability,
        version=4,
    ),
    "chaos": Kind(
        reads=(
            "scenario", "trials", "oracle", "oracle_error_rate", "strategy",
            "drop",
        ),
        identity=("kind", "scenario", "tree"),
        run=_run_chaos,
        decode=_decode_chaos,
        version=8,
    ),
    "workload": Kind(
        reads=("strategy", "failure_kind", "trials", "request_rate"),
        identity=("kind", "strategy", "failure_kind", "tree"),
        run=_run_workload,
        decode=_decode_workload,
        version=5,
    ),
    "fleet": Kind(
        reads=(
            "fleet_size", "horizon_s", "wave_interval_s", "wave_drop", "oracle",
            "request_rate",
        ),
        identity=("kind", "tree", "fleet_size", "wave_interval_s", "horizon_s"),
        run=_run_fleet,
        decode=_decode_fleet,
        version=8,
    ),
}

_FIELD_DEFAULTS = {
    spec.name: spec.default
    for spec in dataclasses.fields(CampaignCell)
    if spec.default is not dataclasses.MISSING
}


def kind_of(cell: CampaignCell) -> Kind:
    """The cell's row of :data:`KINDS`; rejects an unknown kind and a cell
    that sets a field its kind does not read."""
    row = KINDS.get(cell.kind)
    if row is None:
        raise ExperimentError(f"cell sets kind={cell.kind!r}, which is not a row of KINDS ({', '.join(KINDS)})")
    for name, default in _FIELD_DEFAULTS.items():
        value = getattr(cell, name)
        if name not in row.reads and value != default:
            raise ExperimentError(f"cell sets {name}={value!r}, which kind {cell.kind!r} does not read")
    return row


def _checked(
    cell: CampaignCell, trees: Optional[Mapping[str, RestartTree]]
) -> Tuple[Kind, RestartTree]:
    """The cell's kind and tree: :func:`kind_of`, then a read field holding
    a value no run can use (a scenario that does not exist,
    ``trials`` below the kind's floor, a ``drop`` that is no probability or
    falls on a scenario without a network fabric) and a tree that does not
    exist are rejected — all before any station boots."""
    row = kind_of(cell)
    # A workload cell's trials are its injected failures: 0 is steady traffic.
    fewest = 0 if cell.kind == "workload" else 1
    if "trials" in row.reads and cell.trials < fewest:
        raise ExperimentError(f"cell sets trials={cell.trials!r}; kind {cell.kind!r} needs at least {fewest}")
    if "scenario" in row.reads:
        from repro.chaos.scenarios import SCENARIOS

        if cell.scenario not in SCENARIOS:
            raise ExperimentError(f"cell sets scenario={cell.scenario!r}, which is not in SCENARIOS")
        if not 0.0 <= cell.drop <= 1.0:
            raise ExperimentError(f"cell sets drop={cell.drop!r}; a drop rate is in [0, 1]")
        if cell.drop > 0 and not SCENARIOS[cell.scenario].uses_network:
            raise ExperimentError(
                f"cell sets drop={cell.drop!r}, but scenario {cell.scenario!r} "
                f"does not declare uses_network"
            )
    return row, _resolve_tree(cell.tree, trees)


def execute_cell(
    cell: CampaignCell,
    config: StationConfig = PAPER_CONFIG,
    trees: Optional[Mapping[str, RestartTree]] = None,
    layout: Layout = Layout(),
) -> Payload:
    """Run one cell to completion and return a JSON-serializable payload.

    This is the worker entry point — it must stay a module-level function
    so ``ProcessPoolExecutor`` can pickle it by reference.  A malformed
    cell is rejected (:func:`_checked`) before any station boots.
    """
    row, tree = _checked(cell, trees)
    return row.run(cell, tree, config, layout)


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
    structure (when an ad hoc tree object is supplied), and the cell's
    kind's cache version; any change to any input yields a different key.
    """
    identity = {
        # Not "version": no entry written under the old global version can
        # share a key with one written under a per-kind version.
        "kind_version": kind_of(cell).version,
        "cell": dataclasses.asdict(cell),
        "config": config_fingerprint(config),
        "tree": tree_fingerprint(tree) if tree is not None else cell.tree,
    }
    payload = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_read(
    cache_dir: str, key: str, cell: CampaignCell
) -> Optional[Payload]:
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
    cache_dir: str, key: str, cell: CampaignCell, result: Payload
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
    shards: int = 1,
) -> List[Payload]:
    """Execute every cell, returning payloads in planning order.

    ``jobs <= 1`` runs inline (no pool, no pickling); ``jobs > 1`` fans
    across processes.  Either way the result list is ordered like
    ``cells``, and each payload is a pure function of its cell spec, so
    the two modes are bit-identical.  With ``cache_dir``, cells whose key
    is already on disk are not recomputed.

    ``shards > 1`` lays each fleet cell out over that many kernel shards,
    and the ``jobs`` processes go to one cell's shards instead of to the
    cells, which then run one after another: a pool's workers are daemonic
    and cannot fan out in turn.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if shards < 1:
        raise ExperimentError(f"shards={shards!r}; a fleet runs on at least one kernel shard")
    results: List[Optional[Payload]] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    todo: List[int] = []
    for index, cell in enumerate(cells):
        _checked(cell, trees)  # a malformed cell fails here, before any runs
        if cache_dir is not None:
            tree = trees.get(cell.tree) if trees else None
            keys[index] = cache_key(cell, config, tree)
            cached = _cache_read(cache_dir, keys[index], cell)
            if cached is not None:
                results[index] = cached
                continue
        todo.append(index)

    def finished(index: int, result: Payload) -> None:
        # Published as each cell completes, so a later cell that raises (or
        # a Ctrl-C) keeps every finished cell on disk for the re-run.
        results[index] = result
        if cache_dir is not None:
            _cache_write(cache_dir, keys[index], cells[index], result)

    if shards > 1:
        layout = Layout(shards=shards, jobs=jobs)
        for index in todo:
            finished(index, execute_cell(cells[index], config, trees, layout))
    elif jobs <= 1 or len(todo) <= 1:
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


def _seed_part(value: object) -> object:
    """How a cell field enters the seed hash: a cure set as its sorted
    members (``-`` for none), anything else as itself."""
    if value is None or isinstance(value, tuple):
        return ",".join(sorted(value or ())) or "-"
    return value


def plan_cell(kind: str, root_seed: int, **fields: Any) -> CampaignCell:
    """One cell of ``kind`` with its seed derived from the kind's identity.

    The seed hashes the campaign root seed with the identity fields alone —
    never a position in a list — so growing any axis of a campaign cannot
    perturb another cell's random streams.
    """
    cell = CampaignCell(kind=kind, seed=0, **fields)
    identity = (_seed_part(getattr(cell, name)) for name in kind_of(cell).identity)
    return dataclasses.replace(cell, seed=campaign_seed(root_seed, *identity))


def run_suite(
    kind: str,
    axes: Mapping[str, Sequence[Any]],
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    shards: int = 1,
    **fixed: Any,
) -> Dict[Tuple[Any, ...], Any]:
    """One campaign of ``kind``: a cell per point of ``axes``.

    ``axes`` maps cell-field names to the values to sweep; ``fixed`` sets
    fields shared by every cell.  Returns ``{point: result}`` with the
    point's values in ``axes`` order and the result decoded by the kind.
    ``shards`` lays fleet cells out (:func:`run_campaign`).
    """
    points = list(itertools.product(*axes.values()))
    cells = [plan_cell(kind, seed, **fixed, **dict(zip(axes, point))) for point in points]
    payloads = run_campaign(
        cells, config=config, jobs=jobs, cache_dir=cache_dir, shards=shards
    )
    decode = KINDS[kind].decode
    return {point: decode(payload) for point, payload in zip(points, payloads)}


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
    if shard_size is None or shard_size >= trials:
        shards = [trials]
    else:
        shards = [
            min(shard_size, trials - start) for start in range(0, trials, shard_size)
        ]
    return [
        plan_cell(
            "recovery", seed, tree=tree_label, component=component,
            trials=shard_trials, shard=shard_index, **options,
        )
        for shard_index, shard_trials in enumerate(shards)
    ]


def merge_recovery_cells(
    cells: Sequence[CampaignCell], payloads: Sequence[Payload]
) -> RecoveryResult:
    """Reassemble one cell's shards into a :class:`RecoveryResult`."""
    if not payloads:
        raise ValueError("no payloads to merge")
    ordered = [p for _, p in sorted(zip(cells, payloads), key=lambda pair: pair[0].shard)]
    merged = _decode_recovery(ordered[0])
    merged.samples = [sample for payload in ordered for sample in payload["samples"]]
    merged.phases = merge_phase_snapshots(
        *(payload.get("phases", {}) for payload in ordered)
    )
    return merged


#: The paper's Table 4 (seconds), keyed by (tree, oracle) then component:
#: what ``repro table4`` prints and the reproduction suite asserts against.
PAPER_TABLE4 = {
    ("I", "perfect"): {
        "mbus": 24.75, "ses": 24.75, "str": 24.75, "rtu": 24.75, "fedrcom": 24.75,
    },
    ("II", "perfect"): {
        "mbus": 5.73, "ses": 9.50, "str": 9.76, "rtu": 5.59, "fedrcom": 20.93,
    },
    ("III", "perfect"): {
        "mbus": 5.73, "ses": 9.50, "str": 9.76, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 21.24,
    },
    ("IV", "perfect"): {
        "mbus": 5.73, "ses": 6.25, "str": 6.11, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 21.24,
    },
    ("IV", "faulty"): {
        "mbus": 5.73, "ses": 6.25, "str": 6.11, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 29.19,
    },
    ("V", "faulty"): {
        "mbus": 5.73, "ses": 6.25, "str": 6.11, "rtu": 5.59, "fedr": 5.76,
        "pbcom": 21.63,
    },
}

#: The Table 4 layout: (tree, oracle) rows, in the paper's order, and the
#: component columns.
TABLE4_ROWS = list(PAPER_TABLE4)
TABLE4_COLUMNS = ["mbus", "ses", "str", "rtu", "fedr", "pbcom", "fedrcom"]


def table4_cure_set(tree_label: str, oracle: str, component: str):
    """§4.4's rule: faulty-oracle pbcom failures need the joint restart."""
    if oracle == "faulty" and component == "pbcom":
        return ("fedr", "pbcom")
    return None


def run_recovery_matrix(
    rows: Sequence[Tuple[str, str]],
    columns: Sequence[str],
    trials: int = 100,
    seed: int = 0,
    oracle_error_rate: float = 0.3,
    config: StationConfig = PAPER_CONFIG,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    shard_size: Optional[int] = None,
    cure_set_for: Optional[
        Callable[[str, str, str], Optional[Tuple[str, ...]]]
    ] = None,
    trees: Optional[Mapping[str, RestartTree]] = None,
) -> Dict[Tuple[str, str, str], RecoveryResult]:
    """A Table 2/4 matrix: (tree, oracle) rows × component columns.

    Components absent from a row's tree are skipped.  ``cure_set_for``
    receives ``(tree_label, oracle, component)`` so callers can express
    the §4.4 rule (faulty-oracle pbcom failures need the joint restart).
    ``trees`` supplies ad hoc tree objects by label; any other label is a
    built-in tree.
    """
    plan: List[Tuple[Tuple[str, str, str], List[CampaignCell]]] = []
    for tree_label, oracle in rows:
        tree_components = _resolve_tree(tree_label, trees).components
        for component in columns:
            if component not in tree_components:
                continue
            cure = cure_set_for(tree_label, oracle, component) if cure_set_for else None
            cells = plan_recovery_cell(
                tree_label,
                component,
                trials,
                seed,
                shard_size=shard_size,
                oracle=oracle,
                oracle_error_rate=oracle_error_rate,
                cure_set=tuple(cure) if cure else None,
            )
            plan.append(((tree_label, oracle, component), cells))
    flat = [cell for _, group in plan for cell in group]
    payloads = iter(
        run_campaign(flat, config=config, jobs=jobs, cache_dir=cache_dir, trees=trees)
    )
    return {
        key: merge_recovery_cells(group, [next(payloads) for _ in group])
        for key, group in plan
    }
