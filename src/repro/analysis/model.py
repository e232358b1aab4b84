"""One analytic model of a restart tree (paper §3.2, §4.1, §4.4, §5.2, §7).

The paper's closed-form arguments — the §3.2 group bounds, the §4.1
expected-MTTR sum, the §4.4 guess-too-low blend and the §7 "algorithms for
transforming restart trees" — are all one composition, the same one the
simulator runs: detection, then a contended restart batch, then escalation.
:class:`SystemModel` computes it once, as the expected downtime one failure
causes (:meth:`SystemModel.failure_cost`), and builds every output from that
cost:

* :meth:`~SystemModel.expected_recovery` — mean recovery of one failure over
  the oracle's mistakes (the §4.4 and Table 4 value);
* :meth:`~SystemModel.downtime_rate` — ``Σ λ_c · cost_c``, what
  :func:`optimize_tree` scores candidate trees by;
* :meth:`~SystemModel.availability` — the series product
  ``Π MTTF_c / (MTTF_c + cost_c)`` (§8), assuming independent components;
* :meth:`~SystemModel.probability_failure_free` — §5.2's
  ``exp(−d · Σ λ_c)``: "a large MTTF does not guarantee a failure-free pass".

Cost of one failure
-------------------
::

    cost_m = Σ_cure f_m(cure) · [ E[recovery] + E[induced] ]

* ``E[recovery]`` composes detection, the (possibly mistaken) restart
  chain, and batch durations: a batch's duration is its slowest member's
  restart cost — plus a lone-resync penalty for a coupled component whose
  peer is outside the batch — inflated by the batch contention factor
  ``1 + c·(k−1)``, exactly as the simulator computes it.  So §3.2's bounds
  hold by construction: a group restart is never faster than its slowest
  member, and a group fails as soon as any member does.
* A guess-too-low oracle mistake (probability ``p``, §4.4) starts the chain
  at the deepest cell holding the manifest component and escalates
  parent-by-parent, paying each failed attempt plus a re-detection.
* ``E[induced]`` charges the §4.3 correlation: when the curing batch
  restarts one side of a resync pair without the other, the stale peer
  crashes (probability ``q``) and its own recovery episode is added.
  (Induction from *wasted* mistaken attempts is ignored — second-order for
  Mercury, where the mistake-prone components have no resync peer.)

Aging (§4.2) and proactive rejuvenation are outside this model; the
availability cell simulates them (:func:`repro.experiments.availability.
measure_availability`, ``rejuvenation_period_s``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.transformations import (
    consolidate_groups,
    insert_joint_node,
    promote_component,
)
from repro.core.tree import RestartTree
from repro.errors import TreeError
from repro.faults.curability import CurabilityProfile
from repro.mercury.config import PAPER_CONFIG, StationConfig


@dataclass(frozen=True)
class ComponentParams:
    """Failure and restart characteristics of one component."""

    name: str
    #: Failures per second (1 / MTTF).
    failure_rate: float
    #: Uncontended restart duration, seconds (startup work).
    restart_seconds: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.failure_rate < math.inf and self.restart_seconds >= 0.0):
            raise TreeError(
                f"invalid failure rate / restart time for {self.name!r}: "
                f"{self.failure_rate!r}, {self.restart_seconds!r}"
            )


@dataclass(frozen=True)
class ResyncPair:
    """A §4.3-style startup-resynchronisation coupling."""

    left: str
    right: str
    #: Extra restart seconds when ``left`` restarts without ``right``.
    left_lone_penalty: float
    #: Extra restart seconds when ``right`` restarts without ``left``.
    right_lone_penalty: float
    #: Probability a lone restart of one side crashes the stale peer.
    induce_probability: float = 1.0

    def peer_of(self, name: str) -> Optional[str]:
        """The coupled peer, or None."""
        if name == self.left:
            return self.right
        if name == self.right:
            return self.left
        return None

    def lone_penalty_of(self, name: str) -> float:
        """The penalty ``name`` pays when restarted without its peer."""
        if name == self.left:
            return self.left_lone_penalty
        if name == self.right:
            return self.right_lone_penalty
        return 0.0


@dataclass
class SystemModel:
    """A system's failure behaviour: what every analytic output is built from."""

    components: Dict[str, ComponentParams]
    curability: CurabilityProfile
    resync_pairs: List[ResyncPair] = field(default_factory=list)
    mean_detection: float = 0.7
    contention_coefficient: float = 0.047
    oracle_error_rate: float = 0.0
    remanifest_delay: float = 0.05

    def __post_init__(self) -> None:
        if not self.components:
            raise TreeError("a system needs at least one component")

    # ------------------------------------------------------------------
    # durations
    # ------------------------------------------------------------------

    def batch_duration(self, batch: FrozenSet[str]) -> float:
        """Wall-clock duration of restarting ``batch`` together."""
        if not batch:
            raise TreeError("empty restart batch")
        worst = 0.0
        for name in batch:
            params = self.components.get(name)
            if params is None:
                raise TreeError(f"no restart time for component {name!r}")
            seconds = params.restart_seconds
            for pair in self.resync_pairs:
                peer = pair.peer_of(name)
                if peer is not None and peer not in batch:
                    seconds += pair.lone_penalty_of(name)
            worst = max(worst, seconds)
        factor = 1.0 + self.contention_coefficient * (len(batch) - 1)
        return worst * factor

    # ------------------------------------------------------------------
    # per-failure expectations
    # ------------------------------------------------------------------

    def expected_recovery(
        self, tree: RestartTree, manifest: str, cure_set: Iterable[str]
    ) -> float:
        """Mean recovery time for one failure, over the oracle's mistakes."""
        cure_set = frozenset(cure_set)
        minimal = tree.minimal_cell_covering(cure_set)
        correct = self.mean_detection + self.batch_duration(
            tree.components_restarted_by(minimal)
        )
        p = self.oracle_error_rate
        low = tree.cell_of_component(manifest)
        if p <= 0.0 or low == minimal:
            return correct  # node promotion's point: no mistake is possible
        # Mistaken chain: attempt `low`, escalate parent-by-parent until a
        # covering cell; each failed attempt costs its duration plus a
        # re-manifestation and re-detection.
        mistaken = self.mean_detection
        for cell_id in tree.path_to_root(low):
            batch = tree.components_restarted_by(cell_id)
            mistaken += self.batch_duration(batch)
            if cure_set <= batch:
                break
            mistaken += self.remanifest_delay + self.mean_detection
        return (1.0 - p) * correct + p * mistaken

    def induced_cost(self, tree: RestartTree, batch: FrozenSet[str]) -> float:
        """Expected downtime of peer episodes the curing restart provokes."""
        total = 0.0
        for pair in self.resync_pairs:
            for name in (pair.left, pair.right):
                peer = pair.peer_of(name)
                assert peer is not None
                if name in batch and peer not in batch and peer in self.components:
                    # The stale peer crashes and runs its own (lone) episode;
                    # the freshness rule stops the cascade after one level.
                    episode = self.mean_detection + self.batch_duration(
                        tree.components_restarted_by(tree.cell_of_component(peer))
                    )
                    total += pair.induce_probability * episode
        return total

    def failure_cost(self, tree: RestartTree, manifest: str) -> float:
        """Expected downtime caused by one failure manifesting in ``manifest``."""
        total = 0.0
        for probability, cure in self.curability.alternatives_for(manifest):
            if probability <= 0.0:
                continue
            recovery = self.expected_recovery(tree, manifest, cure)
            curing_batch = tree.components_restarted_by(
                tree.minimal_cell_covering(cure)
            )
            total += probability * (recovery + self.induced_cost(tree, curing_batch))
        return total

    # ------------------------------------------------------------------
    # system-level outputs
    # ------------------------------------------------------------------

    def _rates_and_costs(self, tree: RestartTree) -> Iterator[Tuple[float, float]]:
        mismatch = set(self.components) ^ tree.components
        if mismatch:
            raise TreeError(
                f"tree {tree.name!r} and the model disagree on components "
                f"{sorted(mismatch)}"
            )
        for name, params in self.components.items():
            yield params.failure_rate, self.failure_cost(tree, name)

    def downtime_rate(self, tree: RestartTree) -> float:
        """Expected seconds of downtime per second of operation."""
        return sum(rate * cost for rate, cost in self._rates_and_costs(tree))

    def availability(self, tree: RestartTree) -> float:
        """Series availability ``Π MTTF_c / (MTTF_c + cost_c)`` (``A_entire``).

        Components are taken as independent alternating-renewal processes;
        the correlations the simulator models beyond the induced peer
        episode (pbcom aging, overlapping outages) are not in it.
        """
        product = 1.0
        for rate, cost in self._rates_and_costs(tree):
            product /= 1.0 + rate * cost
        return product

    def probability_failure_free(self, duration_s: float) -> float:
        """P(no failure in an interval) under exponential lifetimes (§5.2)."""
        if duration_s < 0:
            raise TreeError(f"duration must be non-negative: {duration_s!r}")
        total_rate = sum(c.failure_rate for c in self.components.values())
        return math.exp(-duration_s * total_rate)


# ----------------------------------------------------------------------
# the search (§7)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizationStep:
    """One accepted greedy move."""

    description: str
    downtime_rate: float


@dataclass
class OptimizationResult:
    """Outcome of :func:`optimize_tree`."""

    tree: RestartTree
    downtime_rate: float
    initial_downtime_rate: float
    steps: List[OptimizationStep]

    @property
    def improvement_factor(self) -> float:
        """How many times lower the optimized downtime rate is."""
        if self.downtime_rate == 0:
            return float("inf")
        return self.initial_downtime_rate / self.downtime_rate


def neighbor_trees(tree: RestartTree) -> Iterator[Tuple[str, RestartTree]]:
    """All single-transformation neighbors of ``tree``.

    Moves: consolidate any two sibling cells; insert a joint node over any
    two sibling cells; promote any non-root-attached component one level.
    """
    counter = 0

    def fresh_id(prefix: str, pair: Sequence[str]) -> str:
        nonlocal counter
        while True:
            counter += 1
            candidate = f"{prefix}{counter}_{'_'.join(pair)}"[:60]
            if not tree.has_cell(candidate):
                return candidate

    for parent_id in tree.cell_ids:
        parent = tree.get_cell(parent_id)
        children = [child.cell_id for child in parent.children]
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                pair = [children[i], children[j]]
                yield (
                    f"consolidate({pair[0]}, {pair[1]})",
                    consolidate_groups(tree, pair, fresh_id("M", pair)),
                )
                yield (
                    f"insert_joint({pair[0]}, {pair[1]})",
                    insert_joint_node(tree, pair, fresh_id("J", pair)),
                )
    for component in sorted(tree.components):
        home = tree.cell_of_component(component)
        if tree.parent_of(home) is not None:
            yield (f"promote({component})", promote_component(tree, component))


def optimize_tree(
    model: SystemModel,
    initial: RestartTree,
    max_iterations: int = 50,
    min_relative_gain: float = 1e-6,
) -> OptimizationResult:
    """Greedy descent over the transformation neighborhood.

    At each iteration, evaluates every neighbor's downtime rate and takes
    the best strictly improving move; stops when no move improves by more
    than ``min_relative_gain`` (relative) or after ``max_iterations``.
    Greedy is adequate here: the §4 transformations' gains are largely
    independent (they touch disjoint subtrees), which is also why the
    paper could apply them one at a time.
    """
    current = initial
    current_cost = model.downtime_rate(current)
    initial_cost = current_cost
    steps: List[OptimizationStep] = []
    for _ in range(max_iterations):
        best: Optional[Tuple[str, RestartTree, float]] = None
        for description, candidate in neighbor_trees(current):
            cost = model.downtime_rate(candidate)
            if best is None or cost < best[2]:
                best = (description, candidate, cost)
        if best is None or best[2] >= current_cost * (1.0 - min_relative_gain):
            break
        description, current, current_cost = best
        steps.append(OptimizationStep(description, current_cost))
    return OptimizationResult(
        tree=current.with_name(f"{initial.name}+optimized"),
        downtime_rate=current_cost,
        initial_downtime_rate=initial_cost,
        steps=steps,
    )


# ----------------------------------------------------------------------
# Mercury's inputs
# ----------------------------------------------------------------------


def _table_entry(table: Mapping[str, float], name: str, what: str) -> float:
    try:
        return table[name]
    except KeyError:
        raise TreeError(f"the config has no {what} for component {name!r}") from None


def mercury_system_model(
    tree: RestartTree,
    config: Optional[StationConfig] = None,
    oracle_error_rate: float = 0.3,
    pbcom_joint_fraction: float = 0.4,
) -> SystemModel:
    """The Mercury inputs the paper derived its trees from, for ``tree``'s
    components.

    Failure rates come from Table 1 (``config.mttf_seconds``), joint
    restart costs from ``config.restart_seconds``, and resync pairs from
    each timing's ``resync_peer``.
    ``pbcom_joint_fraction`` is the share of pbcom-manifest failures that
    are only curable by the joint [fedr, pbcom] restart (the §4.4 class);
    the paper gives no number, only that such failures exist.
    """
    config = config or PAPER_CONFIG
    names = sorted(tree.components)
    restart = config.restart_seconds(lone=False)
    components = {
        name: ComponentParams(
            name=name,
            failure_rate=1.0 / _table_entry(config.mttf_seconds, name, "MTTF"),
            restart_seconds=_table_entry(restart, name, "restart time"),
        )
        for name in names
    }
    curability = CurabilityProfile()
    for name in names:
        if name == "pbcom" and pbcom_joint_fraction > 0:
            curability.set_alternatives(
                "pbcom",
                [
                    (1.0 - pbcom_joint_fraction, ["pbcom"]),
                    (pbcom_joint_fraction, ["pbcom", "fedr"]),
                ],
            )
        else:
            curability.set_simple(name)
    resync_pairs = []
    for name in names:
        timing = config.timing_for(name)
        peer = timing.resync_peer
        if peer in components and name < peer:
            resync_pairs.append(
                ResyncPair(
                    name,
                    peer,
                    left_lone_penalty=timing.lone_penalty,
                    right_lone_penalty=config.timing_for(peer).lone_penalty,
                    induce_probability=config.resync_induce_probability,
                )
            )
    return SystemModel(
        components=components,
        curability=curability,
        resync_pairs=resync_pairs,
        mean_detection=config.mean_detection,
        contention_coefficient=config.contention_coefficient,
        oracle_error_rate=oracle_error_rate,
        remanifest_delay=config.remanifest_delay,
    )
