"""Unit tests for the recovery-strategy registry.

Covers the registry itself (lookup, registration errors), the
:class:`RecoveryPlan` gate semantics, each strategy's ``plan`` logic
against duck-typed process-manager fakes, the bisect verify ladder, the
:class:`StrategyMap` resolution order, and recursive recovery (§7): a
per-cell strategy's start hint reaching the component, and an uncured
attempt escalating to a cold parent restart.
"""

import pytest

from repro.core.oracle import NaiveOracle
from repro.core.policy import RestartPolicy
from repro.core.recovery_strategies import (
    REPLAY_HINT,
    BisectStrategy,
    CheckpointReplayStrategy,
    MicrorebootStrategy,
    RecoveryPlan,
    RestartStrategy,
    StrategyContext,
    StrategyMap,
    get_strategy,
    observed_failure_kind,
    register_strategy,
    strategy_names,
)
from repro.core.tree import RestartTree, cell
from repro.detection.abstract import AbstractSupervisor
from repro.faults.injector import FaultInjector
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, StartupContext
from repro.sim.kernel import Kernel


# ----------------------------------------------------------------------
# fakes: just enough manager/process surface for plan()/verify()
# ----------------------------------------------------------------------


class _FakeState:
    def __init__(self, terminal):
        self.is_terminal = terminal


class _FakeProcess:
    def __init__(self, terminal=False, degraded=None):
        self.state = _FakeState(terminal)
        self.degraded_mode = degraded


class _FakeManager:
    def __init__(self, processes):
        self._processes = processes

    def maybe_get(self, name):
        return self._processes.get(name)


def _ctx(components, trigger, processes=None):
    return StrategyContext(
        manager=_FakeManager(processes or {}),
        components=frozenset(components),
        trigger=trigger,
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_shipped_strategies_registered():
    assert strategy_names() == ("bisect", "checkpoint-replay", "microreboot", "restart")
    assert isinstance(get_strategy("restart"), RestartStrategy)
    assert isinstance(get_strategy("microreboot"), MicrorebootStrategy)
    assert isinstance(get_strategy("checkpoint-replay"), CheckpointReplayStrategy)
    assert isinstance(get_strategy("bisect"), BisectStrategy)
    # stateless singletons: the registry hands out the same instance
    assert get_strategy("restart") is get_strategy("restart")


def test_unknown_strategy_lists_known_names():
    with pytest.raises(KeyError, match="known:.*restart"):
        get_strategy("reboot-harder")


def test_register_requires_a_name():
    class Nameless(RestartStrategy):
        name = ""

    with pytest.raises(ValueError, match="non-empty name"):
        register_strategy(Nameless())


def test_plan_gate_defaults_to_batch():
    plan = RecoveryPlan(batch=frozenset({"a", "b"}), label="x")
    assert plan.gate == frozenset({"a", "b"})
    probe = RecoveryPlan(
        batch=frozenset({"a", "b"}), label="x", expecting=frozenset({"a"})
    )
    assert probe.gate == frozenset({"a"})


# ----------------------------------------------------------------------
# per-strategy planning
# ----------------------------------------------------------------------


def test_restart_plan_is_full_batch_with_procedure_label():
    ctx = _ctx({"ses", "str"}, "ses")
    plan = RestartStrategy().plan(ctx)
    assert plan.batch == frozenset({"ses", "str"})
    assert plan.expecting is None
    assert plan.hint == "cold"
    assert plan.label == "restart"  # the ``procedure`` field of the order


def test_microreboot_plan_bounces_only_unhealthy_members():
    processes = {
        "ses": _FakeProcess(terminal=True),
        "str": _FakeProcess(),
        "fedr": _FakeProcess(),
    }
    ctx = _ctx({"ses", "str", "fedr"}, "ses", processes)
    plan = MicrorebootStrategy().plan(ctx)
    # the *claimed* batch is the whole cell (suppression must cover a
    # possible widening); only the unhealthy member actually bounces
    assert plan.batch == frozenset({"ses", "str", "fedr"})
    assert plan.expecting == frozenset({"ses"})
    assert plan.gate == frozenset({"ses"})
    assert plan.hint == "micro"
    assert plan.verify_delay == pytest.approx(MicrorebootStrategy.VERIFY_DELAY)


def test_microreboot_includes_degraded_and_trigger():
    processes = {
        "ses": _FakeProcess(),
        "str": _FakeProcess(degraded="hang"),
        "fedr": _FakeProcess(),
    }
    ctx = _ctx({"ses", "str", "fedr"}, "ses", processes)
    plan = MicrorebootStrategy().plan(ctx)
    # str is observably degraded; ses is the (healthy-looking) trigger
    assert plan.gate == frozenset({"ses", "str"})


def test_microreboot_all_healthy_falls_back_to_full_batch():
    processes = {"ses": _FakeProcess(), "str": _FakeProcess()}
    ctx = _ctx({"ses", "str"}, "mbus", processes)  # trigger outside the cell
    plan = MicrorebootStrategy().plan(ctx)
    assert plan.batch == frozenset({"ses", "str"})
    assert plan.expecting is None  # a full bounce needs no verify step


def test_microreboot_verify_completes_when_partial_bounce_cured():
    processes = {"ses": _FakeProcess(terminal=True), "str": _FakeProcess()}
    ctx = _ctx({"ses", "str"}, "ses", processes)
    strategy = MicrorebootStrategy()
    plan = strategy.plan(ctx)
    processes["ses"] = _FakeProcess()  # healthy again after the bounce
    assert strategy.verify(ctx, plan) is None


def test_microreboot_verify_widens_to_full_batch_on_remanifest():
    # a joint failure: ses manifests, the cure set includes healthy-looking
    # str — the partial bounce cannot cure it at any escalation level
    processes = {"ses": _FakeProcess(degraded="zombie"), "str": _FakeProcess()}
    ctx = _ctx({"ses", "str"}, "ses", processes)
    strategy = MicrorebootStrategy()
    plan = strategy.plan(ctx)
    follow = strategy.verify(ctx, plan)
    assert follow is not None
    assert follow.gate == frozenset({"ses", "str"})
    assert follow.hint == "micro"  # externalised state survives the widening
    # the widening runs at most once per action
    assert strategy.verify(ctx, follow) is None
    ctx.rounds = 1  # what the supervisor sets after running the follow-up
    assert strategy.verify(ctx, plan) is None


def test_checkpoint_replay_plan_is_full_batch_with_replay_hint():
    ctx = _ctx({"fedr", "pbcom"}, "fedr")
    plan = CheckpointReplayStrategy().plan(ctx)
    assert plan.batch == frozenset({"fedr", "pbcom"})
    assert plan.hint == "replay"


# ----------------------------------------------------------------------
# bisect ladder
# ----------------------------------------------------------------------


def test_bisect_ladder_probes_trigger_half_first():
    ctx = _ctx({"a", "b", "c", "d"}, "c")
    strategy = BisectStrategy()
    plan = strategy.plan(ctx)
    # ordered [a,b,c,d] splits to [a,b]/[c,d]; trigger c is in the second
    # half, so the ladder probes {c,d} first
    assert plan.batch == frozenset({"a", "b", "c", "d"})
    assert plan.expecting == frozenset({"c", "d"})
    assert plan.verify_delay == pytest.approx(BisectStrategy.VERIFY_DELAY)
    assert ctx.state["ladder"] == [
        frozenset({"c", "d"}),
        frozenset({"a", "b", "c"}),
        frozenset({"a", "b", "c", "d"}),
    ]


def test_bisect_verify_completes_when_trigger_cured():
    processes = {"c": _FakeProcess()}  # healthy again
    ctx = _ctx({"a", "b", "c", "d"}, "c", processes)
    strategy = BisectStrategy()
    plan = strategy.plan(ctx)
    assert strategy.verify(ctx, plan) is None


def test_bisect_verify_widens_then_gives_up():
    processes = {"c": _FakeProcess(degraded="zombie")}  # keeps re-manifesting
    ctx = _ctx({"a", "b", "c", "d"}, "c", processes)
    strategy = BisectStrategy()
    plan = strategy.plan(ctx)
    second = strategy.verify(ctx, plan)
    assert second is not None and second.expecting == frozenset({"a", "b", "c"})
    third = strategy.verify(ctx, second)
    assert third is not None and third.expecting == frozenset({"a", "b", "c", "d"})
    # the full-group probe ran and it is still sick: complete, let the
    # escalation policy take over
    assert strategy.verify(ctx, third) is None


def test_bisect_single_component_cell_degenerates_to_plain_restart():
    ctx = _ctx({"solo"}, "solo")
    strategy = BisectStrategy()
    plan = strategy.plan(ctx)
    assert plan.batch == frozenset({"solo"})
    assert plan.expecting is None
    assert strategy.verify(ctx, plan) is None


# ----------------------------------------------------------------------
# observed failure kind
# ----------------------------------------------------------------------


def test_observed_failure_kind():
    manager = _FakeManager(
        {
            "dead": _FakeProcess(terminal=True),
            "hung": _FakeProcess(degraded="hang"),
            "fine": _FakeProcess(),
        }
    )
    assert observed_failure_kind(manager, "dead") == "crash"
    assert observed_failure_kind(manager, "hung") == "hang"
    assert observed_failure_kind(manager, "fine") == "unknown"
    assert observed_failure_kind(manager, "ghost") == "unknown"


# ----------------------------------------------------------------------
# strategy map resolution
# ----------------------------------------------------------------------


def test_strategy_map_resolution_order():
    sm = StrategyMap(
        default="restart",
        cells={"R_a": "microreboot"},
        kinds={"zombie": "bisect"},
        cell_kinds={("R_a", "zombie"): "restart"},
    )
    # most specific wins: (cell, kind) > cell > kind > default
    assert sm.select("R_a", "zombie") == "restart"
    assert sm.select("R_a", "crash") == "microreboot"
    assert sm.select("R_b", "zombie") == "bisect"
    assert sm.select("R_b", "crash") == "restart"  # explicit default


def test_strategy_map_tree_annotation_and_fallbacks():
    # a tree node carries no strategy: the map is the one place to say it
    with pytest.raises(TypeError):
        cell("R_a", ["a"], strategy="checkpoint-replay")
    sm = StrategyMap(cells={"R_a": "checkpoint-replay"})
    assert sm.select("R_a", "crash") == "checkpoint-replay"
    # no override, no default: the oracle hint, then restart
    assert sm.select("R_b", "crash", oracle_hint="microreboot") == "microreboot"
    assert sm.select("R_b", "crash") == "restart"


def test_strategy_map_explicit_default_outranks_oracle_hint():
    # a sweep forcing microreboot everywhere must measure microreboot,
    # whatever the oracle would have recommended
    sm = StrategyMap(default="microreboot")
    assert sm.select("R_b", "crash", oracle_hint="bisect") == "microreboot"


def test_strategy_map_rejects_typos_at_construction():
    with pytest.raises(KeyError, match="unknown recovery strategy"):
        StrategyMap(default="restrat")
    with pytest.raises(KeyError, match="unknown recovery strategy"):
        StrategyMap(cells={"R_a": "microboot"})


# ----------------------------------------------------------------------
# recursive recovery (§7): a per-cell strategy, escalating cold
# ----------------------------------------------------------------------


def checkpointed_work(cold: float, replay: float):
    """A hard-state component: cold log replay vs checkpoint restore."""

    def work(context: StartupContext) -> float:
        return replay if context.hint == REPLAY_HINT else cold

    return work


@pytest.fixture
def rig():
    kernel = Kernel(seed=7)
    manager = ProcessManager(kernel)
    manager.spawn(ProcessSpec("web", lambda ctx: 2.0))
    manager.spawn(ProcessSpec("db", checkpointed_work(cold=30.0, replay=3.0)))
    manager.start_all()
    kernel.run()
    tree = RestartTree(
        cell("root", children=[cell("R_web", ["web"]), cell("R_db", ["db"])]),
        name="svc",
    )
    injector = FaultInjector(kernel, manager)
    return kernel, manager, tree, injector


def _push(manager, strategy, components):
    """Plan and execute one step of ``strategy`` on a live manager."""
    ctx = StrategyContext(
        manager=manager, components=frozenset(components), trigger=components[0]
    )
    strategy.execute(ctx, strategy.plan(ctx))


def test_replay_hint_reaches_startup_context(rig):
    kernel, manager, tree, injector = rig
    _push(manager, CheckpointReplayStrategy(), ["db"])
    kernel.run()
    start = kernel.trace.last("process_start", name="db")
    assert start.data["work"] == pytest.approx(3.0)  # checkpoint path taken


def test_cold_restart_unchanged(rig):
    kernel, manager, tree, injector = rig
    _push(manager, RestartStrategy(), ["db"])
    kernel.run()
    start = kernel.trace.last("process_start", name="db")
    assert start.data["work"] == pytest.approx(30.0)


def test_components_ignoring_hints_are_unaffected(rig):
    kernel, manager, tree, injector = rig
    _push(manager, CheckpointReplayStrategy(), ["web"])
    kernel.run()
    start = kernel.trace.last("process_start", name="web")
    assert start.data["work"] == pytest.approx(2.0)


def _supervise(kernel, manager, tree):
    AbstractSupervisor(
        kernel,
        manager,
        RestartPolicy(tree, NaiveOracle()),
        monitored=["web", "db"],
        strategies=StrategyMap(cells={"R_db": "checkpoint-replay"}),
    )


def test_supervisor_uses_per_cell_strategy(rig):
    kernel, manager, tree, injector = rig
    _supervise(kernel, manager, tree)
    failure = injector.inject_simple("db")
    deadline = kernel.now + 60.0
    while kernel.now < deadline and injector.is_active(failure.failure_id):
        assert kernel.step()
    assert not injector.is_active(failure.failure_id)
    recovery = kernel.now - failure.injected_at
    assert recovery < 5.0  # checkpoint: ~0.7 detect + 3.0, not 30.0


def test_escalation_falls_back_to_cold_parent(rig):
    """An uncured checkpoint-replay escalates to the parent cell, whose
    restart is cold — 'try the cheapest cure first'."""
    kernel, manager, tree, injector = rig
    _supervise(kernel, manager, tree)
    # Cure requires the whole root (both components together).
    failure = injector.inject_joint("db", ["db", "web"])
    deadline = kernel.now + 120.0
    while kernel.now < deadline and injector.is_active(failure.failure_id):
        assert kernel.step()
    assert not injector.is_active(failure.failure_id)
    ordered = [r.data["cell"] for r in kernel.trace.filter(kind="restart_ordered")]
    assert ordered == ["R_db", "root"]
    # First attempt was the cheap checkpoint one; the curing root restart was cold.
    db_starts = [r.data["work"] for r in kernel.trace.filter(kind="process_start", name="db")]
    assert db_starts[-2:] == [pytest.approx(3.0), pytest.approx(30.0)]


def test_rec_trace_names_strategy():
    from repro.mercury.station import MercuryStation
    from repro.mercury.trees import tree_v

    station = MercuryStation(
        tree=tree_v(), seed=141, strategies=StrategyMap(cells={"R_rtu": "checkpoint-replay"})
    )
    station.boot()
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    order = station.trace.first("restart_ordered")
    assert order.data["procedure"] == "checkpoint-replay"
    assert order.data["strategy"] == "checkpoint-replay"
