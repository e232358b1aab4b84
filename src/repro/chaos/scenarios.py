"""Adversarial fault schedules as seed-reproducible objects.

A :class:`Scenario` is a *recipe*; calling :meth:`Scenario.build` with a
named RNG stream and the station's component list produces a concrete
:class:`ScenarioPlan` — a sorted tuple of timed injections plus the
correlated-failure groups to arm.  Build is the only place randomness
enters, and the RNG is a kernel-derived named stream, so the same (seed,
scenario, tree) triple always yields the same plan, byte for byte.

The catalogue covers the four adversarial shapes the chaos engine ships:

``cascade``
    A shared-fate :class:`~repro.faults.correlation.CorrelationGroup` over
    ses/str/rtu — one injected crash fells the whole domain, forcing the
    supervisor to unwind a multi-component pile-up.
``storm``
    Faults arriving *during* recovery: the slow radio proxy is killed
    first, then other components are shot while its ~20 s restart is still
    in flight (including a second hit on a component mid-own-restart).
``flapping``
    A flaky supervisor: FD and REC are killed around an active station
    fault, exercising the mutual-recovery special case while real recovery
    work is pending.
``mixed``
    Transient crashes interleaved with a persistent joint-cure failure
    (§4.4's [fedr, pbcom] shape), so singleton restarts re-manifest and
    escalation has to climb the tree.
``lossy``
    Real crashes under a lossy, spiky network: the fault fabric drops and
    delays bus traffic while components die, stressing the adaptive
    detector's false-positive discipline (timed :class:`NetOp` operations,
    ``station_overrides`` switching the detector to the adaptive policy).
``partition``
    Timed bidirectional partitions (fd↔mbus, then ses↔mbus) around real
    crashes: every component looks dead through a cut link, so the
    detector's partition suspicion must hold declarations until the fabric
    heals.
``zombie-fleet``
    Fail-slow failures only: two zombies (answer pings, drop work) and a
    hang, unmasked by end-to-end health probes rather than liveness pings.
``store-outage``
    The session store itself crashes and hangs around real component
    faults (timed :class:`StoreOp` windows plus torn/corrupt write
    probabilities): stateful strategies must detect the outage within
    the timeout ladder and fall back to plain cold restarts.
``rogue-oracle-crash``
    REC — hosting the oracle — is shot moments after ordering recovery:
    stale pre-crash plans must be fenced, FD's watchdog restarts REC
    crash-only, and the fresh incarnation reconciles half-done episodes
    and rebuilds the oracle's estimates from the store.
``blind``, ``hung-fd``, ``hung-rec``
    Double faults in the recovery plane: the bus and REC die at one
    instant, or one supervisor hangs, and a station fault follows; the
    surviving supervisor must rebuild its peer and the pair recover the
    station.
``detection``
    The detection-accuracy ablation's schedule: three crashes over
    rtu/ses/str, 12–18 s apart, then a 40 s tail.  It scripts no fabric
    operation itself: a cell's ``drop`` degrades every link for the whole
    trial (``repro detection-ablation`` sweeps it), and the timeout policy
    is the station config's, never overridden here.  The restart budget is
    lifted far up, because at high drop the fixed policy restarts almost
    continuously, and the ablation measures the detector, not the budget.

Scenarios targeting components a given tree generation does not run
(fedrcom after the split, fedr and pbcom before it) degrade gracefully: the
engine counts those injections as *skipped* rather than failing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Injection:
    """One timed fault: fail ``component`` at plan-relative time ``at``.

    ``cure_set`` of None means a plain crash (cured by restarting the
    component alone); otherwise the failure re-manifests until a restart
    batch covers the whole set.
    """

    at: float
    component: str
    cure_set: Optional[Tuple[str, ...]] = None
    kind: str = "chaos"


@dataclass(frozen=True)
class NetOp:
    """One timed network-fabric operation at plan-relative time ``at``.

    ``kind`` is ``"degrade"`` (lossy link: drops, delay spikes, duplicates)
    or ``"partition"`` (bidirectional silence).  ``a``/``b`` name the link's
    component endpoints; ``"*"`` degrades the default profile applied to
    every link (partitions must name both ends).  A ``duration`` makes the
    operation self-healing; ``None`` leaves it in force until the engine
    clears the fabric at drain time.
    """

    at: float
    kind: str = "degrade"
    a: str = "*"
    b: str = "*"
    duration: Optional[float] = None
    drop: float = 0.0
    spike_probability: float = 0.0
    spike_seconds: Tuple[float, float] = (0.05, 0.25)
    duplicate_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("degrade", "partition"):
            raise ValueError(f"unknown net op kind {self.kind!r}")
        if self.kind == "partition":
            if "*" in (self.a, self.b):
                raise ValueError("partitions must name both link endpoints")
            if self.duration is None or self.duration <= 0:
                raise ValueError("partitions need a positive duration")


@dataclass(frozen=True)
class StoreOp:
    """One timed session-store outage at plan-relative time ``at``.

    ``kind`` is ``"crash"`` (the storelet dies: operations fail fast after
    the retry ladder's backoff gaps) or ``"hang"`` (it stops answering:
    every attempt burns its full per-op timeout too).  The window heals
    itself after ``duration`` seconds.
    """

    at: float
    kind: str = "crash"
    duration: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "hang"):
            raise ValueError(f"unknown store op kind {self.kind!r}")
        if self.duration <= 0.0:
            raise ValueError(f"store outages need a positive duration: {self!r}")


@dataclass(frozen=True)
class GroupSpec:
    """A shared-fate correlation group to arm for the scenario's duration."""

    members: Tuple[str, ...]
    induce_probability: float = 1.0
    induced_delay: float = 0.3


@dataclass(frozen=True)
class ScenarioPlan:
    """A concrete schedule: injections sorted by time, groups, horizon.

    ``horizon`` is how long past the trial's start the engine keeps the
    simulation running before draining to quiescence — late injections and
    their recovery tails must fit inside it.
    """

    injections: Tuple[Injection, ...]
    groups: Tuple[GroupSpec, ...] = ()
    horizon: float = 60.0
    #: Timed network-fabric operations, interleaved with the injections.
    net_ops: Tuple[NetOp, ...] = ()
    #: Timed session-store outages (crash/hang windows).
    store_ops: Tuple[StoreOp, ...] = ()


#: Builds a plan from a dedicated RNG and the station's component tuple.
PlanBuilder = Callable[[random.Random, Tuple[str, ...]], ScenarioPlan]


@dataclass(frozen=True)
class Scenario:
    """A named chaos recipe.

    ``station_overrides`` are :class:`~repro.mercury.config.StationConfig`
    field overrides the engine applies before building the station (e.g.
    switching the detector to the adaptive timeout policy, enabling
    end-to-end probes); a tuple of pairs so the recipe stays hashable.
    ``uses_network`` declares that the recipe scripts the fault fabric, so
    the engine must build the station with a
    :class:`~repro.transport.network.NetworkFaultModel` attached.
    ``uses_store`` declares that the recipe injects session-store faults:
    the engine attaches a
    :class:`~repro.faults.store_faults.StoreFaultModel` post-boot,
    configured from ``store_faults`` (field/value pairs, kept as a tuple
    of pairs so the recipe stays hashable).  ``default_strategy`` names a
    recovery-strategy registry entry the engine uses when the caller did
    not pick one — recipes that exercise the crash-only recovery plane
    need a stateful strategy (and thus a store) to mean anything.
    """

    name: str
    description: str
    builder: PlanBuilder = field(compare=False)
    station_overrides: Tuple[Tuple[str, object], ...] = ()
    uses_network: bool = False
    uses_store: bool = False
    default_strategy: Optional[str] = None
    store_faults: Tuple[Tuple[str, float], ...] = ()

    def build(self, rng: random.Random, components: Sequence[str]) -> ScenarioPlan:
        """Materialise the plan for one station (deterministic in ``rng``)."""
        plan = self.builder(rng, tuple(components))
        injections = tuple(sorted(plan.injections, key=lambda i: (i.at, i.component)))
        for injection in injections:
            if injection.at < 0.0:
                raise ValueError(f"injection before trial start: {injection!r}")
        net_ops = tuple(sorted(plan.net_ops, key=lambda op: (op.at, op.a, op.b)))
        for op in net_ops:
            if op.at < 0.0:
                raise ValueError(f"net op before trial start: {op!r}")
        if net_ops and not self.uses_network:
            raise ValueError(
                f"scenario {self.name!r} plans net ops but does not declare "
                f"uses_network=True"
            )
        store_ops = tuple(sorted(plan.store_ops, key=lambda op: (op.at, op.kind)))
        for op in store_ops:
            if op.at < 0.0:
                raise ValueError(f"store op before trial start: {op!r}")
        if store_ops and not self.uses_store:
            raise ValueError(
                f"scenario {self.name!r} plans store ops but does not declare "
                f"uses_store=True"
            )
        return ScenarioPlan(
            injections=injections,
            groups=plan.groups,
            horizon=plan.horizon,
            net_ops=net_ops,
            store_ops=store_ops,
        )


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------


def _radio_proxy(components: Tuple[str, ...]) -> str:
    return "fedrcom" if "fedrcom" in components else "pbcom"


def _build_cascade(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    first = rng.uniform(5.0, 10.0)
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="rtu"),
            Injection(at=first + rng.uniform(30.0, 40.0), component="ses"),
        ),
        groups=(
            GroupSpec(
                members=("ses", "str", "rtu"),
                induce_probability=1.0,
                induced_delay=rng.uniform(0.2, 0.4),
            ),
        ),
        horizon=120.0,
    )


def _build_storm(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    proxy = _radio_proxy(components)
    first = rng.uniform(5.0, 10.0)
    # The proxy restart runs ~20 s; everything below lands inside it (and
    # the second rtu hit typically lands inside rtu's *own* recovery).
    return ScenarioPlan(
        injections=(
            Injection(at=first, component=proxy),
            Injection(at=first + rng.uniform(3.0, 6.0), component="rtu"),
            Injection(at=first + rng.uniform(8.0, 12.0), component="ses"),
            Injection(at=first + rng.uniform(14.0, 18.0), component="rtu"),
        ),
        horizon=180.0,
    )


def _build_flapping(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    first = rng.uniform(5.0, 10.0)
    # FD dies before it can report the rtu fault; REC dies a little later,
    # mid-recovery.  The watchdog pair must rebuild itself around the
    # pending station failure, then handle a second fault cleanly.
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="rtu"),
            Injection(at=first + rng.uniform(0.2, 0.6), component="fd", kind="flap"),
            Injection(at=first + rng.uniform(6.0, 10.0), component="rec", kind="flap"),
            Injection(at=first + rng.uniform(25.0, 30.0), component="str"),
        ),
        horizon=120.0,
    )


def _build_mixed(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    if "pbcom" in components:
        persistent = Injection(
            at=rng.uniform(20.0, 25.0),
            component="pbcom",
            cure_set=("fedr", "pbcom"),
            kind="persistent",
        )
    else:
        persistent = Injection(
            at=rng.uniform(20.0, 25.0),
            component="ses",
            cure_set=("ses", "str"),
            kind="persistent",
        )
    first = rng.uniform(3.0, 6.0)
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="rtu", kind="transient"),
            persistent,
            Injection(at=persistent.at + rng.uniform(35.0, 45.0), component="str",
                      kind="transient"),
        ),
        horizon=150.0,
    )


def _build_lossy(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    start = rng.uniform(2.0, 4.0)
    window = rng.uniform(45.0, 60.0)
    # Real crashes land *inside* the lossy window, so the detector must
    # find them through the noise without declaring healthy components.
    return ScenarioPlan(
        injections=(
            Injection(at=start + rng.uniform(6.0, 10.0), component="rtu"),
            Injection(at=start + rng.uniform(25.0, 32.0), component="ses"),
        ),
        net_ops=(
            NetOp(
                at=start,
                kind="degrade",
                duration=window,
                drop=0.12,
                spike_probability=0.15,
                spike_seconds=(0.05, 0.3),
                duplicate_probability=0.03,
            ),
        ),
        horizon=start + window + 60.0,
    )


def _build_partition(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    first = rng.uniform(6.0, 9.0)
    second = first + rng.uniform(30.0, 35.0)
    # Cutting fd off the bus blinds it to *every* component at once — the
    # signature partition suspicion must recognise and sit out.  The rtu
    # crash during the cut is detected only after the heal; the late str
    # crash checks the detector recovered its normal reflexes.
    return ScenarioPlan(
        injections=(
            Injection(at=first + rng.uniform(3.0, 6.0), component="rtu"),
            Injection(at=first + rng.uniform(55.0, 60.0), component="str"),
        ),
        net_ops=(
            NetOp(at=first, kind="partition", a="fd", b="mbus",
                  duration=rng.uniform(8.0, 12.0)),
            NetOp(at=second, kind="partition", a="ses", b="mbus",
                  duration=rng.uniform(4.0, 6.0)),
        ),
        horizon=150.0,
    )


def _build_zombie_fleet(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    first = rng.uniform(4.0, 7.0)
    second = first + rng.uniform(4.0, 8.0)
    third = second + rng.uniform(12.0, 16.0)
    # Zombies keep answering liveness pings, so only the end-to-end probes
    # (enabled via station_overrides) unmask them; the hang is visible to
    # plain pings and checks the two paths do not double-report.
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="ses", kind="zombie"),
            Injection(at=second, component="rtu", kind="zombie"),
            Injection(at=third, component="str", kind="hang"),
        ),
        horizon=120.0,
    )


def _build_store_outage(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    first = rng.uniform(5.0, 8.0)
    # The store crashes just before the ses fault's recovery decision, so
    # the stateful strategy's probe fails and it must fall back to a plain
    # cold restart instead of deadlocking on the dead store.  A later hang
    # window exercises the slower per-op-timeout path against the str
    # fault, and the final rtu fault lands with the store healthy again —
    # the stateful path must come back cleanly.  Torn/corrupt write
    # probabilities run throughout, so checksum quarantine sees traffic.
    crash_at = first - rng.uniform(1.0, 2.0)
    second = first + rng.uniform(30.0, 35.0)
    hang_at = second - rng.uniform(1.0, 2.0)
    third = second + rng.uniform(30.0, 35.0)
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="ses"),
            Injection(at=second, component="str"),
            Injection(at=third, component="rtu"),
        ),
        store_ops=(
            StoreOp(at=crash_at, kind="crash", duration=rng.uniform(8.0, 12.0)),
            StoreOp(at=hang_at, kind="hang", duration=rng.uniform(8.0, 12.0)),
        ),
        horizon=150.0,
    )


def _build_rogue_oracle_crash(
    rng: random.Random, components: Tuple[str, ...]
) -> ScenarioPlan:
    first = rng.uniform(5.0, 8.0)
    # REC (hosting the oracle) is shot moments after it ordered recovery
    # for the rtu fault: its in-flight plan must be fenced, FD's watchdog
    # must restart it, and the fresh incarnation has to reconcile the
    # half-done episode and rebuild the oracle from the store.  The later
    # ses and str faults check the rebuilt supervisor recovers normally —
    # including a second REC kill while *that* recovery is pending.
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="rtu"),
            Injection(at=first + rng.uniform(1.6, 2.4), component="rec", kind="flap"),
            Injection(at=first + rng.uniform(25.0, 30.0), component="ses"),
            Injection(
                at=first + rng.uniform(26.0, 28.0), component="rec", kind="flap"
            ),
            Injection(at=first + rng.uniform(55.0, 60.0), component="str"),
        ),
        horizon=150.0,
    )


def _build_blind(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    first = rng.uniform(5.0, 10.0)
    # The bus and REC die at one instant: FD must restart REC while every
    # bus component is unreachable, and the rebuilt pair must then cure a
    # station fault.
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="mbus"),
            Injection(at=first, component="rec", kind="flap"),
            Injection(at=first + rng.uniform(25.0, 30.0), component="rtu"),
        ),
        horizon=120.0,
    )


def _hung_supervisor(supervisor: str) -> PlanBuilder:
    def build(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
        first = rng.uniform(5.0, 10.0)
        # A hung supervisor answers nothing and judges nothing: its peer
        # must restart it, and the fresh incarnation cure the ses fault
        # that lands while it is hung.
        return ScenarioPlan(
            injections=(
                Injection(at=first, component=supervisor, kind="hang"),
                Injection(at=first + rng.uniform(4.0, 6.0), component="ses"),
            ),
            horizon=120.0,
        )

    return build


def _build_detection(rng: random.Random, components: Tuple[str, ...]) -> ScenarioPlan:
    at = 0.0
    injections = []
    for target in ("rtu", "ses", "str"):
        at += rng.uniform(12.0, 18.0)
        injections.append(Injection(at=at, component=target))
    return ScenarioPlan(injections=tuple(injections), horizon=at + 40.0)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "cascade",
            "correlated multi-component cascade (shared-fate ses/str/rtu group)",
            _build_cascade,
        ),
        Scenario(
            "storm",
            "fault-during-restart storm around the slow radio proxy",
            _build_storm,
        ),
        Scenario(
            "flapping",
            "FD/REC flapping while station recovery work is pending",
            _build_flapping,
        ),
        Scenario(
            "mixed",
            "transient crashes interleaved with a persistent joint-cure failure",
            _build_mixed,
        ),
        Scenario(
            "lossy",
            "real crashes under a dropping, spiky, duplicating network",
            _build_lossy,
            # The scenario stresses the detector; a residual false positive
            # must not dribble into budget give-ups (that is what the
            # ``detection`` scenario measures, not a chaos invariant).
            station_overrides=(
                ("timeout_policy", "adaptive"),
                ("restart_budget", 50),
            ),
            uses_network=True,
        ),
        Scenario(
            "partition",
            "timed bus partitions around real crashes (suspicion must hold fire)",
            _build_partition,
            station_overrides=(("timeout_policy", "adaptive"),),
            uses_network=True,
        ),
        Scenario(
            "zombie-fleet",
            "fail-slow zombies and a hang, unmasked by end-to-end probes",
            _build_zombie_fleet,
            station_overrides=(
                ("timeout_policy", "adaptive"),
                ("probe_period", 2.0),
            ),
        ),
        Scenario(
            "store-outage",
            "session-store crash/hang windows mid-recovery force strategy fallback",
            _build_store_outage,
            uses_store=True,
            default_strategy="microreboot",
            store_faults=(
                ("torn_write_probability", 0.05),
                ("corrupt_write_probability", 0.03),
            ),
        ),
        Scenario(
            "rogue-oracle-crash",
            "REC/oracle shot mid-recovery: stale plans fenced, view rebuilt from store",
            _build_rogue_oracle_crash,
            uses_store=True,
            default_strategy="microreboot",
        ),
        Scenario(
            "blind",
            "the bus and REC die at one instant, then a station fault",
            _build_blind,
        ),
        Scenario("hung-fd", "FD hangs while a station fault is pending", _hung_supervisor("fd")),
        Scenario("hung-rec", "REC hangs while a station fault is pending", _hung_supervisor("rec")),
        Scenario(
            "detection",
            "three crashes under a cell-wide drop rate (the detection ablation)",
            _build_detection,
            station_overrides=(("restart_budget", 10_000),),
            uses_network=True,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a catalogue scenario; raises ``KeyError`` with the choices."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} (have: {', '.join(sorted(SCENARIOS))})"
        ) from None
