"""FleetKernel: epoch barriers, canonical exchange, and the bit-identity gate.

The load-bearing contract (module docstring of :mod:`repro.sim.fleet`):
a fleet run is **bit-identical for every shard count and for serial vs
process-parallel execution**, because each member's inputs are exactly
(its seed, the canonically-ordered inbound message list).  These tests
hold that gate with cheap gossiping toy shells — every member posts
randomly-timed messages to random peers off its own RNG streams, and the
result payload digests its complete receive log — then pin the guard
rails: the lookahead floor on posts, the member-alignment check, the
barrier schedule, and routing to unknown members.
"""

import hashlib
import os

import pytest

from repro.errors import SimulationError
from repro.sim import fleet as fleet_module
from repro.sim.fleet import (
    GROUND_ID,
    FleetKernel,
    FleetMessage,
    FleetShell,
    partition_ids,
)
from repro.sim.kernel import Kernel
from repro.sim.rng import derive_seed


# ----------------------------------------------------------------------
# toy members (module level: they cross the pickle boundary in fan-out)
# ----------------------------------------------------------------------


class GossipShell(FleetShell):
    """Posts to random peers on its own streams; logs everything inbound."""

    #: Seconds between two ticks, drawn uniformly.
    gap = (0.2, 1.5)
    kernel_class = Kernel

    def __init__(
        self,
        shell_id: int,
        size: int,
        epoch: float,
        seed: int,
        start: float = 0.0,
        to_ground: bool = False,
    ) -> None:
        kernel = self.kernel_class(
            seed=derive_seed(seed, f"gossip:{shell_id}"), start_time=start
        )
        super().__init__(shell_id, kernel, epoch)
        self.size = size
        self.to_ground = to_ground
        self.log = []
        self._rng = kernel.rngs.stream("gossip")
        kernel.schedule_after(self._rng.uniform(0.1, 1.0), self._tick)

    def _tick(self) -> None:
        peer = self._rng.randrange(self.size)
        if peer != self.shell_id:
            self.post(
                peer,
                "gossip",
                (self.shell_id, len(self.log)),
                latency=self.min_latency + self._rng.random(),
            )
        if self.to_ground and self._rng.random() < 0.3:
            self.post(GROUND_ID, "report", (len(self.log),))
        self.kernel.schedule_after(self._rng.uniform(*self.gap), self._tick)

    def apply(self, message: FleetMessage) -> None:
        self.log.append((self.kernel.now, message.src, message.seq, message.data))

    def result(self):
        return {
            "id": self.shell_id,
            "received": len(self.log),
            "digest": hashlib.sha256(repr(self.log).encode()).hexdigest(),
            "now": self.kernel.now,
            "events_executed": self.kernel.events_executed,
        }


class CountingKernel(Kernel):
    """Counts its ``run(until=...)`` calls: with an event due by ``until``,
    and with nothing due."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.due_runs = 0
        self.idle_runs = 0

    def run(self, until=None):
        due = self.peek_next_time()
        if due is not None and due <= until:
            self.due_runs += 1
        else:
            self.idle_runs += 1
        super().run(until)


class SparseShell(GossipShell):
    """Ticks every 4-12 s, so it is idle for most 1 s epochs; records the
    clock it finalizes at and how its kernel was run."""

    gap = (4.0, 12.0)
    kernel_class = CountingKernel

    last_event = None

    def _tick(self):
        self.last_event = self.kernel.now
        super()._tick()

    def apply(self, message):
        self.last_event = self.kernel.now
        super().apply(message)

    def finalize(self):
        self.finalized_at = self.kernel.now

    def result(self):
        return {
            **super().result(),
            "last_event": self.last_event,
            "finalized_at": self.finalized_at,
            "due_runs": self.kernel.due_runs,
            "idle_runs": self.kernel.idle_runs,
        }


class GossipFactory:
    """Pure, picklable shard factory over :class:`GossipShell`."""

    shell_class = GossipShell

    def __init__(self, size, epoch, seed, start=0.0, to_ground=False):
        self.size = size
        self.epoch = epoch
        self.seed = seed
        self.start = start
        self.to_ground = to_ground

    def __call__(self, ids):
        return [
            self.shell_class(
                shell_id, self.size, self.epoch, self.seed, self.start, self.to_ground
            )
            for shell_id in ids
        ]


class SparseFactory(GossipFactory):
    shell_class = SparseShell


class CollectorShell(FleetShell):
    """Coordinator stand-in: logs reports, acks every third one back."""

    def __init__(self, epoch: float, seed: int, start: float = 0.0) -> None:
        kernel = Kernel(seed=derive_seed(seed, "collector"), start_time=start)
        super().__init__(GROUND_ID, kernel, epoch)
        self.log = []

    def apply(self, message: FleetMessage) -> None:
        self.log.append((self.kernel.now, message.src, message.seq, message.data))
        if len(self.log) % 3 == 0:
            self.post(message.src, "ack", (len(self.log),))

    def result(self):
        return {
            "received": len(self.log),
            "digest": hashlib.sha256(repr(self.log).encode()).hexdigest(),
            "events_executed": self.kernel.events_executed,
        }


def gossip_fleet(
    size=12,
    shards=1,
    epoch=1.0,
    seed=3,
    start=0.0,
    coordinator=False,
    factory_class=GossipFactory,
):
    factory = factory_class(size, epoch, seed, start, to_ground=coordinator)
    coord = CollectorShell(epoch, seed, start) if coordinator else None
    return FleetKernel(
        epoch=epoch,
        factory=factory,
        shell_ids=range(size),
        shards=shards,
        coordinator=coord,
        start=start,
    )


def run_gossip(horizon=20.0, parallel=False, **fleet):
    return gossip_fleet(**fleet).run(horizon, parallel=parallel)


# ----------------------------------------------------------------------
# the bit-identity gate
# ----------------------------------------------------------------------


def test_bit_identical_across_shard_counts():
    one = run_gossip(shards=1)
    assert any(payload["received"] for payload in one.values())  # traffic flowed
    for shards in (2, 3, 5, 12):
        assert run_gossip(shards=shards) == one


def test_bit_identical_serial_vs_parallel():
    serial = run_gossip(size=6, shards=3, horizon=10.0)
    fanned = run_gossip(size=6, shards=3, horizon=10.0, parallel=True)
    assert fanned == serial


def test_bit_identical_with_coordinator_serial_vs_parallel():
    serial = run_gossip(size=6, shards=3, horizon=10.0, coordinator=True)
    fanned = run_gossip(size=6, shards=3, horizon=10.0, coordinator=True, parallel=True)
    assert fanned == serial
    assert serial[GROUND_ID]["received"] > 0  # members really reported in


def test_shard_grouping_does_not_leak_into_results():
    """Same members, different contiguous blocks: identical payloads."""
    a = run_gossip(size=9, shards=2)
    b = run_gossip(size=9, shards=4)
    assert a == b


# ----------------------------------------------------------------------
# event horizon: idle members are not run
# ----------------------------------------------------------------------


def run_every_barrier(fleet, horizon):
    """The stepping the event horizon replaced: every shell runs to every
    barrier, in one block.  Builds fresh shells from ``fleet``'s factory
    and coordinator, so ``fleet`` itself must not have run."""
    shells = list(fleet.factory(tuple(i for block in fleet.blocks for i in block)))
    if fleet.coordinator is not None:
        shells.append(fleet.coordinator)
    by_id = {shell.shell_id: shell for shell in shells}
    pending = []
    for barrier in fleet._barriers(horizon):
        for message in pending:
            shell = by_id[message.dst]
            shell.kernel.schedule_at(message.arrival, shell.apply, message)
        outbox = []
        for shell in shells:
            shell.kernel.run(until=barrier)
            outbox.extend(shell.drain())
        pending = sorted(outbox, key=lambda m: (m.send_time, m.src, m.seq))
    results = {}
    for shell in shells:
        shell.finalize()
        results[shell.shell_id] = shell.result()
    return results


def _without_run_counts(results):
    return {
        shell_id: {k: v for k, v in payload.items() if k not in ("due_runs", "idle_runs")}
        for shell_id, payload in results.items()
    }


SPARSE = dict(size=9, epoch=1.0, seed=5, start=40.0, factory_class=SparseFactory)


@pytest.mark.parametrize(
    "layout", [dict(shards=1), dict(shards=3, parallel=True)], ids=["serial", "3x3"]
)
def test_sparse_fleet_matches_stepping_every_member_to_every_barrier(layout):
    layout = dict(layout)
    parallel = layout.pop("parallel", False)
    reference = run_every_barrier(gossip_fleet(coordinator=True, **SPARSE), 60.0)
    fleet = gossip_fleet(coordinator=True, **SPARSE, **layout)
    results = fleet.run(60.0, parallel=parallel)
    assert _without_run_counts(results) == _without_run_counts(reference)
    assert sum(payload["received"] for payload in results.values()) > 10
    # Most member-epochs had nothing due: the skip path really ran.
    assert fleet.epochs_skipped > 9 * 60 // 2


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "3x3"])
def test_a_member_runs_only_at_barriers_where_it_has_a_due_event(parallel):
    fleet = gossip_fleet(shards=3, **SPARSE)
    results = fleet.run(60.0, parallel=parallel)
    barriers = len(fleet._barriers(60.0))
    for payload in results.values():
        # The one run with nothing due is the close to the run's end.
        assert payload["idle_runs"] == 1
        assert 0 < payload["due_runs"] < barriers
    assert fleet.epochs_skipped == sum(
        barriers - payload["due_runs"] for payload in results.values()
    )


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "3x3"])
def test_every_member_finalizes_at_the_runs_end(parallel):
    fleet = gossip_fleet(shards=3, **SPARSE)
    end = SPARSE["start"] + 60.0
    results = fleet.run(60.0, parallel=parallel)
    assert [p["finalized_at"] for p in results.values()] == [end] * SPARSE["size"]
    # Members idle through the last epoch were not run at the last barrier:
    # only the close brought their clocks to the end.
    assert any(p["last_event"] <= end - SPARSE["epoch"] for p in results.values())


# ----------------------------------------------------------------------
# time origin
# ----------------------------------------------------------------------


def test_nonzero_start_anchors_the_run():
    results = run_gossip(size=4, shards=2, horizon=8.0, start=100.0)
    for payload in results.values():
        assert payload["now"] == pytest.approx(108.0)


def test_member_ahead_of_origin_is_rejected():
    # Members built at t=5 against a fleet origin of 0: run(until<now) would
    # silently no-op, so the kernel must refuse loudly instead.
    factory = GossipFactory(4, 1.0, seed=1, start=5.0)
    fleet = FleetKernel(epoch=1.0, factory=factory, shell_ids=range(4), shards=2)
    with pytest.raises(SimulationError, match="past the fleet origin"):
        fleet.run(10.0)


def test_coordinator_ahead_of_origin_is_rejected():
    factory = GossipFactory(4, 1.0, seed=1)
    coord = CollectorShell(1.0, seed=1, start=5.0)
    fleet = FleetKernel(
        epoch=1.0, factory=factory, shell_ids=range(4), coordinator=coord
    )
    with pytest.raises(SimulationError, match="past the fleet origin"):
        fleet.run(10.0)


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------


def test_post_below_lookahead_is_rejected():
    shell = GossipShell(0, size=2, epoch=1.0, seed=1)
    with pytest.raises(SimulationError, match="below the fleet lookahead"):
        shell.post(1, "gossip", (), latency=0.25)


def test_post_at_lookahead_is_allowed_and_sequenced():
    shell = GossipShell(0, size=2, epoch=1.0, seed=1)
    shell.post(1, "a", (1,))
    shell.post(1, "b", (2,), latency=2.5)
    first, second = shell.drain()
    assert (first.seq, second.seq) == (0, 1)
    assert first.latency == 1.0 and second.latency == 2.5
    assert first.arrival == first.send_time + 1.0
    assert shell.drain() == []  # drained


def test_message_to_unknown_member_raises():
    factory = GossipFactory(2, 1.0, seed=1)

    class Stray(GossipShell):
        def _tick(self):
            self.post(99, "gossip", ())

    class StrayFactory(GossipFactory):
        def __call__(self, ids):
            return [Stray(i, self.size, self.epoch, self.seed) for i in ids]

    fleet = FleetKernel(epoch=1.0, factory=StrayFactory(2, 1.0, seed=1), shell_ids=range(2))
    with pytest.raises(SimulationError, match="unknown fleet member"):
        fleet.run(5.0)
    del factory


def test_epoch_and_horizon_validation():
    factory = GossipFactory(2, 1.0, seed=1)
    with pytest.raises(SimulationError, match="epoch must be positive"):
        FleetKernel(epoch=0.0, factory=factory, shell_ids=range(2))
    fleet = FleetKernel(epoch=1.0, factory=factory, shell_ids=range(2))
    for horizon in (0.0, float("inf"), float("nan")):
        with pytest.raises(SimulationError, match="horizon must be positive and finite"):
            fleet.run(horizon)


def test_barrier_schedule_covers_the_window():
    factory = GossipFactory(2, 1.0, seed=1)
    fleet = FleetKernel(epoch=2.0, factory=factory, shell_ids=range(2), start=10.0)
    assert fleet._barriers(7.0) == [12.0, 14.0, 16.0, 17.0]
    assert fleet._barriers(2.0) == [12.0]  # final barrier is the horizon itself


def test_partition_ids_contiguous_and_balanced():
    assert partition_ids(range(7), 3) == [(0, 1, 2), (3, 4), (5, 6)]
    assert partition_ids(range(4), 9) == [(0,), (1,), (2,), (3,)]  # capped
    assert partition_ids([], 2) == [()]
    with pytest.raises(SimulationError, match="shards must be >= 1"):
        partition_ids(range(4), 0)


def _dies_before_replying(conn, factory, ids, start):
    """A shard worker that exits with the parent's first command unread:
    closing a socket with unread data resets the connection."""
    conn.poll(30.0)
    os._exit(1)


def test_a_worker_that_dies_before_its_first_reply_is_named(monkeypatch):
    monkeypatch.setattr(fleet_module, "_shard_worker", _dies_before_replying)
    with pytest.raises(SimulationError, match="fleet shard worker died") as raised:
        run_gossip(size=4, shards=2, horizon=5.0, parallel=True)
    assert isinstance(raised.value.__cause__, ConnectionResetError)
