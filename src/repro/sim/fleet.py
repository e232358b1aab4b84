"""Sharded fleet simulation: epoch-barrier conservative parallel DES.

One :class:`~repro.sim.kernel.Kernel` simulates one Mercury station.  A
fleet campaign needs hundreds of stations in one run, exchanging traffic
with a shared ground segment — which makes it a classic conservative
parallel discrete-event problem.  This module solves it the classic way
(Chandy-Misra-Bryant lookahead, specialised to a star topology):

* Every fleet member is a :class:`FleetShell` — its own kernel, its own
  RNG streams (seeded from the member id, never from construction order:
  the PR 4 failure-id lesson), and a cross-member mailbox.
* Cross-member messages only travel on the inter-station WAN, whose
  one-way latency is bounded below by ``epoch`` seconds.  That bound is
  the *lookahead*: a message sent at ``t`` arrives at ``t + latency >=
  t + epoch``, so no member can affect another within the same epoch.
* The :class:`FleetKernel` therefore advances every member independently
  to the next barrier ``k * epoch``, then exchanges the accumulated
  messages — sorted by the canonical ``(send_time, src, seq)`` key — and
  schedules each on its destination kernel.

Because a member's inputs are exactly (its seed, the canonically-ordered
inbound message list), the grouping of members into shards and the choice
of serial versus process-parallel execution cannot change any member's
event sequence: **a fleet run is bit-identical for every shard count and
for serial vs fanned-out execution**.  The differential suite in
``tests/sim/test_fleet_kernel.py`` and the ``fleet`` leg of
``tools/check_determinism.py`` hold that gate.

Process fan-out keeps one long-lived worker per shard (members are built
in the worker from their pure spec — stations never cross the pickle
boundary) and ships only :class:`FleetMessage` batches per epoch.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Kernel

#: Conventional shell id of the ground-segment coordinator.  Negative so
#: station ids can stay dense non-negative integers.
GROUND_ID = -1


class FleetMessage(NamedTuple):
    """One cross-member message, picklable and canonically sortable.

    ``(send_time, src, seq)`` is a total order: ``seq`` increases per
    source, and ties across sources are broken by the source id.  The
    exchange sorts on it so every destination kernel sees deliveries in
    an order independent of shard grouping and worker scheduling.
    """

    send_time: float
    src: int
    seq: int
    dst: int
    latency: float
    kind: str
    data: Tuple[Any, ...]

    @property
    def arrival(self) -> float:
        """Destination-side delivery time."""
        return self.send_time + self.latency


class FleetShell:
    """One fleet member: a kernel plus the cross-member mailbox contract.

    Subclasses wrap a domain object (a Mercury station, the ground
    segment) and implement :meth:`apply` (execute one inbound message at
    its arrival time, on this shell's kernel) and :meth:`result` (the
    JSON-serializable payload returned from workers at the end of a run).
    """

    def __init__(self, shell_id: int, kernel: Kernel, min_latency: float) -> None:
        self.shell_id = shell_id
        self.kernel = kernel
        #: The fleet's lookahead bound; posts below it would break the
        #: epoch-barrier correctness argument, so they are rejected.
        self.min_latency = min_latency
        self._outbox: List[FleetMessage] = []
        self._seq = 0

    # -- outbound ------------------------------------------------------

    def post(
        self,
        dst: int,
        kind: str,
        data: Sequence[Any] = (),
        latency: Optional[float] = None,
    ) -> None:
        """Queue a message to member ``dst``; collected at the next barrier."""
        lat = self.min_latency if latency is None else latency
        if lat < self.min_latency:
            raise SimulationError(
                f"cross-member latency {lat!r} below the fleet lookahead "
                f"{self.min_latency!r}; the epoch barrier cannot honour it"
            )
        self._outbox.append(
            FleetMessage(
                self.kernel.now, self.shell_id, self._seq, dst, lat, kind, tuple(data)
            )
        )
        self._seq += 1

    def drain(self) -> List[FleetMessage]:
        """Hand the accumulated outbox to the barrier exchange."""
        out = self._outbox
        self._outbox = []
        return out

    # -- inbound / lifecycle ------------------------------------------

    def apply(self, message: FleetMessage) -> None:
        """Execute one inbound message (runs at ``message.arrival``)."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Close out accounting after the last barrier (optional)."""

    def result(self) -> Dict[str, Any]:
        """JSON-serializable end-of-run payload (crosses process bounds)."""
        return {}


#: Builds the shells for one shard from their ids alone.  Must be
#: picklable (module-level function or callable object) and pure: two
#: calls with the same ids — in any process — build bit-identical shells.
ShardFactory = Callable[[Tuple[int, ...]], List[FleetShell]]


def partition_ids(ids: Sequence[int], shards: int) -> List[Tuple[int, ...]]:
    """Split member ids into ``shards`` contiguous, near-equal blocks.

    Purely cosmetic for correctness (any grouping is bit-identical); the
    contiguous split keeps worker load even and ids easy to read in logs.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards!r}")
    ordered = sorted(ids)
    shards = min(shards, len(ordered)) or 1
    size, extra = divmod(len(ordered), shards)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for index in range(shards):
        stop = start + size + (1 if index < extra else 0)
        blocks.append(tuple(ordered[start:stop]))
        start = stop
    return blocks


def _deliver(shell: FleetShell, message: FleetMessage) -> None:
    """Schedule one inbound message on its destination kernel.

    The epoch-barrier invariant guarantees ``arrival >= kernel.now`` here
    (the destination has only simulated up to the barrier the message was
    collected at).
    """
    shell.kernel.schedule_at(message.send_time + message.latency, shell.apply, message)


def _check_aligned(shells: Sequence[FleetShell], start: float) -> None:
    """Reject members whose kernels sit past the fleet origin.

    A kernel behind ``start`` just catches up inside the first epoch; one
    *ahead* of it has already simulated into the fleet's window, which
    silently desynchronises the barriers (``run(until<now)`` is a no-op).
    """
    for shell in shells:
        if shell.kernel.now > start:
            raise SimulationError(
                f"fleet member {shell.shell_id} starts at t={shell.kernel.now!r}, "
                f"past the fleet origin {start!r}"
            )


def _shard_worker(
    conn, factory: ShardFactory, ids: Tuple[int, ...], start: float
) -> None:
    """Long-lived per-shard worker: build once, step per epoch command.

    Protocol (parent drives): ``("epoch", barrier, inbound)`` → run every
    shell to the barrier, reply with the drained outboxes;
    ``("finish",)`` → finalize, reply with ``{id: result}``.
    """
    shells = factory(ids)
    _check_aligned(shells, start)
    by_id = {shell.shell_id: shell for shell in shells}
    order = sorted(by_id)
    try:
        while True:
            command = conn.recv()
            if command[0] == "epoch":
                barrier, inbound = command[1], command[2]
                for message in inbound:
                    _deliver(by_id[message.dst], message)
                outbox: List[FleetMessage] = []
                for shell_id in order:
                    by_id[shell_id].kernel.run(until=barrier)
                for shell_id in order:
                    outbox.extend(by_id[shell_id].drain())
                conn.send(outbox)
            elif command[0] == "finish":
                results: Dict[int, Dict[str, Any]] = {}
                for shell_id in order:
                    by_id[shell_id].finalize()
                    results[shell_id] = by_id[shell_id].result()
                conn.send(results)
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown fleet worker command {command[0]!r}")
    finally:
        conn.close()


class FleetKernel:
    """Run a fleet of shells to a horizon under epoch-barrier exchange.

    ``factory`` builds shells from ids (pure, picklable); ``shell_ids``
    are the member ids; ``coordinator`` is an optional extra shell (the
    ground segment) that always runs in the calling process — in parallel
    mode it overlaps with the worker shards each epoch.

    ``run(horizon, parallel=True)`` fans one worker process per shard;
    ``parallel=False`` steps the same shard blocks inline.  Both orders
    produce bit-identical member event sequences (see module docstring).
    """

    def __init__(
        self,
        epoch: float,
        factory: ShardFactory,
        shell_ids: Sequence[int],
        shards: int = 1,
        coordinator: Optional[FleetShell] = None,
        start: float = 0.0,
    ) -> None:
        if epoch <= 0:
            raise SimulationError(f"epoch must be positive, got {epoch!r}")
        self.epoch = epoch
        #: Common fleet time origin.  Every member kernel must sit at (or
        #: before) this clock when built — stations restored from a warmed
        #: template start at the template's warm point, so the fleet
        #: anchors its epoch schedule there rather than at zero.
        self.start = start
        self.factory = factory
        self.blocks = partition_ids(shell_ids, shards)
        self.coordinator = coordinator
        #: Filled by :meth:`run`: ``{shell_id: result_payload}``.
        self.results: Dict[int, Dict[str, Any]] = {}
        #: Total events executed across every member kernel (diagnostics;
        #: the per-member counts also ride in the result payloads).
        self.events_executed = 0

    # ------------------------------------------------------------------
    # epoch schedule
    # ------------------------------------------------------------------

    def _barriers(self, horizon: float) -> List[float]:
        """Absolute barrier times covering ``(start, start + horizon]``."""
        if not 0 < horizon < math.inf:
            raise SimulationError(f"horizon must be positive and finite, got {horizon!r}")
        end = self.start + horizon
        barriers: List[float] = []
        k = 1
        while True:
            barrier = self.start + k * self.epoch
            if barrier >= end:
                barriers.append(end)
                return barriers
            barriers.append(barrier)
            k += 1

    def _route(
        self, outbox: List[FleetMessage]
    ) -> Tuple[List[List[FleetMessage]], List[FleetMessage]]:
        """Canonically sort one epoch's messages and split per shard."""
        outbox.sort(key=lambda m: (m.send_time, m.src, m.seq))
        per_block: List[List[FleetMessage]] = [[] for _ in self.blocks]
        membership = {
            shell_id: index
            for index, block in enumerate(self.blocks)
            for shell_id in block
        }
        for_coordinator: List[FleetMessage] = []
        for message in outbox:
            index = membership.get(message.dst)
            if index is not None:
                per_block[index].append(message)
            elif self.coordinator is not None and message.dst == self.coordinator.shell_id:
                for_coordinator.append(message)
            else:
                raise SimulationError(f"message to unknown fleet member {message.dst!r}")
        return per_block, for_coordinator

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, horizon: float, parallel: bool = False) -> Dict[int, Dict[str, Any]]:
        """Simulate ``horizon`` seconds past ``start``; returns
        ``{shell_id: result payload}``."""
        if self.coordinator is not None:
            _check_aligned([self.coordinator], self.start)
        barriers = self._barriers(horizon)
        if parallel and len(self.blocks) > 1:
            self._run_parallel(barriers)
        else:
            self._run_serial(barriers)
        if self.coordinator is not None:
            self.coordinator.finalize()
            self.results[self.coordinator.shell_id] = self.coordinator.result()
            self.events_executed += self.coordinator.kernel.events_executed
        return self.results

    def _run_serial(self, barriers: List[float]) -> None:
        shards = [self.factory(block) for block in self.blocks]
        for shard in shards:
            shard.sort(key=lambda shell: shell.shell_id)
            _check_aligned(shard, self.start)
        by_id = {shell.shell_id: shell for shard in shards for shell in shard}
        pending: List[List[FleetMessage]] = [[] for _ in self.blocks]
        coordinator_pending: List[FleetMessage] = []
        for barrier in barriers:
            outbox: List[FleetMessage] = []
            for index, shard in enumerate(shards):
                for message in pending[index]:
                    _deliver(by_id[message.dst], message)
                for shell in shard:
                    shell.kernel.run(until=barrier)
                for shell in shard:
                    outbox.extend(shell.drain())
            outbox.extend(self._step_coordinator(barrier, coordinator_pending))
            pending, coordinator_pending = self._route(outbox)
        for shard in shards:
            for shell in shard:
                shell.finalize()
                self.results[shell.shell_id] = shell.result()
                self.events_executed += shell.kernel.events_executed

    def _run_parallel(self, barriers: List[float]) -> None:
        context = mp.get_context()
        connections = []
        processes = []
        try:
            for block in self.blocks:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(child_conn, self.factory, block, self.start),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                connections.append(parent_conn)
                processes.append(process)
            pending: List[List[FleetMessage]] = [[] for _ in self.blocks]
            coordinator_pending: List[FleetMessage] = []
            for barrier in barriers:
                for conn, inbound in zip(connections, pending):
                    conn.send(("epoch", barrier, inbound))
                outbox = list(
                    self._step_coordinator(barrier, coordinator_pending)
                )
                for conn in connections:
                    outbox.extend(conn.recv())
                pending, coordinator_pending = self._route(outbox)
            for conn in connections:
                conn.send(("finish",))
            for conn in connections:
                shard_results = conn.recv()
                for shell_id, payload in shard_results.items():
                    self.results[shell_id] = payload
                    self.events_executed += payload.get("events_executed", 0)
        except (EOFError, BrokenPipeError) as error:
            raise SimulationError(f"fleet shard worker died: {error!r}") from error
        finally:
            for conn in connections:
                conn.close()
            for process in processes:
                process.join(timeout=30)
                if process.is_alive():  # pragma: no cover - hung worker guard
                    process.terminate()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _step_coordinator(
        self, barrier: float, inbound: List[FleetMessage]
    ) -> List[FleetMessage]:
        if self.coordinator is None:
            return []
        for message in inbound:
            _deliver(self.coordinator, message)
        self.coordinator.kernel.run(until=barrier)
        return self.coordinator.drain()
