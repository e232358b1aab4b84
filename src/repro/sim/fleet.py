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
* The :class:`FleetKernel` therefore advances each member independently
  to the next barrier ``k * epoch``, then exchanges the accumulated
  messages — sorted by the canonical ``(send_time, src, seq)`` key — and
  schedules each on its destination kernel.
* The *event horizon* rule: at a barrier, a member runs only if its
  earliest queued event (:meth:`~repro.sim.kernel.Kernel.peek_next_time`)
  is at or before the barrier.  A member with nothing due is skipped and
  its clock lags at its last event until it has work or the run ends;
  that is safe because nothing outside one of its own events reads its
  clock (posts are made inside events, and a delivery lands at or after
  the barrier it was collected at).  Before ``finalize`` every member is
  brought to the run's end, so results read the same clock as if it had
  been advanced at every barrier.  Each shard keeps a heap of its
  members' earliest event times, so an idle member costs a barrier
  nothing.

Because a member's inputs are exactly (its seed, the canonically-ordered
inbound message list), the grouping of members into shards and the choice
of serial versus process-parallel execution cannot change any member's
event sequence: **a fleet run is bit-identical for every shard count and
for serial vs fanned-out execution**.  The differential suite in
``tests/sim/test_fleet_kernel.py`` and the ``fleet`` leg of
``tools/check_determinism.py`` hold that gate.

Process fan-out keeps one long-lived worker per shard (members are built
in the worker from their pure spec — stations never cross the pickle
boundary) and ships only :class:`FleetMessage` batches per epoch.  The
serial run, every worker and the coordinator step through the same
:class:`_Shard`.
"""

from __future__ import annotations

import heapq
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
        """Queue a message to member ``dst``; collected at the next barrier.

        Call it from inside one of this shell's events: the fleet drains a
        shell's outbox only at the barriers where it ran.
        """
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
    (the destination has simulated at most up to the barrier the message
    was collected at, and a skipped one lags behind it).
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


class _Shard:
    """A block of shells stepped barrier to barrier.

    The one step loop of a fleet: the serial run, every shard worker and
    the coordinator all go through :meth:`step` and :meth:`close`.
    """

    __slots__ = ("shells", "by_id", "skipped", "_next")

    def __init__(self, shells: Sequence[FleetShell], start: float) -> None:
        _check_aligned(shells, start)
        self.shells = sorted(shells, key=lambda shell: shell.shell_id)
        self.by_id = {shell.shell_id: shell for shell in self.shells}
        #: Shell-epochs that ran nothing because no event was due.
        self.skipped = 0
        #: Heap of ``(time, shell_id)``: for every shell with a queued
        #: event, an entry at its earliest one (duplicates allowed).  An
        #: entry is pushed when a shell is built, after it runs and when a
        #: message is delivered to it — the only ways events enter its queue.
        self._next: List[Tuple[float, int]] = []
        for shell in self.shells:
            self._push(shell)

    def _push(self, shell: FleetShell) -> None:
        due = shell.kernel.peek_next_time()
        if due is not None:
            heapq.heappush(self._next, (due, shell.shell_id))

    def step(self, barrier: float, inbound: Sequence[FleetMessage]) -> List[FleetMessage]:
        """Deliver ``inbound``, run each shell with an event due by
        ``barrier`` up to it, and return what they posted.

        A shell with nothing due is not run: its clock stays at its last
        event, which nothing outside its own events reads (posts are made
        inside events, and a delivery lands at or after the barrier).
        """
        by_id = self.by_id
        queue = self._next
        for message in inbound:
            _deliver(by_id[message.dst], message)
            heapq.heappush(queue, (message.arrival, message.dst))
        due = set()
        while queue and queue[0][0] <= barrier:
            due.add(heapq.heappop(queue)[1])
        self.skipped += len(self.shells) - len(due)
        outbox: List[FleetMessage] = []
        for shell_id in sorted(due):
            shell = by_id[shell_id]
            shell.kernel.run(until=barrier)
            self._push(shell)
            outbox.extend(shell.drain())
        return outbox

    def close(self, end: float) -> "_Closed":
        """Bring every clock to ``end``, then finalize and collect results."""
        results: Dict[int, Dict[str, Any]] = {}
        events = 0
        for shell in self.shells:
            shell.kernel.run(until=end)
            shell.finalize()
            results[shell.shell_id] = shell.result()
            events += shell.kernel.events_executed
        return _Closed(results, events, self.skipped)


class _Closed(NamedTuple):
    """What a closed shard hands back (crosses the worker pipe)."""

    results: Dict[int, Dict[str, Any]]
    events_executed: int
    skipped: int


def _shard_worker(
    conn, factory: ShardFactory, ids: Tuple[int, ...], start: float
) -> None:
    """Long-lived per-shard worker: build once, step per epoch command.

    Protocol (parent drives): ``("epoch", barrier, inbound)`` → step the
    shard, reply with its outbox; ``("finish", end)`` → close the shard,
    reply with its :class:`_Closed`.
    """
    try:
        shard = _Shard(factory(ids), start)
        while True:
            command = conn.recv()
            if command[0] == "epoch":
                conn.send(shard.step(command[1], command[2]))
            elif command[0] == "finish":
                conn.send(shard.close(command[1]))
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
        #: Shell-epochs (coordinator included) that ran nothing because the
        #: shell had no event due by the barrier (diagnostics).
        self.epochs_skipped = 0
        #: Destination index of every shell id: the shard blocks in order,
        #: then the coordinator.
        self._membership = {
            shell_id: index
            for index, block in enumerate(self.blocks)
            for shell_id in block
        }
        if coordinator is not None:
            self._membership.setdefault(coordinator.shell_id, len(self.blocks))

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

    def _route(self, outbox: List[FleetMessage]) -> List[List[FleetMessage]]:
        """Canonically sort one epoch's messages and split them per
        destination: one list per shard block, then one for the coordinator."""
        outbox.sort(key=lambda m: (m.send_time, m.src, m.seq))
        routed: List[List[FleetMessage]] = [[] for _ in range(len(self.blocks) + 1)]
        membership = self._membership
        for message in outbox:
            index = membership.get(message.dst)
            if index is None:
                raise SimulationError(f"message to unknown fleet member {message.dst!r}")
            routed[index].append(message)
        return routed

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, horizon: float, parallel: bool = False) -> Dict[int, Dict[str, Any]]:
        """Simulate ``horizon`` seconds past ``start``; returns
        ``{shell_id: result payload}``."""
        coordinator = (
            [] if self.coordinator is None else [_Shard([self.coordinator], self.start)]
        )
        barriers = self._barriers(horizon)
        if not (parallel and len(self.blocks) > 1):
            shards = [_Shard(self.factory(block), self.start) for block in self.blocks]
            self._exchange(barriers, [], shards + coordinator)
            return self.results
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
            self._exchange(barriers, connections, coordinator)
        except (EOFError, ConnectionError) as error:
            # A worker that dies mid-exchange surfaces as EOF, a broken pipe
            # or a reset (it exited with our message unread): all the same.
            raise SimulationError(f"fleet shard worker died: {error!r}") from error
        finally:
            for conn in connections:
                conn.close()
            for process in processes:
                process.join(timeout=30)
                if process.is_alive():  # pragma: no cover - hung worker guard
                    process.terminate()
        return self.results

    def _exchange(self, barriers: List[float], workers: List, local: List[_Shard]) -> None:
        """Step every shard from barrier to barrier, then close them all.

        ``workers`` (pipes to :func:`_shard_worker` processes) and ``local``
        together are the routing targets, in :meth:`_route`'s order.  The
        workers start each epoch first, so the local shards (the
        coordinator, or every block of a serial run) step while they do.
        """
        pending: List[List[FleetMessage]] = [[] for _ in range(len(workers) + len(local))]
        for barrier in barriers:
            for conn, inbound in zip(workers, pending):
                conn.send(("epoch", barrier, inbound))
            outbox: List[FleetMessage] = []
            for shard, inbound in zip(local, pending[len(workers):]):
                outbox.extend(shard.step(barrier, inbound))
            for conn in workers:
                outbox.extend(conn.recv())
            pending = self._route(outbox)
        end = barriers[-1]
        for conn in workers:
            conn.send(("finish", end))
        closing = [shard.close(end) for shard in local]
        for closed in [conn.recv() for conn in workers] + closing:
            self.results.update(closed.results)
            self.events_executed += closed.events_executed
            self.epochs_skipped += closed.skipped
