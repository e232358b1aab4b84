"""The workload plane: an open-loop user population on the station bus.

One :class:`WorkloadPlane` drives all synthetic users through a single
standalone :class:`~repro.bus.client.BusClient` (multiplexed by request
id — one socket, millions of sessions), against the live Mercury service
endpoints:

===========  =========  ==================  =======================
op           target     request verb        what the user asked for
===========  =========  ==================  =======================
telemetry    ses        telemetry-query     current tracking solution
schedule     str        pass-schedule       antenna time for a pass
uplink       fedr[com]  command-uplink      a command to the bird
===========  =========  ==================  =======================

Client semantics are deliberately dumb-client: send, arm a timeout, on
timeout re-send with linear backoff up to ``max_retries``, then surface
an error and abandon the rest of the session chain.  Replies are matched
by request id, so a straggler reply racing a re-send counts the request
as served (standard hedged-request behaviour) and the duplicate is
dropped.

Determinism contract: arrivals and session plans come from the kernel's
``workload.*`` named RNG streams, every timer rides the simulation
kernel, and the plane attaches *after* boot (like the invariant checker
and metrics sinks) — so snapshot-restored, template-forked, and
fresh-booted stations all see byte-identical traffic, and the ledger is
a pure function of the cell seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple, TYPE_CHECKING

from repro.bus.client import BusClient
from repro.components.base import SVC_REPLY_VERB
from repro.obs import events as ev
from repro.obs.spans import EpisodeTracker
from repro.workload.effects import UserEffects
from repro.workload.generator import ArrivalProcess, SessionPlanner, WorkloadSpec
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.station import MercuryStation

#: op → request verb handled by the serving component.
SERVICE_VERBS: Dict[str, str] = {
    "telemetry": "telemetry-query",
    "schedule": "pass-schedule",
    "uplink": "command-uplink",
}

#: ``WorkloadPlane._armed_at`` while no deadline event is armed.
_UNARMED = float("inf")


@dataclass(slots=True)
class _Session:
    """One user's request chain in flight."""

    sid: int
    ops: Tuple[str, ...]
    completed: int = 0


@dataclass(slots=True)
class _Request:
    """One logical request (re-sends share the id and this record)."""

    rid: int
    session: _Session
    step: int
    op: str
    issued_at: float
    attempts: int = 0
    #: First recovery phase this request stalled in — a request whose
    #: *final* timeout fires after the episode closed still belongs to
    #: the phase where the user first felt it.
    blame: Optional[str] = None


class WorkloadPlane:
    """Drives an open-loop request workload against one booted station."""

    def __init__(
        self,
        station: "MercuryStation",
        spec: Optional[WorkloadSpec] = None,
        client_name: str = "users",
    ) -> None:
        self.station = station
        self.spec = spec or WorkloadSpec()
        self.kernel = station.kernel
        self.effects = UserEffects()
        #: Folds the live event stream into recovery spans so losses can
        #: be attributed to the phase the station was in when they hit.
        self.tracker = EpisodeTracker()
        self.kernel.trace.add_sink(self.tracker)
        self.client = BusClient(
            self.kernel,
            station.network,
            client_name,
            retain_messages=False,
        )
        self.client.on_message(self._on_reply)
        self._arrivals = ArrivalProcess(
            self.kernel.rngs.stream("workload.arrivals"), self.spec
        )
        self._planner = SessionPlanner(
            self.kernel.rngs.stream("workload.sessions"), self.spec
        )
        #: op → bus target; uplink goes to whichever radio proxy this
        #: tree generation runs (fedr after the §4.2 split, else fedrcom).
        self.targets: Dict[str, str] = {
            "telemetry": "ses",
            "schedule": "str",
            "uplink": "fedr" if station.split else "fedrcom",
        }
        self._pending: Dict[int, _Request] = {}
        #: The retry ladder's deadlines, one FIFO lane per attempt number
        #: (lane 0 stays empty): ``(when, send ordinal, rid)``.  A lane's
        #: delay is a constant, so it is sorted by construction (DESIGN.md §13).
        self._lanes: Tuple[Deque[Tuple[float, int, int]], ...] = tuple(
            deque() for _ in range(self.spec.max_retries + 2)
        )
        self._sends = 0
        #: Instant of the earliest kernel event armed on :meth:`_deadline`;
        #: never later than the earliest live lane head.
        self._armed_at = _UNARMED
        self._session_seq = 0
        self._request_seq = 0
        self._open = False
        self._arrival_epoch = 0
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Connect the client and begin open-loop arrivals."""
        if self._open:
            return
        self._open = True
        self._arrival_epoch += 1
        if self.started_at is None:
            self.started_at = self.kernel.now
        self.client.connect()
        self._schedule_arrival(self._arrival_epoch)

    def stop(self) -> None:
        """Stop new arrivals; in-flight chains keep running (see drain)."""
        self._open = False

    def drain(self, timeout: Optional[float] = None) -> None:
        """Run the kernel until every in-flight chain resolves.

        Started sessions get their full retry budget, so after a drain
        every session is either completed or abandoned — no truncation
        bucket to muddy the loss accounting.  The default timeout is the
        worst-case single chain: longest plan × full retry ladder.
        """
        if timeout is None:
            spec = self.spec
            retries = spec.max_retries
            per_request = (retries + 1) * spec.request_timeout_s + (
                spec.retry_backoff_s * retries * (retries + 1) / 2.0
            )
            timeout = (2 * spec.session_length - 1) * per_request + 30.0
        self.kernel.run_until(self._drained, self.kernel.now + timeout)

    def _drained(self) -> bool:
        return not self._pending

    def finalize(self) -> UserEffects:
        """Close the measured window and emit the summary event."""
        started = self.started_at if self.started_at is not None else self.kernel.now
        self.effects.finalize(self.kernel.now - started)
        self.kernel.trace.emit(
            self.client.name,
            ev.WORKLOAD_REPORT,
            offered=self.effects.requests_offered,
            ok=self.effects.requests_ok,
            failed=self.effects.requests_failed,
            abandoned=self.effects.requests_abandoned,
            sessions_lost=self.effects.sessions_abandoned,
        )
        return self.effects

    def run(self, horizon_s: float) -> UserEffects:
        """Convenience: start, offer load for ``horizon_s``, drain, finalize."""
        self.start()
        self.kernel.run(until=self.kernel.now + horizon_s)
        self.stop()
        self.drain()
        return self.finalize()

    @property
    def in_flight(self) -> int:
        """Requests currently awaiting a reply or retry verdict."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # arrivals and sessions
    # ------------------------------------------------------------------

    def _schedule_arrival(self, epoch: int) -> None:
        gap, count = self._arrivals.next()
        self.kernel.schedule_after(gap, self._arrive, epoch, count)

    def _arrive(self, epoch: int, count: int) -> None:
        if not self._open or epoch != self._arrival_epoch:
            return
        for _ in range(count):
            self._spawn_session()
        self._schedule_arrival(epoch)

    def _spawn_session(self) -> None:
        session = _Session(self._session_seq, self._planner.plan())
        self._session_seq += 1
        self.effects.sessions_started += 1
        self._issue(session, 0)

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------

    def _issue(self, session: _Session, step: int) -> None:
        request = _Request(
            rid=self._request_seq,
            session=session,
            step=step,
            op=session.ops[step],
            issued_at=self.kernel.clock._now,
        )
        self._request_seq += 1
        self._pending[request.rid] = request
        self.effects.requests_offered += 1
        self._send(request)

    def _send(self, request: _Request) -> None:
        request.attempts += 1
        # A send that fails locally (broker down) is indistinguishable to
        # the user from one lost in flight: the timeout ladder handles both.
        self.client.send(
            CommandMessage(
                self.client.name,
                self.targets[request.op],
                SERVICE_VERBS[request.op],
                {"req": str(request.rid)},
            )
        )
        # One send per request: the clock is read as ``Endpoint.send`` reads it.
        when = self.kernel.clock._now + (
            self.spec.request_timeout_s
            + (request.attempts - 1) * self.spec.retry_backoff_s
        )
        self._sends += 1
        self._lanes[request.attempts].append((when, self._sends, request.rid))
        if when < self._armed_at:  # nothing armed, or a retry's longer wait
            self._armed_at = when
            self.kernel.schedule_at(when, self._deadline)

    def _deadline(self) -> None:
        """The one armed kernel event: time out every request whose
        deadline is due, in send order, and re-arm on the next one owed.

        Heads already answered or re-sent are dropped here, unseen by the
        kernel.  A wake superseded by an earlier one still fires, and one
        more may be armed on its instant by then: whichever runs second
        finds nothing due and nothing to arm.
        """
        now = self.kernel.now
        pending = self._pending
        while True:
            head = None
            for lane_attempt, lane in enumerate(self._lanes):
                while lane:
                    request = pending.get(lane[0][2])
                    if request is not None and request.attempts == lane_attempt:
                        if head is None or lane[0] < head:
                            head, attempt = lane[0], lane_attempt
                        break
                    lane.popleft()
            if head is None or head[0] > now:
                break
            # Until this sweep is over ``_armed_at`` is still ``now``, so
            # the re-sends below queue their deadlines without arming.
            self._lanes[attempt].popleft()
            self._timeout(head[2], attempt)
        if self._armed_at <= now:
            self._armed_at = _UNARMED
        if head is not None and head[0] < self._armed_at:
            self._armed_at = head[0]
            self.kernel.schedule_at(head[0], self._deadline)

    def _on_reply(self, message: Message) -> None:
        if getattr(message, "verb", None) != SVC_REPLY_VERB:
            return
        try:
            rid = int(message.params.get("req", ""))
        except ValueError:
            return
        request = self._pending.pop(rid, None)
        if request is None:
            return  # straggler after failure, or a hedged duplicate
        session = request.session
        session.completed += 1
        self.effects.record_ok(
            latency=self.kernel.clock._now - request.issued_at,
            retried=request.attempts > 1,
        )
        next_step = request.step + 1
        if next_step < len(session.ops):
            self._issue(session, next_step)
        else:
            self.effects.sessions_completed += 1
            if not self._pending:
                self.kernel.wake()  # drain() re-reads

    def _timeout(self, rid: int, attempt: int) -> None:
        request = self._pending.get(rid)
        if request is None or request.attempts != attempt:
            return  # answered, failed, or already re-sent
        phase = self._current_phase()
        if request.blame is None and phase != "none":
            request.blame = phase
        if request.attempts <= self.spec.max_retries:
            self.effects.record_retry(phase)
            self.kernel.trace.emit(
                self.client.name,
                ev.WORKLOAD_REQUEST_RETRIED,
                req=rid,
                op=request.op,
                attempt=request.attempts + 1,
                phase=phase,
            )
            self._send(request)
            return
        del self._pending[rid]
        if not self._pending:
            self.kernel.wake()  # drain() re-reads
        session = request.session
        remaining = len(session.ops) - request.step - 1
        blame = request.blame or phase
        self.effects.record_failure(blame, chain_remaining=remaining)
        self.kernel.trace.emit(
            self.client.name,
            ev.WORKLOAD_REQUEST_FAILED,
            req=rid,
            op=request.op,
            attempts=request.attempts,
            phase=blame,
        )
        self.kernel.trace.emit(
            self.client.name,
            ev.WORKLOAD_SESSION_ABANDONED,
            session=session.sid,
            completed=session.completed,
            remaining=remaining,
        )

    # ------------------------------------------------------------------
    # phase attribution
    # ------------------------------------------------------------------

    def _current_phase(self) -> str:
        """Which recovery phase the station is in right now.

        The earliest-injected open failure episode wins (losses during an
        overlapping episode belong to whoever has been failing longest);
        FD/REC watchdog spans are internal and never blamed.
        """
        best = None
        for episode in self.tracker.open_episodes():
            if episode.kind != "failure" or episode.injected_at is None:
                continue
            if best is None or episode.injected_at < best.injected_at:
                best = episode
        if best is None:
            return "none"
        if best.detected_at is None:
            return "detection"
        if best.decided_at is None:
            return "decision"
        return "restart"
