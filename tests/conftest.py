"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections
from contextlib import contextmanager

import pytest

from repro.core.recoverer import RecoveryModule
from repro.detection.detector import FailureDetector
from repro.obs import events as ev
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.kernel import Kernel
from repro.transport.network import Network
from repro.types import Severity
from repro.workload.plane import SERVICE_VERBS, WorkloadPlane
from repro.xmlcmd import fastpath
from repro.xmlcmd.commands import CommandMessage
from repro.xmlcmd.fastpath import decode_envelope, encode_ping_wire


@pytest.fixture
def kernel() -> Kernel:
    """A fresh deterministic kernel."""
    return Kernel(seed=1234)


@pytest.fixture
def network(kernel: Kernel) -> Network:
    """A simulated network on the shared kernel."""
    return Network(kernel)


@pytest.fixture
def manager(kernel: Kernel) -> ProcessManager:
    """A process manager with mild batch contention."""
    return ProcessManager(kernel, contention_coefficient=0.05)


@pytest.fixture
def built(monkeypatch):
    """Every ``TraceRecord`` ``Trace.emit`` constructs, in order."""
    import repro.sim.trace as trace_module

    records = []
    new_record = trace_module._new_record

    def counted(cls, fields):
        record = new_record(cls, fields)
        records.append(record)
        return record

    monkeypatch.setattr(trace_module, "_new_record", counted)
    return records


#: The receive sites whose decoder refuses everything under the reference,
#: which sends every inbound message to ``parse_message`` at delivery — the
#: eager receive path the decoder replaced.  (A zombie broker recognises
#: its own pings with the same call, so degraded brokers are outside the
#: reference, as they were outside the differential contract before.)
_REFUSING_SITES = (
    "repro.bus.broker.decode_envelope",
    "repro.bus.client.decode_envelope",
)


def _vouch_pings_only(raw):
    """The component base's decoder under the reference: its ping reply sits
    *ahead* of the session-store tap, so refusing pings too would log them
    and change the store's behaviour, not just the decoder."""
    envelope = fastpath.decode_envelope(str(raw))
    return envelope if envelope is not None and envelope.kind == "ping" else None


class _NoWire(str):
    """``Wire`` as the typed layer sees it under the reference: never
    instantiated, so no string is one."""


@contextmanager
def _full_parse_reference():
    with pytest.MonkeyPatch.context() as patch:
        # Encoders hand out plain text, and a ``Wire`` encoded before the
        # reference was entered is read as text too (``str(raw)`` above,
        # ``parse_message`` and ``received_message`` below), so nothing
        # answers from an encoder's memo: the reference decodes *text* end
        # to end.
        patch.setattr(fastpath, "vouch", lambda text, envelope, params=None: text)
        patch.setattr("repro.xmlcmd.commands.Wire", _NoWire)
        for site in _REFUSING_SITES:
            patch.setattr(site, lambda raw: None)
        patch.setattr("repro.components.base.decode_envelope", _vouch_pings_only)
        yield


@pytest.fixture(scope="session")
def full_parse_reference():
    """The bus differential suites' reference: a context manager under which
    broker, standalone client and component base full-parse every message,
    and no wire carries its encoder's memo.

    Selected here, test-side, by making the decoder refuse — the one
    receive path (decode → vouch → full-parse fallback) is then exercised
    on its fallback arm only.  There is no runtime switch for this.  Session
    scope (the fixture holds no state) so hypothesis tests can use it.
    """
    return _full_parse_reference


def _stepping_run_until(self: Kernel, predicate, until=None) -> bool:
    """``Kernel.run_until``'s contract by the loop it replaced: execute one
    event through ``step()``, re-read the predicate, whatever the event
    touched.  No wake is consulted, so a predicate term whose transition
    lacks a wake site makes the real ``run_until`` overshoot this one."""
    while not predicate():
        next_time = self.peek_next_time()
        if self.stopped or next_time is None:
            return False
        if until is not None and next_time > until:
            if self.now < until:
                self.clock.advance_to(until)
            return False
        self.step()
    return True


@contextmanager
def _stepping_reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "run_until", _stepping_run_until)
        yield


@pytest.fixture(scope="session")
def stepping_reference():
    """The event-driven waits' reference: a context manager under which
    ``boot``, ``run_until_recovered``, ``run_until_quiescent``, ``drain``
    and every other ``run_until`` caller step and poll.  Test-side only,
    like ``full_parse_reference``; session scope, it holds no state."""
    return _stepping_reference


def _per_component_tick(self: FailureDetector) -> None:
    """``FailureDetector._tick`` as it scheduled judgements before the
    round judge: *judge REC, then send, schedule that component's judge,
    send, schedule the next* — one kernel event for REC's ping and one per
    pinged component, each in its own heap entry.  Everything up to the
    ping loop is the product's, line for line."""
    if not self._alive:
        return
    self.kernel.schedule_after(self.ping_period, self._tick)
    if self.process.degraded_mode is not None:
        return
    if not self.connected:
        self._try_connect()
    adaptive = self.timeout_policy == "adaptive"
    if adaptive:
        if not self.connected and self._partition_suspected:
            self._partition_suspected = False
            self.trace(ev.PARTITION_CLEARED)
        self._round_pinged = set()
        self._round_replied = set()
        self._round_judged = False
    rec_seq = self._ping_rec()
    timeout = self._current_timeout()
    now = self.kernel.now
    schedule_after = self.kernel.schedule_after
    if rec_seq is not None:
        schedule_after(timeout, self._judge_rec, rec_seq)
    for component in self.monitored:
        if component in self._suppressed:
            continue
        self._seq += 1
        self._outstanding[component] = (self._seq, now)
        sent = self._send_ping_wire(component, self._seq)
        if not sent:
            if component == self.bus_component:
                schedule_after(timeout, self._judge, component, self._seq)
            else:
                self._outstanding.pop(component, None)
            continue
        if adaptive:
            self._round_pinged.add(component)
        schedule_after(timeout, self._judge, component, self._seq)


@contextmanager
def _per_component_judges_reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FailureDetector, "_tick", _per_component_tick)
        yield


@pytest.fixture(scope="session")
def per_component_judges_reference():
    """The round judge's reference: a context manager under which FD
    schedules one judge event for its REC ping and one per pinged
    component, interleaved with the sends, as it did before a round became
    one ``_judge_round`` event.
    Test-side only, like ``full_parse_reference``; session scope, it holds
    no state.  Build and boot the station inside the context: a tick queued
    outside it is already bound to the other ``_tick``."""
    return _per_component_judges_reference


#: REC's own FD ping period: the station's ``ping_period``.
_REC_FD_PING_PERIOD = 1.0


@contextmanager
def _rec_pings_fd_reference():
    """REC's FD watchdog as it was before FD's round ping became its
    heartbeat, line for line; ``watchdog`` counts what it executes."""
    watchdog = collections.Counter()
    rec_accept = RecoveryModule._on_accept
    rec_lifecycle = RecoveryModule._on_lifecycle
    rec_ctl_raw = RecoveryModule._on_ctl_raw
    fd_ctl_raw = FailureDetector._on_ctl_raw

    def on_start(self):
        self._ping_seq = getattr(self, "_ping_seq", 0)
        self._outstanding_ping = None
        self._fd_misses = 0
        self._fd_restart_inflight = False
        self._listener = self.network.listen(self.ctl_address, self._on_accept)
        self.trace(ev.REC_LISTENING, address=self.ctl_address)
        if self.process.start_count > 1:
            self.engine.new_incarnation()
        else:
            self.engine.start()
        schedule_fd_ping(self)

    def schedule_fd_ping(self):
        if self.engine.alive:
            self.kernel.schedule_after(_REC_FD_PING_PERIOD, ping_fd, self)

    def ping_fd(self):
        watchdog["timers"] += 1
        if not self.engine.alive:
            return
        if self._fd_restart_inflight:
            schedule_fd_ping(self)
            return
        self._ping_seq += 1
        self._outstanding_ping = self._ping_seq
        sent = self._ctl_send_raw(
            encode_ping_wire("ping", self.name, self.fd_name, self._ping_seq)
        )
        if not sent:
            register_fd_miss(self)
            schedule_fd_ping(self)
            return
        self.kernel.schedule_after(self.fd_ping_timeout, check_fd_ping, self, self._ping_seq)
        schedule_fd_ping(self)

    def check_fd_ping(self, seq):
        watchdog["timers"] += 1
        if not self.engine.alive or self._outstanding_ping != seq:
            return
        self._outstanding_ping = None
        register_fd_miss(self)

    def register_fd_miss(self):
        self._fd_misses += 1
        if self._fd_misses * _REC_FD_PING_PERIOD < self.fd_grace:
            return
        fd = self.manager.maybe_get(self.fd_name)
        if fd is None or self._fd_restart_inflight:
            return
        self._fd_restart_inflight = True
        self._fd_misses = 0
        self.trace(ev.FD_RESTART, severity=Severity.WARNING)
        self.manager.restart([self.fd_name])

    def on_accept(self, endpoint):
        rec_accept(self, endpoint)
        self._fd_misses = 0

    def on_lifecycle(self, process, event):
        if event == "ready" and self.engine.alive and process.name == self.fd_name:
            self._fd_misses = 0
        rec_lifecycle(self, process, event)

    def rec_on_ctl_raw(self, raw):
        env = decode_envelope(raw)
        if env is not None and env.kind == "ping-reply":
            watchdog["hops"] += 1
            if self.engine.alive and env.seq == self._outstanding_ping:
                self._outstanding_ping = None
                self._fd_misses = 0
            return
        rec_ctl_raw(self, raw)

    def fd_on_ctl_raw(self, raw):
        env = decode_envelope(raw)
        if env is not None and env.kind == "ping":
            watchdog["hops"] += 1
            if self._alive:
                self._ctl_send_raw(
                    encode_ping_wire("ping-reply", self.name, env.sender, env.seq)
                )
            return
        fd_ctl_raw(self, raw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RecoveryModule, "on_start", on_start)
        patch.setattr(RecoveryModule, "_on_accept", on_accept)
        patch.setattr(RecoveryModule, "_on_lifecycle", on_lifecycle)
        patch.setattr(RecoveryModule, "_on_ctl_raw", rec_on_ctl_raw)
        patch.setattr(FailureDetector, "_on_ctl_raw", fd_on_ctl_raw)
        yield watchdog


@pytest.fixture(scope="session")
def rec_pings_fd_reference():
    """The FD heartbeat's reference: a context manager under which REC runs
    its own FD watchdog as it did before FD's round ping became REC's
    heartbeat — every second a ping to FD over the control channel, a
    timer judging the reply after ``fd_ping_timeout``, and a restart after
    ``fd_grace`` worth of misses — and FD answers those pings.  REC's
    heartbeat deadline is never armed.  The context yields a counter of
    the watchdog's executed events: ``timers`` (ping and judge timers) and
    ``hops`` (pings and replies delivered).  Test-side only, like
    ``full_parse_reference``; session scope, it holds no state.  Build and
    boot the station inside the context."""
    return _rec_pings_fd_reference


def _polling_redial(self: Network, client_name, address, interval, callback) -> None:
    """``Network.redial`` as the four dial loops scheduled their next
    attempt before tickets: a timer, whatever the reason for the refusal —
    so a loop facing an unbound address polls it once per ``interval``."""
    self.kernel.call_after(interval, callback)


@contextmanager
def _polling_dial_reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "redial", _polling_redial)
        yield


@pytest.fixture(scope="session")
def polling_dial_reference():
    """The parked dials' reference: a context manager under which no dial
    ever parks — every refused attempt arms a timer for the next one, as
    ``_schedule_reconnect`` and its three siblings did.  Test-side only,
    like ``full_parse_reference``; session scope, it holds no state."""
    return _polling_dial_reference


def _timer_per_send(self: WorkloadPlane, request) -> None:
    """``WorkloadPlane._send`` as it armed the retry ladder before the
    deadline lanes: one kernel timer per send, answered or not, carrying the
    send's own sequence number.  The lanes stay empty, so ``_deadline`` is
    never armed; everything up to the timer is the product's, line for line."""
    request.attempts += 1
    self.client.send(
        CommandMessage(
            sender=self.client.name,
            target=self.targets[request.op],
            verb=SERVICE_VERBS[request.op],
            params={"req": str(request.rid)},
        )
    )
    timeout = (
        self.spec.request_timeout_s
        + (request.attempts - 1) * self.spec.retry_backoff_s
    )
    self.kernel.schedule_after(timeout, self._timeout, request.rid, request.attempts)


@contextmanager
def _per_request_timers_reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkloadPlane, "_send", _timer_per_send)
        yield


@pytest.fixture(scope="session")
def per_request_timers_reference():
    """The deadline lanes' reference: a context manager under which every
    ``WorkloadPlane._send`` arms its own kernel timer, as it did before the
    plane kept its deadlines to itself.  Test-side only, like
    ``full_parse_reference``; session scope, it holds no state."""
    return _per_request_timers_reference


def spawn_simple(manager: ProcessManager, name: str, work: float = 1.0):
    """Helper: register a bare process with constant startup work."""
    return manager.spawn(ProcessSpec(name, constant_work(work)))
