"""One differential harness: every optimisation against the code it replaced.

``REFERENCES`` holds one row per optimisation: its ``patch`` (a context
manager under which the product runs the old code, selected test-side —
there is no runtime switch), its ``counter`` (counting, under whichever
code is installed, the events the two sides may disagree on), its ``gap``
(the one quantity allowed to differ: ``reference.events_executed -
product.events_executed`` as a formula over the two sides' counts), its
``check`` (what the counts must show besides: that the reference ran its
old code and the product saved what it claims to), the ``condition`` both
sides run under, its ``exclusions`` (chaos scenarios it does not hold on)
and its ``idle`` cases (nothing to act on: both sides count nothing, or
what the row's ``idle_check`` asserts instead), each with a reason.

:func:`compare` runs one ``Case`` both ways and asserts equal values, equal
``kernel.now``, equal trace records, byte-identical non-empty JSONL traces,
no violations and the declared gap.  ``tests/integration/
test_differential_matrix.py`` runs every row on every ``CHAOS`` case;
station cases and unit rigs live with the suites of the code they pin.
"""

from __future__ import annotations

import collections
import functools
import io
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, Mapping, NamedTuple, Sequence

import pytest

from repro.chaos import engine as chaos_engine
from repro.chaos.scenarios import SCENARIOS
from repro.core.recoverer import RecoveryModule
from repro.detection.detector import FailureDetector
from repro.experiments import workload as workload_cells
from repro.mercury.components.ses_component import SesBehavior
from repro.mercury.trees import tree_v
from repro.obs import events as ev
from repro.obs.sinks import JsonlSink
from repro.sim.kernel import Kernel
from repro.sim.supervision import SupervisionClock
from repro.transport import network as network_module
from repro.transport.channel import Endpoint
from repro.transport.network import Network
from repro.types import Severity
from repro.workload.plane import SERVICE_VERBS, WorkloadPlane
from repro.xmlcmd import fastpath
from repro.xmlcmd.commands import CommandMessage
from repro.xmlcmd.fastpath import decode_envelope, encode_ping_wire


def _records(kernel: Kernel) -> list:
    """The kernel's trace records as comparable tuples."""
    return [(r.time, r.source, r.kind, r.severity, r.data) for r in kernel.trace.records]


@contextmanager
def recording(module, name: str, on_build: Callable[[Any], None] = lambda built: None):
    """Replace ``module.name`` (a class) by a subclass that hands every
    instance to ``on_build`` and collects it in the yielded list: how a case
    reaches the kernel of a station or plane a campaign builds itself."""
    built = []
    cls = getattr(module, name)

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            on_build(self)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, Recorded)
        yield built


#: The receive sites whose decoder refuses everything under the reference,
#: which sends every inbound message to ``parse_message`` at delivery — the
#: eager receive path the decoder replaced.  (A zombie broker recognises
#: its own pings with the same call, so degraded brokers are outside the
#: reference, as they were outside the differential contract before.)  The
#: standalone client calls no decoder: it hands every wire to
#: ``parse_message``, which under the reference is the parser.
_REFUSING_SITES = ("repro.bus.broker.decode_envelope",)


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
    """Broker, standalone client and component base full-parse every
    message, and no wire carries its encoder's memo: the one receive path
    (decode → vouch → full-parse fallback) on its fallback arm only."""
    with pytest.MonkeyPatch.context() as patch:
        # Encoders hand out plain text, and a ``Wire`` encoded before the
        # reference was entered is read as text too (``str(raw)`` above,
        # ``parse_message`` below), so nothing answers from an encoder's
        # memo: the reference decodes *text* end to end, with the scan and
        # the parser.
        patch.setattr(fastpath, "vouch", lambda text, envelope, memo=None: text)
        patch.setattr("repro.xmlcmd.commands.Wire", _NoWire)
        for site in _REFUSING_SITES:
            patch.setattr(site, lambda raw: None)
        patch.setattr("repro.components.base.decode_envelope", _vouch_pings_only)
        yield


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
        assert self.step()
    return True


@contextmanager
def _stepping_reference():
    """``boot``, ``run_until_recovered``, ``run_until_quiescent``, ``drain``
    and every other ``run_until`` caller step and poll."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "run_until", _stepping_run_until)
        yield


def _per_component_tick(self: FailureDetector, incarnation: int) -> None:
    """``FailureDetector._tick`` as it scheduled judgements before the
    round judge: *judge REC, then send, schedule that component's judge,
    send, schedule the next* — one kernel event for REC's ping and one per
    pinged component, each in its own heap entry.  Everything up to the
    ping loop is the product's, line for line."""
    if not self._alive or incarnation != self.process.start_count:
        return
    self.kernel.schedule_after(self.ping_period, self._tick, incarnation)
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
    """FD schedules one judge event for its REC ping and one per pinged
    component, interleaved with the sends, as it did before a round became
    one ``_judge_round`` event.  Build and boot the station inside the
    context: a tick queued outside it is already bound to the other
    ``_tick``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FailureDetector, "_tick", _per_component_tick)
        yield


def _judges_folded(kernel, folded, reference):
    assert reference["rounds"] == 0 and folded["rounds"] > 0
    assert folded["judges"] == reference["judges"]
    assert folded["judges"] > folded["rounds"]  # a real fold, not one-ping rounds


@contextmanager
def _rec_pings_fd_reference():
    """REC runs its own FD watchdog as it did before FD's round ping became
    its heartbeat, line for line — every ``fd_ping_period`` a ping to FD
    over the control channel, a timer judging the reply after
    ``fd_ping_timeout``, and a restart after ``fd_grace`` worth of misses —
    and FD answers those pings.  REC's heartbeat deadline is never armed.
    Yields a counter of the watchdog's executed events: ``timers`` (ping
    and judge timers) and ``hops`` (pings and replies delivered).  Build
    and boot the station inside the context."""
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
            self.kernel.schedule_after(self.fd_ping_period, ping_fd, self)

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
        if self._fd_misses * self.fd_ping_period < self.fd_grace:
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


@contextmanager
def _zero_jitter():
    """Every network a station builds draws no latency: a hop that goes or
    comes moves no other message's arrival."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            network_module,
            "LatencyModel",
            functools.partial(network_module.LatencyModel, jitter=0.0),
        )
        yield


@contextmanager
def _every_round_reference():
    """Every path is in doubt: FD steps every ping of every round, as it
    did before it folded the paths and rounds that can see nothing, and the
    supervision clock's pokes find nobody to wake.  Build and boot the
    station inside the context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FailureDetector, "_doubt", lambda self: None)
        yield


def _folded_rounds_gap(folded, stepped):
    # The folded rounds' FD timers and hops, and the deadline checks REC
    # saved sleeping on the fold.
    return sum(stepped[k] - folded[k] for k in ("timers", "hops", "deadlines"))


def _rounds_folded(kernel, folded, stepped):
    assert stepped["folds"] == 0 and folded["folds"] > 0
    assert _folded_rounds_gap(folded, stepped) > 0  # rounds really were folded


def _no_round_folded(folded, stepped):
    # Both sides step every round: the same timers and hops, and no fold.
    assert folded == stepped and folded["folds"] == stepped["folds"] == 0


def _watchdog_never_fired(kernel, heartbeat, watchdog):
    assert not kernel.trace.filter(kind=ev.FD_RESTART)
    assert heartbeat["deadlines"] > 0 and watchdog["hops"] > 0


def _polling_redial(self: Network, client_name, address, interval, callback) -> None:
    """``Network.redial`` as the four dial loops scheduled their next
    attempt before tickets: a timer, whatever the reason for the refusal —
    so a loop facing an unbound address polls it once per ``interval``."""
    self.kernel.schedule_after(interval, callback)


@contextmanager
def _polling_dial_reference():
    """No dial ever parks: every refused attempt arms a timer for the next
    one, as ``_schedule_reconnect`` and its three siblings did."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "redial", _polling_redial)
        yield


@contextmanager
def _redial_counts():
    """Count, under whichever ``Network.redial`` is installed, the kernel
    events that ran a redial callback (``fired``), those that returned at a
    guard without dialling (``idle``), and every dial's outcome."""
    counts = collections.Counter()
    redial, dial = Network.redial, Network.dial

    def counted_dial(self, client_name, address):
        endpoint = dial(self, client_name, address)
        counts["dials"] += 1
        counts["connected" if endpoint is not None else "refused"] += 1
        return endpoint

    def counted_redial(self, client_name, address, interval, callback):
        # A closure where the product demands a bound method: nothing here
        # forks a station after its first refusal.
        def fired():
            counts["fired"] += 1
            dials = counts["dials"]
            callback()
            if counts["dials"] == dials:
                counts["idle"] += 1

        redial(self, client_name, address, interval, fired)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "dial", counted_dial)
        patch.setattr(Network, "redial", counted_redial)
        yield counts


def _extra_redials(parked, polling):
    extra = polling["fired"] - parked["fired"]
    assert extra == (
        polling["refused"] - parked["refused"] + polling["idle"] - parked["idle"]
    )
    return extra


def _polls_saved(kernel, parked, polling):
    assert parked["connected"] == polling["connected"] > 0
    assert polling["refused"] - parked["refused"] > 0  # polls really were saved


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
    """Every ``WorkloadPlane._send`` arms its own kernel timer, as it did
    before the plane kept its deadlines to itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkloadPlane, "_send", _timer_per_send)
        yield


def _timers_saved(kernel, lanes, timers):
    assert timers["wakes"] == 0 and timers["timeouts"] == timers["sends"]
    assert lanes["sends"] == timers["sends"]
    assert 0 < lanes["wakes"] < lanes["sends"]  # timers really were saved


def _calls(**methods):
    """A counter: ``key=(cls, "name", ...)`` counts, under ``key``, calls
    of each named method of ``cls``, whoever makes them."""

    def counted(real, counts, key):
        def method(self, *args):
            counts[key] += 1
            return real(self, *args)

        return method

    @contextmanager
    def counter():
        counts = collections.Counter()
        with pytest.MonkeyPatch.context() as patch:
            for key, (cls, *names) in methods.items():
                for name in names:
                    patch.setattr(cls, name, counted(getattr(cls, name), counts, key))
            yield counts

    return counter


@contextmanager
def _round_counts():
    """Count, under either side, FD's round timers (``_tick``,
    ``_judge_round``), REC's FD deadline checks, the folds begun and the
    ping hops delivered (every ``Endpoint._deliver`` of a ping or a ping
    reply)."""
    deliver = Endpoint._deliver

    with _timers_and_folds() as counts, pytest.MonkeyPatch.context() as patch:

        def counted_deliver(self, message):
            envelope = decode_envelope(message)
            if envelope is not None and envelope.kind in ("ping", "ping-reply"):
                counts["hops"] += 1
            return deliver(self, message)

        patch.setattr(Endpoint, "_deliver", counted_deliver)
        yield counts


_timers_and_folds = _calls(
    timers=(FailureDetector, "_tick", "_judge_round"),
    deadlines=(RecoveryModule, "_check_fd_deadline"),
    folds=(SupervisionClock, "fold"),
)


@contextmanager
def _every_solve_reference():
    """No solve folds: ses runs every tick of its track/tune loop, and rtu
    forwards each refresh, as they did before the loop was replayed at its
    catch-ups; the supervision clock's pokes and settles, and the trace's,
    find no loop to wake."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SesBehavior, "_fold_loop", lambda self: None)
        yield


@contextmanager
def _solve_counts():
    """Count, under either side, ses's solve events, the folds begun and
    the loop's hops delivered (every ``Endpoint._deliver`` of a ``track``,
    a ``tune``, rtu's ``radio-set-freq`` or fedr's ``FREQ`` line)."""
    deliver = Endpoint._deliver

    with _solves_and_folds() as counts, pytest.MonkeyPatch.context() as patch:

        def counted_deliver(self, message):
            envelope = decode_envelope(message)
            if envelope is None:
                if message.startswith("FREQ "):
                    counts["hops"] += 1
            elif envelope.verb in _LOOP_VERBS:
                counts["hops"] += 1
            return deliver(self, message)

        patch.setattr(Endpoint, "_deliver", counted_deliver)
        yield counts


_solves_and_folds = _calls(
    solves=(SesBehavior, "_solve"),
    folds=(SesBehavior, "_fold"),
)


#: The verbs of the track/tune loop's bus hops: ses's two and rtu's forward.
_LOOP_VERBS = frozenset(("track", "tune", "radio-set-freq"))


def _folded_solves_gap(folded, stepped):
    # The skipped solves' events and every hop of their chains: the track
    # and the tune at mbus and at str or rtu, and rtu's forwards at mbus,
    # at the radio proxy and, on a split tree, at pbcom.
    return sum(stepped[k] - folded[k] for k in ("solves", "hops"))


def _solves_folded(kernel, folded, stepped):
    assert stepped["folds"] == 0 and folded["folds"] > 0
    assert _folded_solves_gap(folded, stepped) > 0  # solves really were folded


def _no_solve_folded(folded, stepped):
    assert folded == stepped and folded["folds"] == stepped["folds"] == 0


def _nothing_counted(product, reference):
    assert not product and not reference


@dataclass(frozen=True)
class Reference:
    """One optimisation's reference: see the module docstring."""

    patch: Callable[[], ContextManager[Any]]
    counter: Callable[[], ContextManager[collections.Counter]] = _calls()
    gap: Callable[[collections.Counter, collections.Counter], int] = lambda p, r: 0
    check: Callable[[Kernel, collections.Counter, collections.Counter], None] = (
        lambda kernel, product, reference: None
    )
    condition: Callable[[], ContextManager[Any]] = nullcontext
    exclusions: Mapping[str, str] = field(default_factory=dict)
    idle: Mapping[str, str] = field(default_factory=dict)
    idle_check: Callable[[collections.Counter, collections.Counter], None] = _nothing_counted


REFERENCES: Dict[str, Reference] = {
    "stepping": Reference(_stepping_reference),
    "full-parse": Reference(_full_parse_reference),
    "per-component-judges": Reference(
        _per_component_judges_reference,
        counter=_calls(
            judges=(FailureDetector, "_judge", "_judge_rec"),
            rounds=(FailureDetector, "_judge_round"),
        ),
        gap=lambda folded, reference: folded["judges"] - folded["rounds"],
        check=_judges_folded,
        # The old loop is the old ``_tick``: it folds no quiet round.
        condition=_every_round_reference,
    ),
    "polling-dials": Reference(
        _polling_dial_reference,
        counter=_redial_counts,
        gap=_extra_redials,
        check=_polls_saved,
    ),
    "rec-pings-fd": Reference(
        _rec_pings_fd_reference,
        counter=_calls(deadlines=(RecoveryModule, "_check_fd_deadline")),
        # The heartbeat side's executed deadline checks: none while REC
        # sleeps on FD's fold, so the checks it saved asleep count too.
        gap=lambda heartbeat, watchdog: (
            watchdog["timers"] + watchdog["hops"] - heartbeat["deadlines"]
        ),
        check=_watchdog_never_fired,
        condition=_zero_jitter,
        exclusions={
            "flapping": "kills FD: REC's watchdog fires, and the heartbeat and "
            "the ping loop restart FD at different instants",
            "hung-fd": "hangs FD: REC's watchdog fires, and the heartbeat and "
            "the ping loop restart FD at different instants",
        },
    ),
    "every-round": Reference(
        _every_round_reference,
        counter=_round_counts,
        gap=_folded_rounds_gap,
        check=_rounds_folded,
        idle={
            "lossy": "the adaptive policy steps every round",
            "partition": "the adaptive policy steps every round",
            "zombie-fleet": "the adaptive policy and the prober step every round",
        },
        idle_check=_no_round_folded,
    ),
    "every-solve": Reference(
        _every_solve_reference,
        counter=_solve_counts,
        gap=_folded_solves_gap,
        check=_solves_folded,
        idle={
            scenario: "a strategy station's str logs every track in its "
            "session store: no solve folds"
            for scenario in ("store-outage", "rogue-oracle-crash")
        },
        idle_check=_no_solve_folded,
    ),
    "per-request-timers": Reference(
        _per_request_timers_reference,
        counter=_calls(
            sends=(WorkloadPlane, "_send"),
            wakes=(WorkloadPlane, "_deadline"),
            timeouts=(WorkloadPlane, "_timeout"),
        ),
        gap=lambda lanes, timers: lanes["sends"] - lanes["wakes"],
        check=_timers_saved,
        idle={
            scenario: "a chaos run has no traffic plane: nothing is sent"
            for scenario in SCENARIOS
        },
    ),
}


class Run(NamedTuple):
    """One side of a case: its kernel, its value and any violations."""

    kernel: Kernel
    value: Any
    violations: Sequence[Any] = ()


class Case(NamedTuple):
    """``run(jsonl) -> Run`` builds and drives the product with ``jsonl`` on
    its trace; ``check(value, counts)`` asserts what the case is for."""

    name: str
    run: Callable[[JsonlSink], Run]
    check: Callable[[Any, collections.Counter], None] = lambda value, counts: None


def compare(name: str, case: Case) -> None:
    """Run ``case`` as-is and under ``REFERENCES[name]``: everything but the
    event count equal, the count apart by the declared gap."""
    reference = REFERENCES[name]
    sides = []
    with reference.condition():
        for patch in (nullcontext, reference.patch):
            stream = io.StringIO()
            with patch() as yielded, reference.counter() as counts:
                run = case.run(JsonlSink(stream))
            counts.update(yielded or {})
            sides.append((run, stream.getvalue(), counts))
    (product, jsonl, counts), (ref, ref_jsonl, ref_counts) = sides
    assert product.value == ref.value
    assert product.kernel.now == ref.kernel.now
    assert _records(product.kernel) == _records(ref.kernel)
    assert jsonl == ref_jsonl and jsonl
    assert not product.violations and not ref.violations
    if case.name in reference.idle:
        reference.idle_check(counts, ref_counts)
    else:
        reference.check(product.kernel, counts, ref_counts)
    assert (
        ref.kernel.events_executed - product.kernel.events_executed
        == reference.gap(counts, ref_counts)
    )
    case.check(product.value, counts)


def _chaos_case(scenario: str) -> Case:
    def run(jsonl):
        with recording(chaos_engine, "MercuryStation") as built:
            result = chaos_engine.run_chaos(
                tree_v(), scenario, trials=1, seed=7, snapshot=False, sinks=[jsonl]
            )
        assert result.episodes > 0
        if scenario == "rogue-oracle-crash":
            assert result.supervisor_restarts > 0
        if scenario == "store-outage":
            assert result.store_outages > 0
        return Run(built[-1].kernel, result, result.violations)

    return Case(scenario, run)


#: One case per chaos scenario: one trial on tree V, seed 7, fresh boot.
CHAOS: Dict[str, Case] = {scenario: _chaos_case(scenario) for scenario in SCENARIOS}


def run_traffic_cell(cell: Callable[[], Any], jsonl: JsonlSink):
    """Run ``cell()``, a workload campaign cell, with ``jsonl`` on the trace
    of the plane it builds; returns the cell's result and the plane."""
    with recording(
        workload_cells, "WorkloadPlane", lambda plane: plane.kernel.trace.add_sink(jsonl)
    ) as planes:
        result = cell()
    return result, planes[-1]
