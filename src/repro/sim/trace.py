"""Structured simulation trace.

Every subsystem emits :class:`TraceRecord` entries (component started,
failure injected, failure detected, restart requested, ...).  The experiment
harness reconstructs recovery timelines from the trace rather than from ad
hoc instrumentation, mirroring the paper's methodology: "*We log the time when
the signal is sent; once the component determines it is functionally ready,
it logs a timestamped message.*" (section 4.1).

The trace is the emit front-end of the :mod:`repro.obs` observability
layer: event kinds are declared once in :data:`repro.obs.events.REGISTRY`
(with opt-in schema validation), retention lives in a pluggable
:class:`~repro.obs.sinks.RingSink`, and additional sinks — streaming JSONL,
aggregated metrics, live recovery-episode spans — attach via
:meth:`Trace.add_sink`.  A sink declares the kinds it reads
(:attr:`~repro.obs.sinks.Sink.kinds`); a trace with ``enabled = False``
builds a record only when some attached sink declared its kind, which is how
month-long availability runs compute per-phase recovery breakdowns without
retaining a single record — or building the two thirds of them nobody reads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional

from repro.obs import events as _events
from repro.obs.sinks import RingSink, Sink
from repro.types import Severity, SimTime


class TraceRecord(NamedTuple):
    """One timestamped trace entry, an immutable tuple (``data`` defaults to
    one shared empty dict: no payload is mutated after emit).

    Attributes
    ----------
    time:
        Simulated time at which the event occurred.
    source:
        Name of the emitting subsystem or component (``"fd"``, ``"rec"``,
        ``"proc.fedr"``, ...).
    kind:
        Machine-readable event kind (``"failure_injected"``,
        ``"process_ready"``, ...), declared in the
        :data:`repro.obs.events.REGISTRY`.  The experiment harness matches
        on this.
    severity:
        Coarse severity, used only for human-readable dumps.
    data:
        Payload; keys are event-kind specific, declared by the kind's
        :class:`~repro.obs.events.EventSpec`.
    """

    time: SimTime
    source: str
    kind: str
    severity: Severity = Severity.INFO
    data: Dict[str, Any] = {}

    def format(self) -> str:
        """Render the record as a single human-readable line."""
        payload = " ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.time:12.6f}] {self.severity!s:7} {self.source:18} {self.kind} {payload}".rstrip()

    def __deepcopy__(self, memo: dict) -> "TraceRecord":
        # Records are append-only history: immutable, and nothing ever
        # mutates a payload after emit.  Sharing them keeps a snapshotted
        # station's retained boot trace from being walked record by record.
        return self


#: How :meth:`Trace.emit` builds a record: one allocation, no keyword parsing.
_new_record = tuple.__new__


class Trace:
    """Append-only trace front-end with pluggable sinks and query helpers.

    The trace deliberately stores plain records, not object references, so a
    completed simulation can be analysed after its kernel and components have
    been discarded.

    Delivery rules (the ``enabled`` flag):

    * ``enabled`` (default) — records are retained in the ring, delivered
      to legacy :meth:`subscribe` callbacks, and fanned out to sinks;
    * disabled — nothing is retained and subscribers are **skipped**; a
      record is built, and fanned out to every sink, only when its kind is
      one some attached sink declared (:attr:`~repro.obs.sinks.Sink.kinds`;
      ``None`` declares them all).  Otherwise ``emit`` returns ``None``
      without building anything — with no sinks attached that is every
      emit, the zero-cost path for hot loops.

    ``kinds`` is a promise about what a sink *reads*, not a filter it can
    rely on: a record that is built goes to every sink.
    """

    def __init__(self, clock: Any = None, capacity: Optional[int] = None) -> None:
        """Create a trace.

        Parameters
        ----------
        clock:
            Object with a ``now`` attribute; when provided, :meth:`emit` can
            omit the timestamp.
        capacity:
            If given, keep only the most recent ``capacity`` records (a ring
            buffer for long availability runs where only aggregate metrics
            are extracted incrementally via sinks).
        """
        self._clock = clock
        self._ring = RingSink(capacity)
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._sinks: List[Sink] = []
        #: Union of the attached sinks' declared kinds; ``None`` once any
        #: sink reads them all.  Recomputed whenever a sink comes or goes.
        self._wanted: Optional[FrozenSet[str]] = frozenset()
        #: When False, emitted records are neither retained nor delivered to
        #: subscribers; attached sinks still see them — the fast path for
        #: campaign workers that only consume aggregate metrics.
        self.enabled = True

    @property
    def records(self) -> List[TraceRecord]:
        """All retained records, oldest first."""
        return self._ring.records

    @property
    def dropped(self) -> int:
        """Number of records discarded due to the capacity limit."""
        return self._ring.dropped

    @property
    def capacity(self) -> Optional[int]:
        """The ring's retention limit (None = unbounded)."""
        return self._ring.capacity

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every future record while enabled.

        Compatibility shim predating sinks: subscribers follow the
        ``enabled`` flag.  New code that must observe records regardless of
        retention should attach a sink instead.
        """
        self._subscribers.append(callback)

    def add_sink(self, sink: Sink) -> Sink:
        """Attach a sink; while disabled, only its ``kinds`` are built for it."""
        self._sinks.append(sink)
        self._refresh_wanted()
        return sink

    def remove_sink(self, sink: Sink) -> None:
        """Detach a previously attached sink."""
        self._sinks.remove(sink)
        self._refresh_wanted()

    def _refresh_wanted(self) -> None:
        wanted: FrozenSet[str] = frozenset()
        for sink in self._sinks:
            if sink.kinds is None:
                self._wanted = None
                return
            wanted |= sink.kinds
        self._wanted = wanted

    @property
    def sinks(self) -> List[Sink]:
        """The attached sinks (a copy; mutate via add/remove)."""
        return list(self._sinks)

    def wants(self, kind: str) -> bool:
        """Whether an :meth:`emit` of ``kind`` does anything: the trace is
        enabled, validation is on, or an attached sink reads ``kind``.  A
        forwarder asks before re-packing its keywords into :meth:`emit`."""
        if self.enabled or _events._validation_enabled:
            return True
        wanted = self._wanted
        return wanted is None or kind in wanted

    def emit(
        self,
        source: str,
        kind: str,
        severity: Severity = Severity.INFO,
        time: Optional[SimTime] = None,
        **data: Any,
    ) -> Optional[TraceRecord]:
        """Append a record; timestamp defaults to the attached clock's now.

        Returns ``None`` without building a record when the trace is
        disabled and no attached sink declared ``kind`` — the zero-cost
        path for hot loops.  With validation on
        (:func:`repro.obs.events.set_validation` or ``REPRO_OBS_VALIDATE=1``),
        the kind and payload are checked against the event registry first,
        whoever is or is not listening.
        """
        if not self.wants(kind):
            return None
        if _events._validation_enabled:
            _events.REGISTRY.validate(kind, data)
            wanted = self._wanted  # checked; built only for a reader
            if not self.enabled and wanted is not None and kind not in wanted:
                return None
        if time is None:
            if self._clock is None:
                raise ValueError("no clock attached; pass time= explicitly")
            time = self._clock.now
        record = _new_record(TraceRecord, (time, source, kind, severity, data))
        if self.enabled:
            self._ring.accept(record)
            for callback in self._subscribers:
                callback(record)
        for sink in self._sinks:
            sink.accept(record)
        return record

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[SimTime] = None,
        until: Optional[SimTime] = None,
        **data_match: Any,
    ) -> List[TraceRecord]:
        """Return retained records matching all given criteria.

        ``data_match`` keys must be present in the record payload with equal
        values; e.g. ``trace.filter(kind="process_ready", name="fedr")``.
        """
        out: List[TraceRecord] = []
        for record in self._ring:
            if kind is not None and record.kind != kind:
                continue
            if source is not None and record.source != source:
                continue
            if since is not None and record.time < since:
                continue
            if until is not None and record.time > until:
                continue
            if any(record.data.get(k) != v for k, v in data_match.items()):
                continue
            out.append(record)
        return out

    def first(self, kind: str, **data_match: Any) -> Optional[TraceRecord]:
        """First retained record of the given kind matching the criteria."""
        for record in self._ring:
            if record.kind != kind:
                continue
            if any(record.data.get(k) != v for k, v in data_match.items()):
                continue
            return record
        return None

    def last(self, kind: str, **data_match: Any) -> Optional[TraceRecord]:
        """Most recent retained record of the kind matching the criteria."""
        for record in reversed(self._ring.records):
            if record.kind != kind:
                continue
            if any(record.data.get(k) != v for k, v in data_match.items()):
                continue
            return record
        return None

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable multi-line rendering of (the tail of) the trace."""
        records = self._ring.records
        if limit is not None:
            records = records[-limit:]
        return "\n".join(record.format() for record in records)
