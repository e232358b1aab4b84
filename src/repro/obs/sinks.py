"""Pluggable trace sinks: ring buffer, streaming JSONL, aggregated metrics.

A sink receives :class:`~repro.sim.trace.TraceRecord` objects the moment
they are emitted, and declares which kinds it reads (:attr:`Sink.kinds`) so
that a disabled trace builds no record for nobody.  Sinks are how
measurement stops being post-hoc log scraping:

* :class:`RingSink` — bounded in-memory retention (the trace's classic
  behaviour, now one sink among several);
* :class:`JsonlSink` — streams records to a JSON-lines file as they happen,
  so month-long runs can be inspected without retaining anything in memory
  (``repro trace`` reads these files back);
* :class:`PhaseSink` — keeps no records at all: through an embedded
  :class:`~repro.obs.spans.EpisodeTracker` it folds completed recovery
  episodes into per-(component, phase) duration aggregates, and reads only
  the kinds the tracker dispatches on;
* :class:`MetricsSink` — that table plus event counters by kind and by
  source, so it reads every kind.  Snapshots are plain JSON and merge
  associatively, which is what lets the parallel campaign runner combine
  sinks from worker processes into one campaign-wide breakdown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    IO,
    List,
    Mapping,
    Optional,
    TYPE_CHECKING,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import RecoveryEpisode
    from repro.sim.trace import TraceRecord


class Sink:
    """Interface: something that accepts emitted trace records."""

    #: The event kinds this sink reads: ``None`` for every kind (the
    #: default), else a frozenset.  A disabled trace builds a record only
    #: for a kind some attached sink declared.  It is a promise about what
    #: the sink reads, not a filter: ``accept`` is handed every record that
    #: gets built — all of them while the trace is enabled or any other
    #: attached sink reads everything.
    kinds: Optional[FrozenSet[str]] = None

    def accept(self, record: "TraceRecord") -> None:
        """Receive one record (called synchronously from ``Trace.emit``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (no-op by default)."""


class RingSink(Sink):
    """Bounded in-memory retention — the trace's classic ring buffer."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._records: "deque[TraceRecord]" = deque(maxlen=capacity)
        self.dropped = 0

    @property
    def capacity(self) -> Optional[int]:
        """Maximum retained records (None = unbounded)."""
        return self._records.maxlen

    @property
    def records(self) -> List["TraceRecord"]:
        """Retained records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(list(self._records))

    def accept(self, record: "TraceRecord") -> None:
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(record)

    def clear(self) -> None:
        """Discard all retained records (the drop counter is kept)."""
        self._records.clear()


class CallbackSink(Sink):
    """Adapts a plain callable to the sink interface."""

    def __init__(self, callback: Callable[["TraceRecord"], None]) -> None:
        self.callback = callback

    def accept(self, record: "TraceRecord") -> None:
        self.callback(record)


class JsonlSink(Sink):
    """Streams every record to a JSON-lines file.

    One object per line: ``{"t": ..., "source": ..., "kind": ...,
    "severity": ..., "data": {...}}``.  Payload values that are not
    JSON-native are stringified rather than rejected — the sink must never
    make an emit site fail.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.written = 0

    def accept(self, record: "TraceRecord") -> None:
        payload = {
            "t": record.time,
            "source": record.source,
            "kind": record.kind,
            "severity": str(record.severity),
            "data": record.data,
        }
        self._fh.write(json.dumps(payload, default=str) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()


def read_jsonl(path: str):
    """Yield record dicts from a :class:`JsonlSink` file, in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


# ----------------------------------------------------------------------
# aggregation primitives
# ----------------------------------------------------------------------


@dataclass
class SummaryStat:
    """Mergeable summary accumulator (count/sum/sumsq/min/max).

    Associative merges make per-worker aggregates combinable in any
    order, so campaign fan-out cannot change the merged result.
    """

    n: int = 0
    total: float = 0.0
    sumsq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample in."""
        self.n += 1
        self.total += value
        self.sumsq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "SummaryStat") -> None:
        """Fold another accumulator in (associative, order-independent)."""
        self.n += other.n
        self.total += other.total
        self.sumsq += other.sumsq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self.total / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation (0 when empty)."""
        if not self.n:
            return 0.0
        variance = max(self.sumsq / self.n - self.mean**2, 0.0)
        return math.sqrt(variance)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe snapshot (mergeable via :meth:`from_dict`)."""
        return {
            "n": self.n,
            "total": self.total,
            "sumsq": self.sumsq,
            "min": self.minimum if self.n else None,
            "max": self.maximum if self.n else None,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SummaryStat":
        """Rebuild an accumulator from :meth:`to_dict` output."""
        stat = SummaryStat(
            n=int(payload["n"]),
            total=float(payload["total"]),
            sumsq=float(payload["sumsq"]),
        )
        if stat.n:
            stat.minimum = float(payload["min"])
            stat.maximum = float(payload["max"])
        return stat


#: component → phase → accumulator snapshot, the cross-process exchange form.
PhaseSnapshot = Dict[str, Dict[str, Dict[str, Any]]]


def merge_phase_snapshots(*snapshots: PhaseSnapshot) -> PhaseSnapshot:
    """Merge per-worker phase snapshots into one (associative)."""
    merged: Dict[str, Dict[str, SummaryStat]] = {}
    for snapshot in snapshots:
        for component, phases in snapshot.items():
            slot = merged.setdefault(component, {})
            for phase, payload in phases.items():
                stat = SummaryStat.from_dict(payload)
                if phase in slot:
                    slot[phase].merge(stat)
                else:
                    slot[phase] = stat
    return {
        component: {phase: stat.to_dict() for phase, stat in phases.items()}
        for component, phases in merged.items()
    }


class PhaseSink(Sink):
    """Per-(component, phase) durations of completed recovery episodes.

    Keyed by component and phase as the campaign runner expects.  The sink
    retains no records and reads only the kinds its embedded
    :class:`~repro.obs.spans.EpisodeTracker` dispatches on; its whole state
    is the :class:`SummaryStat` table, which snapshots to JSON and merges
    across parallel campaign cells.
    """

    #: The phases reported for every completed episode, in display order.
    PHASES = ("detection", "decision", "restart", "total")

    def __init__(self) -> None:
        from repro.obs.spans import EpisodeTracker

        self.tracker: Optional[EpisodeTracker] = EpisodeTracker(
            on_complete=self._on_episode
        )
        self.kinds = EpisodeTracker.kinds
        self._phase_stats: Dict[str, Dict[str, SummaryStat]] = {}

    def accept(self, record: "TraceRecord") -> None:
        self.tracker.accept(record)

    def close(self) -> None:
        """Finalize cured-but-unconfirmed episodes into the phase table."""
        if self.tracker is not None:
            self.tracker.flush()

    def _on_episode(self, episode: "RecoveryEpisode") -> None:
        slot = self._phase_stats.get(episode.component)
        if slot is None:
            slot = self._phase_stats[episode.component] = {}
        # The episode's phase properties, with the recovery end read once.
        injected, detected = episode.injected_at, episode.detected_at
        decided, end = episode.decided_at, episode.recovery_end
        for phase, start, stop in (
            ("detection", injected, detected),
            ("decision", detected, decided),
            ("restart", decided, end),
            ("total", injected, end),
        ):
            if start is None or stop is None:
                continue
            stat = slot.get(phase)
            if stat is None:
                stat = slot[phase] = SummaryStat()
            stat.add(stop - start)

    def phase_stats(self, component: str) -> Dict[str, SummaryStat]:
        """Per-phase duration accumulators for one component."""
        return dict(self._phase_stats.get(component, {}))

    def phase_snapshot(self) -> PhaseSnapshot:
        """JSON-safe component → phase → accumulator snapshot."""
        return {
            component: {phase: stat.to_dict() for phase, stat in phases.items()}
            for component, phases in self._phase_stats.items()
        }


class MetricsSink(PhaseSink):
    """Streaming aggregation: the phase table plus event counters.

    The counters count every emit by kind and by (source, kind), so this
    sink reads every kind; both halves snapshot to JSON and merge across
    parallel campaign cells.
    """

    def __init__(self, track_episodes: bool = True) -> None:
        super().__init__()
        self.kinds = None
        if not track_episodes:
            self.tracker = None
        #: Events seen, by kind.
        self.counters: Dict[str, int] = {}
        #: Events seen, by (source, kind) — who emits what.
        self.source_counters: Dict[tuple, int] = {}

    # -- record intake ---------------------------------------------------

    def accept(self, record: "TraceRecord") -> None:
        kind = record.kind
        self.counters[kind] = self.counters.get(kind, 0) + 1
        key = (record.source, kind)
        self.source_counters[key] = self.source_counters.get(key, 0) + 1
        if self.tracker is not None:
            self.tracker.accept(record)

    # -- results ---------------------------------------------------------

    def count(self, kind: str) -> int:
        """Events of ``kind`` seen so far."""
        return self.counters.get(kind, 0)

    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-safe state: counters plus the phase table."""
        return {
            "counters": dict(self.counters),
            "phases": self.phase_snapshot(),
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another sink's :meth:`snapshot` into this one."""
        for kind, count in snapshot.get("counters", {}).items():
            self.counters[kind] = self.counters.get(kind, 0) + count
        merged = merge_phase_snapshots(self.phase_snapshot(), snapshot.get("phases", {}))
        self._phase_stats = {
            component: {
                phase: SummaryStat.from_dict(payload)
                for phase, payload in phases.items()
            }
            for component, phases in merged.items()
        }

    def merge(self, other: "MetricsSink") -> None:
        """Fold another sink's aggregates into this one."""
        self.merge_snapshot(other.snapshot())
        for key, count in other.source_counters.items():
            self.source_counters[key] = self.source_counters.get(key, 0) + count
