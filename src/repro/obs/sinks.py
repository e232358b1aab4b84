"""Pluggable trace sinks: ring buffer, streaming JSONL, aggregated metrics.

A sink receives :class:`~repro.sim.trace.TraceRecord` objects the moment
they are emitted, and declares which kinds it reads (:attr:`Sink.kinds`) so
that a disabled trace builds no record for nobody.  Sinks are how
measurement stops being post-hoc log scraping:

* :class:`RingSink` — bounded in-memory retention (the trace's classic
  behaviour, now one sink among several);
* :class:`JsonlSink` — streams records to a JSON-lines file as they happen,
  so month-long runs can be inspected without retaining anything in memory
  (``repro trace`` and ``repro explain`` read these files back);
* :class:`MetricsSink` — event counters by kind, so it reads every kind.

The other sink is :class:`~repro.obs.spans.EpisodeTracker`, the one fold
from events to recovery episodes.  Its per-phase table
(:func:`~repro.obs.spans.phase_snapshot`) is made of the
:class:`SummaryStat` accumulators below: plain JSON that merges
associatively, which is what lets the parallel campaign runner combine
cells from worker processes into one campaign-wide breakdown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections import Counter, deque
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


class MetricsSink(Sink):
    """Event counters by kind: counts every emit, so it reads every kind.

    Episodes and their phase table come from an
    :class:`~repro.obs.spans.EpisodeTracker`, not from here.
    """

    def __init__(self) -> None:
        #: Events seen, by kind.
        self.counters: Counter = Counter()

    def accept(self, record: "TraceRecord") -> None:
        self.counters[record.kind] += 1

    def count(self, kind: str) -> int:
        """Events of ``kind`` seen so far."""
        return self.counters[kind]
