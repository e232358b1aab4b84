"""Typed observability layer: event registry, recovery spans, sinks.

``repro.obs`` turns the simulator's measurement story from post-hoc log
scraping into a first-class pipeline:

* :mod:`repro.obs.events` — every event kind the system emits, declared
  once with its expected payload (optionally validated at emit time);
* :mod:`repro.obs.spans` — :class:`RecoveryEpisode` spans with per-phase
  durations, built incrementally as events arrive by the one fold from
  events to episodes, :class:`EpisodeTracker`;
* :mod:`repro.obs.sinks` — pluggable destinations for the event stream:
  in-memory ring, streaming JSONL, counters by kind, and the mergeable
  accumulators the per-phase table is made of.

The shared :class:`~repro.sim.trace.Trace` is the emit front-end; sinks
attach to it via ``trace.add_sink(...)``.
"""

from repro.obs.events import (
    REGISTRY,
    EventRegistry,
    EventSpec,
    ObsValidationError,
    set_validation,
    validation_enabled,
)
from repro.obs.sinks import (
    CallbackSink,
    JsonlSink,
    MetricsSink,
    PhaseSnapshot,
    RingSink,
    Sink,
    SummaryStat,
    merge_phase_snapshots,
    read_jsonl,
)
from repro.obs.spans import EpisodeTracker, RecoveryEpisode

__all__ = [
    "REGISTRY",
    "EventRegistry",
    "EventSpec",
    "ObsValidationError",
    "set_validation",
    "validation_enabled",
    "Sink",
    "RingSink",
    "CallbackSink",
    "JsonlSink",
    "MetricsSink",
    "SummaryStat",
    "PhaseSnapshot",
    "merge_phase_snapshots",
    "read_jsonl",
    "EpisodeTracker",
    "RecoveryEpisode",
]
