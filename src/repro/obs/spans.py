"""Recovery-episode spans, built incrementally as events arrive.

The paper's evaluation is entirely about per-episode timing: "we log the
time when the signal is sent; once the component determines it is
functionally ready, it logs a timestamped message" (§4.1).  Previously each
consumer re-scanned the trace ring buffer to reconstruct that interval;
:class:`EpisodeTracker` instead folds the event stream into
:class:`RecoveryEpisode` spans *as the simulation runs*, so per-phase
latencies (detection → decision → restart) are available without any
retention or re-scan — including on month-long availability runs where the
ring buffer is disabled entirely.

The span model::

    failure_injected ──▶ detection ──▶ restart_ordered ──▶ process_ready
         (inject)        (detect)         (decide)           (ready)
                                                    └─▶ failure_cured /
                                                        restart_complete

* **detection latency** — injection to the supervisor's declaration;
* **decision latency** — declaration to the restart order (report
  delivery plus oracle/policy time);
* **restart duration** — restart order to the end of the curing restart;
* **total recovery** — injection to the end of the curing restart (the
  paper's Table 2/4 quantity).

Special cases handled (each has a dedicated regression test):

* overlapping episodes on one component (an aging failure landing while a
  joint-curable failure is still open) — episodes are keyed by failure id,
  never by component alone;
* restart-while-restarting — an insufficient restart completes, the
  failure re-manifests, and an escalated restart follows inside the same
  episode (``restarts`` counts the orders; phases stay anchored to the
  *first* decision so phase durations remain additive);
* FD/REC mutual restarts — ``rec_restart``/``fd_restart`` watchdog moves
  have no injected failure; they become ``kind="watchdog"`` spans measuring
  only the restart phase.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, TYPE_CHECKING

from repro.obs import events as ev
from repro.obs.sinks import PhaseSnapshot, SummaryStat
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import TraceRecord


@dataclass(slots=True)
class RecoveryEpisode:
    """One failure's journey from injection to full recovery."""

    component: str
    #: ``"failure"`` for injected failures, ``"watchdog"`` for FD/REC
    #: mutual restarts (no injection; only the restart phase exists).
    kind: str = "failure"
    failure_id: Optional[int] = None
    failure_kind: Optional[str] = None
    cure_set: tuple = ()
    injected_at: Optional[SimTime] = None
    detected_at: Optional[SimTime] = None
    #: What the detector used to declare this failure: ``"ping"`` (liveness
    #: miss) or ``"probe"`` (end-to-end probe unmasked a fail-slow mode).
    detected_via: Optional[str] = None
    decided_at: Optional[SimTime] = None
    #: Cells ordered restarted during this episode, in order (escalations
    #: append; the last entry is the curing restart's cell).
    cells: List[str] = field(default_factory=list)
    ready_at: Optional[SimTime] = None
    completed_at: Optional[SimTime] = None
    cured_at: Optional[SimTime] = None
    closed_at: Optional[SimTime] = None
    restarts: int = 0
    rekicks: int = 0
    redetections: int = 0
    remanifestations: int = 0
    gave_up: bool = False

    # -- span boundaries -------------------------------------------------

    @property
    def recovery_end(self) -> Optional[SimTime]:
        """When the curing restart finished (the measured recovery instant).

        For singleton restarts this is the component's own readiness; for
        group restarts it is the covering batch's completion.  Completions
        of *insufficient* restarts (before the cure) are ignored.
        """
        if self.kind == "watchdog":
            return self.ready_at
        if self.cured_at is None:
            return None
        end = self.cured_at
        if self.ready_at is not None and self.ready_at > end:
            end = self.ready_at
        if self.completed_at is not None and self.completed_at >= self.cured_at:
            end = max(end, self.completed_at)
        return end

    @property
    def is_complete(self) -> bool:
        """Whether the episode reached its recovery end."""
        return self.recovery_end is not None

    # -- per-phase durations ----------------------------------------------

    @property
    def detection_latency(self) -> Optional[float]:
        """Injection → supervisor declaration."""
        if self.injected_at is None or self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def decision_latency(self) -> Optional[float]:
        """Declaration → restart order (report delivery + oracle/policy)."""
        if self.detected_at is None or self.decided_at is None:
            return None
        return self.decided_at - self.detected_at

    @property
    def restart_duration(self) -> Optional[float]:
        """First restart order → end of the curing restart.

        Escalated episodes include their failed attempts here, keeping
        detection + decision + restart == total.
        """
        end = self.recovery_end
        if self.decided_at is None or end is None:
            return None
        return end - self.decided_at

    @property
    def total_recovery(self) -> Optional[float]:
        """Injection → end of the curing restart (Table 2/4's quantity)."""
        end = self.recovery_end
        if self.injected_at is None or end is None:
            return None
        return end - self.injected_at

    @property
    def cell(self) -> Optional[str]:
        """The curing restart's cell (the last one ordered)."""
        return self.cells[-1] if self.cells else None


class EpisodeTracker:
    """Folds the live event stream into :class:`RecoveryEpisode` spans.

    The one fold from events to episodes: a trace sink
    (``trace.add_sink(tracker)``) on a live run, or fed a finished
    ``--trace-out`` file by ``repro explain``.  Completed episodes land in
    :attr:`episodes` (and fire ``on_complete``); :func:`phase_snapshot`
    turns them into the per-phase table; episodes still in flight are
    visible via :meth:`open_episodes`.
    """

    #: Event kind → the method that folds it in.
    _HANDLERS = {
        ev.FAILURE_INJECTED: "_on_injected",
        ev.DETECTION: "_on_detection",
        ev.RESTART_ORDERED: "_on_restart_ordered",
        ev.RESTART_REKICK: "_on_rekick",
        ev.PROCESS_READY: "_on_ready",
        ev.RESTART_COMPLETE: "_on_restart_complete",
        ev.FAILURE_CURED: "_on_cured",
        ev.FAILURE_REMANIFESTED: "_on_remanifested",
        ev.EPISODE_CLOSED: "_on_closed",
        ev.OPERATOR_ESCALATION: "_on_escalation",
        ev.REC_RESTART: "_on_rec_restart",
        ev.FD_RESTART: "_on_fd_restart",
    }
    #: The sink-protocol declaration of interest (see ``Sink.kinds``): the
    #: tracker reads exactly the kinds it dispatches on.  One set for every
    #: tracker — a fleet attaches three per station.
    kinds = frozenset(_HANDLERS)

    def __init__(
        self,
        on_complete: Optional[Callable[[RecoveryEpisode], None]] = None,
    ) -> None:
        self.on_complete = on_complete
        #: Finished episodes in completion order.
        self.episodes: List[RecoveryEpisode] = []
        #: Open failure episodes by failure id, in injection order.
        self._open: Dict[int, RecoveryEpisode] = {}
        #: The same episodes by component, so a record touches only the
        #: episodes of the components it names.
        self._by_component: Dict[str, Dict[int, RecoveryEpisode]] = defaultdict(dict)
        #: FD/REC watchdog spans in flight, keyed by restarted component.
        self._watchdogs: Dict[str, RecoveryEpisode] = {}
        self._dispatch = {
            kind: getattr(self, handler) for kind, handler in self._HANDLERS.items()
        }

    # -- sink interface ---------------------------------------------------

    def accept(self, record: "TraceRecord") -> None:
        """Fold one record into the span state (O(episodes it names))."""
        handler = self._dispatch.get(record.kind)
        if handler is not None:
            handler(record.time, record.data)

    def close(self) -> None:
        """Sink-protocol close: finalize whatever can be finalized."""
        self.flush()

    # -- queries ----------------------------------------------------------

    def open_episodes(self) -> List[RecoveryEpisode]:
        """Episodes still in flight (injection seen, recovery not ended)."""
        return list(self._open.values()) + list(self._watchdogs.values())

    def flush(self) -> None:
        """Finalize cured-but-unconfirmed episodes (end-of-run sweep).

        An episode whose cure has been observed normally waits for the
        covering ``restart_complete`` before completing; at the end of a
        run that confirmation may not have been emitted yet.
        """
        for episode in [e for e in self._open.values() if e.cured_at is not None]:
            self._finish(episode)

    # -- event handlers ---------------------------------------------------

    def _on(self, components: Iterable[str]) -> Iterator[RecoveryEpisode]:
        """Open failure episodes of ``components`` (each named once)."""
        by_component = self._by_component
        for component in components:
            episodes = by_component.get(component)
            if episodes:
                yield from episodes.values()

    def _finish(self, episode: RecoveryEpisode) -> None:
        """Close an open failure episode and record it as complete."""
        del self._open[episode.failure_id]
        del self._by_component[episode.component][episode.failure_id]
        self._complete(episode)

    def _complete(self, episode: RecoveryEpisode) -> None:
        self.episodes.append(episode)
        if self.on_complete is not None:
            self.on_complete(episode)

    def _on_injected(self, time: SimTime, data: Dict[str, Any]) -> None:
        component = data["component"]
        episodes = self._by_component[component]
        # A cured episode for this component that was still awaiting its
        # restart_complete confirmation is finished now — finalize it so
        # the new episode cannot absorb the old one's events.
        for episode in [e for e in episodes.values() if e.cured_at is not None]:
            self._finish(episode)
        failure_id = data.get("failure_id")
        episodes[failure_id] = self._open[failure_id] = RecoveryEpisode(
            component=component,
            failure_id=failure_id,
            failure_kind=data.get("failure_kind"),
            cure_set=tuple(data.get("cure_set", ())),
            injected_at=time,
        )

    def _on_detection(self, time: SimTime, data: Dict[str, Any]) -> None:
        candidates = self._by_component.get(data["component"], {}).values()
        fresh = [e for e in candidates if e.detected_at is None]
        if fresh:
            # Earliest injection still undetected claims the declaration.
            earliest = min(fresh, key=lambda e: e.injected_at or 0.0)
            earliest.detected_at = time
            earliest.detected_via = data.get("via")
            return
        if candidates:
            # Re-detection after a re-manifestation or an overlapping miss.
            min(candidates, key=lambda e: e.injected_at or 0.0).redetections += 1

    def _on_restart_ordered(self, time: SimTime, data: Dict[str, Any]) -> None:
        components = data.get("components", ())
        trigger = data.get("trigger")
        if trigger not in components:
            components = (*components, trigger)
        cell = data.get("cell")
        for episode in self._on(components):
            if episode.decided_at is None:
                episode.decided_at = time
            episode.restarts += 1
            if cell is not None:
                episode.cells.append(cell)

    def _on_rekick(self, time: SimTime, data: Dict[str, Any]) -> None:
        for episode in self._on(data.get("components", ())):
            episode.rekicks += 1

    def _on_ready(self, time: SimTime, data: Dict[str, Any]) -> None:
        name = data.get("name")
        watchdog = self._watchdogs.pop(name, None)
        if watchdog is not None:
            watchdog.ready_at = time
            self._complete(watchdog)
        for episode in self._by_component.get(name, {}).values():
            if episode.cured_at is None:
                episode.ready_at = time

    def _on_restart_complete(self, time: SimTime, data: Dict[str, Any]) -> None:
        done = []
        for episode in self._on(data.get("components", ())):
            episode.completed_at = time
            if episode.cured_at is not None:
                done.append(episode)
        if len(done) > 1:  # several components: complete in injection order
            done.sort(key=list(self._open.values()).index)
        for episode in done:
            self._finish(episode)

    def _on_cured(self, time: SimTime, data: Dict[str, Any]) -> None:
        episode = self._open.get(data.get("failure_id"))
        if episode is not None:
            episode.cured_at = time

    def _on_remanifested(self, time: SimTime, data: Dict[str, Any]) -> None:
        episode = self._open.get(data.get("failure_id"))
        if episode is not None:
            episode.remanifestations += 1

    def _on_closed(self, time: SimTime, data: Dict[str, Any]) -> None:
        component = data.get("component")
        # Confirmation beat restart_complete to the finish line (or the
        # covering restart never emitted one): finalize cured episodes.
        for episode in self._by_component.get(component, {}).values():
            if episode.cured_at is not None:
                episode.closed_at = time
                self._finish(episode)
                return
        # Otherwise annotate the most recent completed episode.
        for episode in reversed(self.episodes):
            if episode.component == component and episode.closed_at is None:
                episode.closed_at = time
                return

    def _on_escalation(self, time: SimTime, data: Dict[str, Any]) -> None:
        for episode in self._by_component.get(data.get("component"), {}).values():
            if episode.cured_at is None:
                episode.gave_up = True
                self._finish(episode)
                return

    def _watchdog(self, time: SimTime, component: str) -> None:
        if component in self._watchdogs:
            return  # already tracking this restart
        episode = RecoveryEpisode(
            component=component, kind="watchdog", decided_at=time
        )
        episode.restarts = 1
        self._watchdogs[component] = episode

    def _on_rec_restart(self, time: SimTime, data: Dict[str, Any]) -> None:
        self._watchdog(time, data.get("target", "rec"))

    def _on_fd_restart(self, time: SimTime, data: Dict[str, Any]) -> None:
        self._watchdog(time, data.get("target", "fd"))


#: The phases reported for every completed episode, in display order.
PHASES = ("detection", "decision", "restart", "total")


def phase_snapshot(episodes: Iterable[RecoveryEpisode]) -> PhaseSnapshot:
    """Per-(component, phase) durations of ``episodes``, JSON-safe.

    ``{component: {phase: SummaryStat.to_dict()}}``, folded in the order
    given — a tracker's :attr:`~EpisodeTracker.episodes` is completion
    order — so the table merges across campaign cells
    (:func:`~repro.obs.sinks.merge_phase_snapshots`).  A phase whose
    boundaries the episode never reached is left out.
    """
    table: Dict[str, Dict[str, SummaryStat]] = {}
    for episode in episodes:
        slot = table.setdefault(episode.component, {})
        # The episode's phase properties, with the recovery end read once.
        injected, detected = episode.injected_at, episode.detected_at
        decided, end = episode.decided_at, episode.recovery_end
        for phase, start, stop in zip(
            PHASES, (injected, detected, decided, injected), (detected, decided, end, end)
        ):
            if start is not None and stop is not None:
                slot.setdefault(phase, SummaryStat()).add(stop - start)
    return {
        component: {phase: stat.to_dict() for phase, stat in phases.items()}
        for component, phases in table.items()
    }
