"""Pass sessions: wiring pass windows to the live station.

:class:`PassAccountant` observes the station's process lifecycle during each
scheduled pass window and feeds the edge sequences into the
:class:`~repro.mercury.telemetry.DownlinkModel`.  It is also ses's solution
function: from the moment it is built, ses tracks the satellite of the
window in view (look angles and a Doppler-ramped downlink frequency) and
idles between windows, so the bus carries tracking traffic only during
passes on every station that accounts them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.mercury.orbit import PassWindow
from repro.obs import events as ev
from repro.mercury.telemetry import DownlinkModel, DownlinkSummary
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.station import MercuryStation
    from repro.procmgr.process import SimProcess


#: Nominal downlink carrier; the Doppler ramp sweeps +/- 10 kHz around it.
DOWNLINK_HZ = 437.1e6


class PassAccountant:
    """Accounts downlink data over a schedule of passes on one station,
    and points the station's ses at :meth:`solution`."""

    def __init__(self, station: "MercuryStation", windows: Sequence[PassWindow]) -> None:
        self.station = station
        self.kernel = station.kernel
        config = station.config
        self.model = DownlinkModel(
            downlink_bps=config.downlink_bps,
            link_break_outage_s=config.link_break_outage_s,
        )
        self.chain = [
            name
            for name in station.station_components
            if name in config.downlink_chain or name in ("fedr", "pbcom", "fedrcom")
        ]
        self.tracking = [
            name for name in station.station_components if name in config.session_chain
        ]
        self.summary = DownlinkSummary()
        self._windows = sorted(windows, key=lambda w: w.start)
        self._active_window: Optional[PassWindow] = None
        self._chain_edges: List[Tuple[SimTime, bool]] = []
        self._tracking_edges: List[Tuple[SimTime, bool]] = []
        self._initial_chain_up = True
        self._initial_tracking_up = True
        self._failures_in_pass = 0
        #: Index of the first window that has not ended at the last solve.
        self._cursor = 0
        # ses's behavior object lives as long as its process, so the
        # pointer survives every restart.
        station.manager.get("ses").behavior.solution_fn = self.solution
        station.manager.subscribe(self._on_lifecycle)
        for window in self._windows:
            self.kernel.schedule_at(max(window.start, self.kernel.now), self._begin, window)

    # ------------------------------------------------------------------
    # ses's solution
    # ------------------------------------------------------------------

    def solution(self, now: SimTime) -> Optional[Tuple[float, float, float]]:
        """(azimuth, elevation, Doppler-shifted frequency) while a window
        is in view, ``None`` between windows.

        ``now`` never decreases (ses asks at simulated solve instants), so
        a cursor skips the windows that have ended; of overlapping windows
        the earliest-starting one is tracked.
        """
        windows = self._windows
        cursor = self._cursor
        while cursor < len(windows) and windows[cursor].end <= now:
            cursor += 1
        self._cursor = cursor
        for window in windows[cursor:]:
            if window.start > now:
                break
            if window.contains(now):
                azimuth, elevation = window.look_angles(now)
                # Crude symmetric Doppler ramp: +/- 10 kHz across the pass.
                progress = (now - window.start) / window.duration
                return azimuth, elevation, DOWNLINK_HZ + 10_000.0 * (1.0 - 2.0 * progress)
        return None

    # ------------------------------------------------------------------
    # pass lifecycle
    # ------------------------------------------------------------------

    def _begin(self, window: PassWindow) -> None:
        self._active_window = window
        self._chain_edges = []
        self._tracking_edges = []
        self._initial_chain_up = self._all_up(self.chain)
        self._initial_tracking_up = self._all_up(self.tracking)
        self._failures_in_pass = 0
        self.kernel.trace.emit(
            "passes",
            ev.PASS_BEGIN,
            satellite=window.satellite,
            duration=round(window.duration, 1),
            max_elevation=round(window.max_elevation_deg, 1),
        )
        self.kernel.schedule_at(window.end, self._end, window)

    def _end(self, window: PassWindow) -> None:
        if self._active_window is not window:
            return
        outcome = self.model.account(
            window,
            self._chain_edges,
            self._tracking_edges,
            initial_chain_up=self._initial_chain_up,
            initial_tracking_up=self._initial_tracking_up,
        )
        outcome.failures_during_pass = self._failures_in_pass
        self.summary.outcomes.append(outcome)
        self._active_window = None
        self.kernel.trace.emit(
            "passes",
            ev.PASS_END,
            satellite=window.satellite,
            received_kb=round(outcome.bytes_received / 1000.0, 1),
            lost_kb=round(outcome.bytes_lost / 1000.0, 1),
            link_broken=outcome.link_broken,
        )

    # ------------------------------------------------------------------
    # edge collection
    # ------------------------------------------------------------------

    def _all_up(self, names: Sequence[str]) -> bool:
        return all(self.station.manager.get(name).is_running for name in names)

    def _on_lifecycle(self, process: "SimProcess", event: str) -> None:
        window = self._active_window
        if window is None or not window.contains(self.kernel.now):
            return
        if process.name in self.chain:
            self._chain_edges.append((self.kernel.now, self._all_up(self.chain)))
            if event.startswith("down:SIGKILL"):
                self._failures_in_pass += 1
        if process.name in self.tracking:
            self._tracking_edges.append((self.kernel.now, self._all_up(self.tracking)))

