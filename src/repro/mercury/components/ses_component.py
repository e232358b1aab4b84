"""ses — the satellite estimator.

"ses (satellite estimator) calculates satellite position, radio frequencies,
and antenna pointing angles" (§2.1).  Every ``solution_period`` seconds it
computes a tracking solution and commands ``str`` (pointing angles) and
``rtu`` (downlink frequency with Doppler correction).

The solution function is pluggable: the station wires in the orbit model's
look angles during passes; outside passes ses idles (no satellite in view).
ses also runs the startup synchronisation handshake with ``str`` whose
failure modes drive §4.3's group consolidation (the timing cost of the
handshake is part of the calibrated startup work; the induced-failure
behaviour is modelled by :class:`repro.faults.correlation.ResyncCoupling`).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.mercury.components.session_hooks import (
    _externalize_session,
    _handle_session_start,
)
from repro.types import SimTime
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.session_store import SessionStore
    from repro.procmgr.process import SimProcess
    from repro.transport.network import Network

#: Returns (azimuth_deg, elevation_deg, downlink_hz) or None when no
#: satellite is in view.
SolutionFn = Callable[[SimTime], Optional[Tuple[float, float, float]]]


def _default_solution(now: SimTime) -> Optional[Tuple[float, float, float]]:
    """A bland always-in-view solution used by unit tests and the quickstart."""
    azimuth = (now * 0.5) % 360.0
    elevation = 45.0
    frequency = 437.1e6
    return azimuth, elevation, frequency


class SesBehavior(BusAttachedBehavior):
    """The satellite-estimator behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        bus_address: str = "mbus:7000",
        solution_period: SimTime = 2.0,
        solution_fn: Optional[SolutionFn] = None,
        tracker_name: str = "str",
        tuner_name: str = "rtu",
        session_store: Optional["SessionStore"] = None,
    ) -> None:
        super().__init__(process, network, bus_address, session_store=session_store)
        self.solution_period = solution_period
        self.solution_fn = solution_fn or _default_solution
        self.tracker_name = tracker_name
        self.tuner_name = tuner_name
        self.solutions_sent = 0
        #: User-plane telemetry queries answered (workload service endpoint).
        self.svc_requests = 0
        self._loop_epoch = 0
        #: Whether this incarnation restored its sync session from the store
        #: (microreboot) instead of running the handshake.
        self._session_restored = False

    def on_start(self) -> None:
        self._session_restored = _handle_session_start(self)
        super().on_start()
        self._loop_epoch += 1
        self.kernel.schedule_after(self.solution_period, self._solve, self._loop_epoch)

    def on_bus_connected(self) -> None:
        if self._session_restored:
            # Microreboot: the externalised session is still valid and the
            # peer kept running — no resynchronisation announce.
            return
        # Startup synchronisation with the tracker (§4.3): announce a fresh
        # session so the peer can resynchronise.
        self.send(
            CommandMessage(sender=self.name, target=self.tracker_name, verb="sync")
        )

    def on_message(self, message: Message) -> None:
        if not isinstance(message, CommandMessage):
            return
        if message.verb == "sync":
            self.send(
                CommandMessage(sender=self.name, target=message.sender, verb="sync-ack")
            )
        elif message.verb == "sync-ack":
            _externalize_session(self, peer=message.sender)
        elif message.verb == "telemetry-query":
            # User-plane service endpoint: answer with the solution ledger.
            # Replies only flow while this incarnation is healthy — the
            # zombie/hang gates upstream drop the request, so a failed ses
            # is user-visible as client timeouts, not wrong answers.
            self.svc_requests += 1
            self.send(
                CommandMessage(
                    sender=self.name,
                    target=message.sender,
                    verb="svc-reply",
                    params={
                        "req": message.params.get("req", ""),
                        "svc": "telemetry",
                        "solutions": str(self.solutions_sent),
                    },
                )
            )

    def _solve(self, epoch: int) -> None:
        if not self._alive or epoch != self._loop_epoch:
            return
        self.kernel.schedule_after(self.solution_period, self._solve, epoch)
        solution = self.solution_fn(self.kernel.now)
        if solution is None:
            return  # no satellite in view
        azimuth, elevation, frequency = solution
        sent_track = self.send(
            CommandMessage(
                sender=self.name,
                target=self.tracker_name,
                verb="track",
                params={"azimuth": f"{azimuth:.3f}", "elevation": f"{elevation:.3f}"},
            )
        )
        sent_tune = self.send(
            CommandMessage(
                sender=self.name,
                target=self.tuner_name,
                verb="tune",
                params={"frequency_hz": f"{frequency:.1f}"},
            )
        )
        if sent_track and sent_tune:
            self.solutions_sent += 1
