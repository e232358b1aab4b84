"""Downlink accounting: how much science data a pass actually delivered.

§5.2: "downtime during satellite passes ... is very expensive because we may
lose some science data and telemetry.  Additionally, if the failure involves
the tracking subsystem and the recovery time is too long, the communication
link will break and the entire session will be lost."

The model:

* the satellite transmits at ``downlink_bps`` for the whole pass;
* bytes are received only while the downlink chain (``A_entire``: mbus, the
  radio-proxy component(s), ses, str, rtu) is fully up;
* if the *tracking* subsystem (ses/str) stays down longer than
  ``link_break_outage_s`` during the pass, the antenna drifts off the
  satellite, the link drops, and the remainder of the pass is forfeit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.mercury.orbit import PassWindow
from repro.types import SimTime


@dataclass
class PassOutcome:
    """Accounting result for one pass."""

    window: PassWindow
    bytes_expected: float
    bytes_received: float
    outage_seconds: float
    link_broken: bool
    link_broken_at: Optional[SimTime] = None
    failures_during_pass: int = 0

    @property
    def bytes_lost(self) -> float:
        """Science data that the pass should have delivered but did not."""
        return max(self.bytes_expected - self.bytes_received, 0.0)

    @property
    def loss_fraction(self) -> float:
        """Fraction of the pass's data lost."""
        if self.bytes_expected == 0:
            return 0.0
        return self.bytes_lost / self.bytes_expected

    @property
    def whole_pass_lost(self) -> bool:
        """Whether effectively nothing was received (>99 % lost)."""
        return self.loss_fraction > 0.99


@dataclass
class DownlinkModel:
    """Pure byte-accounting over up/down edge sequences.

    Decoupled from the simulator so it can be unit-tested exhaustively: the
    inputs are time-ordered ``(time, is_up)`` edges for the downlink chain
    and for the tracking subsystem, both covering the pass window.
    """

    downlink_bps: float
    link_break_outage_s: float

    def account(
        self,
        window: PassWindow,
        chain_edges: Sequence[Tuple[SimTime, bool]],
        tracking_edges: Sequence[Tuple[SimTime, bool]],
        initial_chain_up: bool = True,
        initial_tracking_up: bool = True,
    ) -> PassOutcome:
        """Compute the outcome of one pass.

        Edges strictly inside the window; initial states give the chain and
        tracking status at window start.
        """
        link_broken_at = self._link_break_instant(
            window, tracking_edges, initial_tracking_up
        )
        effective_end = window.end if link_broken_at is None else link_broken_at
        up_seconds = self._up_seconds(
            window.start, effective_end, chain_edges, initial_chain_up
        )
        expected = self.downlink_bps / 8.0 * window.duration
        received = self.downlink_bps / 8.0 * up_seconds
        outage = (window.duration) - up_seconds if link_broken_at is None else (
            window.duration - up_seconds
        )
        return PassOutcome(
            window=window,
            bytes_expected=expected,
            bytes_received=received,
            outage_seconds=max(outage, 0.0),
            link_broken=link_broken_at is not None,
            link_broken_at=link_broken_at,
        )

    def _link_break_instant(
        self,
        window: PassWindow,
        tracking_edges: Sequence[Tuple[SimTime, bool]],
        initial_up: bool,
    ) -> Optional[SimTime]:
        """First instant a tracking outage has lasted the break threshold."""
        down_since: Optional[SimTime] = None if initial_up else window.start
        for time, is_up in tracking_edges:
            if time < window.start or time > window.end:
                raise ExperimentError("tracking edge outside the pass window")
            if not is_up and down_since is None:
                down_since = time
            elif is_up and down_since is not None:
                if time - down_since >= self.link_break_outage_s:
                    return down_since + self.link_break_outage_s
                down_since = None
        if down_since is not None and window.end - down_since >= self.link_break_outage_s:
            return down_since + self.link_break_outage_s
        return None

    @staticmethod
    def _up_seconds(
        start: SimTime,
        end: SimTime,
        edges: Sequence[Tuple[SimTime, bool]],
        initial_up: bool,
    ) -> float:
        """Total up time of an edge sequence clipped to [start, end]."""
        up = initial_up
        cursor = start
        total = 0.0
        for time, is_up in edges:
            clipped = min(max(time, start), end)
            if up:
                total += max(clipped - cursor, 0.0)
            cursor = clipped
            up = is_up
        if up:
            total += max(end - cursor, 0.0)
        return total


@dataclass
class DownlinkSummary:
    """Aggregate over many passes (one experiment arm)."""

    outcomes: List[PassOutcome] = field(default_factory=list)

    @property
    def passes(self) -> int:
        """Number of passes accounted."""
        return len(self.outcomes)

    @property
    def total_expected_bytes(self) -> float:
        """Data volume a failure-free station would have captured."""
        return sum(outcome.bytes_expected for outcome in self.outcomes)

    @property
    def total_received_bytes(self) -> float:
        """Data volume actually captured."""
        return sum(outcome.bytes_received for outcome in self.outcomes)

    @property
    def total_lost_bytes(self) -> float:
        """Data volume lost to downtime and broken links."""
        return max(self.total_expected_bytes - self.total_received_bytes, 0.0)

    @property
    def loss_fraction(self) -> float:
        """Overall fraction of science data lost."""
        if self.total_expected_bytes == 0:
            return 0.0
        return self.total_lost_bytes / self.total_expected_bytes

    @property
    def broken_links(self) -> int:
        """Passes whose link broke (session lost from that instant)."""
        return sum(1 for outcome in self.outcomes if outcome.link_broken)

    @property
    def whole_passes_lost(self) -> int:
        """Passes that delivered essentially nothing."""
        return sum(1 for outcome in self.outcomes if outcome.whole_pass_lost)
