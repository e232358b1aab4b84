"""Simulated ground-station hardware.

The paper's high-MTTR components are slow to restart because they talk to
hardware: "the fedrcom component connects to the serial port at startup and
negotiates communication parameters with the radio device" (§4.2).  The
*durations* of those negotiations are part of the calibrated startup work in
:mod:`repro.mercury.config`; these classes model the hardware *state* — who
holds the serial port, whether the radio is tuned, where the antenna points
— which the component behaviors manipulate and the examples/tests observe.

Hardware is deliberately outside the process manager: restarting cannot
recover a hard radio failure (§7), and the simulated hardware never fails on
its own here.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ComponentError
from repro.obs import events as ev
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class SerialPort:
    """The serial port to the radio; exclusively held by one process."""

    def __init__(self, kernel: "Kernel", name: str = "ttyS0") -> None:
        self.kernel = kernel
        self.name = name
        self._holder: Optional[str] = None
        self.opens = 0

    @property
    def holder(self) -> Optional[str]:
        """Name of the component currently holding the port."""
        return self._holder

    def acquire(self, component: str) -> None:
        """Open the port exclusively."""
        if self._holder is not None and self._holder != component:
            raise ComponentError(
                f"serial port {self.name} held by {self._holder!r}; "
                f"{component!r} cannot open it"
            )
        self._holder = component
        self.opens += 1
        self.kernel.trace.emit("hw.serial", ev.PORT_ACQUIRED, holder=component)

    def release(self, component: str) -> None:
        """Release the port (idempotent; the OS does this on process death)."""
        if self._holder == component:
            self._holder = None
            self.kernel.trace.emit("hw.serial", ev.PORT_RELEASED, holder=component)


class Radio:
    """The ground-station radio: tunable frequency, carries the downlink."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.frequency_hz: float = 0.0
        self.tuned_at: Optional[SimTime] = None
        self.tune_count = 0
        #: Parameters negotiated over the serial port; reset when the
        #: negotiating component dies, forcing the slow re-negotiation the
        #: pbcom startup work accounts for.
        self.negotiated_by: Optional[str] = None

    def negotiate(self, component: str) -> None:
        """Record a completed parameter negotiation."""
        self.negotiated_by = component
        self.kernel.trace.emit("hw.radio", ev.RADIO_NEGOTIATED, by=component)

    def drop_negotiation(self, component: str) -> None:
        """Forget the negotiation when its owner dies."""
        if self.negotiated_by == component:
            self.negotiated_by = None

    def tune(self, frequency_hz: float, by: str, at: Optional[SimTime] = None) -> None:
        """Tune to a downlink frequency (rtu does this during a pass), now
        or (a folded tracking loop's catch-up) at the earlier instant ``at``."""
        if frequency_hz <= 0:
            raise ComponentError(f"invalid frequency {frequency_hz!r}")
        self.frequency_hz = frequency_hz
        self.tuned_at = self.kernel.now if at is None else at
        self.tune_count += 1
        self.kernel.trace.emit("hw.radio", ev.RADIO_TUNED, time=at, hz=frequency_hz, by=by)

    @property
    def ready(self) -> bool:
        """Whether the radio can carry data (negotiated and tuned)."""
        return self.negotiated_by is not None and self.frequency_hz > 0


class Antenna:
    """The tracking antenna; str points it during a pass."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.azimuth_deg: float = 0.0
        self.elevation_deg: float = 0.0
        self.last_pointed_at: Optional[SimTime] = None
        self.point_count = 0

    def point(
        self,
        azimuth_deg: float,
        elevation_deg: float,
        by: str,
        at: Optional[SimTime] = None,
    ) -> None:
        """Slew to the commanded angles, now or (a folded tracking loop's
        catch-up) at the earlier instant ``at``."""
        if not -360.0 <= azimuth_deg <= 360.0 or not -5.0 <= elevation_deg <= 90.0:
            raise ComponentError(
                f"pointing out of range: az={azimuth_deg!r}, el={elevation_deg!r}"
            )
        self.azimuth_deg = azimuth_deg
        self.elevation_deg = elevation_deg
        self.last_pointed_at = self.kernel.now if at is None else at
        self.point_count += 1


class GroundStationHardware:
    """Bundle of the station's hardware, shared by the components."""

    def __init__(self, kernel: "Kernel") -> None:
        self.serial = SerialPort(kernel)
        self.radio = Radio(kernel)
        self.antenna = Antenna(kernel)
