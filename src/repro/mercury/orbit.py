"""Synthetic low-earth-orbit pass prediction.

The real Mercury tracked Opal and Sapphire — LEO satellites with ~95-minute
periods, giving the station "typically about 4 [passes] per day per
satellite, lasting about 15 minutes each" (§5.2).  We model visibility with
circular-orbit geometry reduced to the quantity that matters for the §5.2
analysis — *when* the station can communicate and for how long:

* each orbit, the satellite's ground track crosses the station's latitude
  with some east-west offset; earth rotation shifts the offset per orbit;
* the station sees the satellite when the offset lies inside its visibility
  swath; the chord geometry of a circular cone then gives the pass duration
  ``d_max * sqrt(1 - u²)`` and peak elevation ``~90°·(1-|u|)`` where ``u``
  is the normalised offset.

The per-orbit offset sequence uses the golden-ratio low-discrepancy rotation
— deterministic, aperiodic, and uniform, like the real drift of a
sun-asynchronous ground track.  The generator is a pure function of its
parameters, so pass schedules are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ExperimentError
from repro.types import SimTime

#: Fractional part of the golden ratio; the classic low-discrepancy rotation.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Satellite:
    """A satellite the station communicates with.

    Attributes
    ----------
    name:
        Identifier (``"opal"``, ``"sapphire"``).
    period_s:
        Orbital period in seconds (~5700 s for LEO).
    phase_offset:
        Initial ground-track offset in [0, 1); differentiates satellites.
    visible_fraction:
        Fraction of orbits that produce a visible pass; tunes passes/day.
        ``4 passes/day ≈ visible_fraction · 86400/period``.
    max_pass_duration_s:
        Duration of a perfectly overhead pass.
    """

    name: str
    period_s: float = 5700.0
    phase_offset: float = 0.0
    visible_fraction: float = 0.27
    max_pass_duration_s: float = 15 * 60.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ExperimentError(f"orbital period must be positive: {self.period_s!r}")
        if not 0.0 < self.visible_fraction <= 1.0:
            raise ExperimentError(
                f"visible_fraction out of (0,1]: {self.visible_fraction!r}"
            )

    @property
    def expected_passes_per_day(self) -> float:
        """Long-run mean number of passes per day."""
        return self.visible_fraction * 86400.0 / self.period_s


@dataclass(frozen=True)
class PassWindow:
    """One predicted communication window."""

    satellite: str
    start: SimTime
    duration: SimTime
    max_elevation_deg: float

    @property
    def end(self) -> SimTime:
        """Instant the satellite drops below the horizon."""
        return self.start + self.duration

    def contains(self, time: SimTime) -> bool:
        """Whether ``time`` falls inside the window."""
        return self.start <= time < self.end

    def look_angles(self, time: SimTime) -> tuple:
        """(azimuth_deg, elevation_deg) at ``time`` — a smooth overhead arc.

        Azimuth sweeps linearly across the sky; elevation follows the
        chord's sine profile peaking at ``max_elevation_deg`` mid-pass.
        """
        if not self.contains(time):
            raise ExperimentError(f"time {time!r} outside pass window")
        progress = (time - self.start) / self.duration
        azimuth = (360.0 * progress) % 360.0
        elevation = self.max_elevation_deg * math.sin(math.pi * progress)
        return azimuth, max(elevation, 0.0)


def predict_passes(
    satellite: Satellite, horizon_s: float, start: SimTime = 0.0
) -> List[PassWindow]:
    """All passes of ``satellite`` with start time in [start, start+horizon)."""
    if horizon_s <= 0:
        raise ExperimentError(f"horizon must be positive: {horizon_s!r}")
    windows: List[PassWindow] = []
    first_orbit = int(start // satellite.period_s)
    last_orbit = int((start + horizon_s) // satellite.period_s) + 1
    for k in range(first_orbit, last_orbit + 1):
        window = _pass_for_orbit(satellite, k)
        if window is None:
            continue
        if start <= window.start < start + horizon_s:
            windows.append(window)
    return windows


def _pass_for_orbit(satellite: Satellite, orbit_index: int) -> "PassWindow | None":
    # Normalised ground-track offset in [0, 1) by golden-ratio rotation.
    track = (satellite.phase_offset + orbit_index * _GOLDEN) % 1.0
    # Visible when the offset falls in the swath centred on 0/1 of width
    # visible_fraction; map to u in [-1, 1] across the swath.
    half = satellite.visible_fraction / 2.0
    if track < half:
        u = track / half
    elif track > 1.0 - half:
        u = (track - 1.0) / half
    else:
        return None
    duration = satellite.max_pass_duration_s * math.sqrt(max(1.0 - u * u, 0.0))
    if duration < 60.0:
        return None  # grazing passes below one minute are not worked
    max_elevation = 90.0 * (1.0 - abs(u))
    # Centre the pass on the orbit's station-crossing instant.
    crossing = (orbit_index + 0.5) * satellite.period_s
    return PassWindow(
        satellite=satellite.name,
        start=crossing - duration / 2.0,
        duration=duration,
        max_elevation_deg=max_elevation,
    )


def default_satellites() -> List[Satellite]:
    """Opal- and Sapphire-like satellites (names per §2.1)."""
    return [
        Satellite(name="opal", period_s=5700.0, phase_offset=0.0),
        Satellite(name="sapphire", period_s=5820.0, phase_offset=0.37),
    ]
