"""Render the station's software architecture (paper Figure 1).

Unlike a hardcoded diagram, :func:`render_architecture` *introspects a live
station*: which components hold bus attachments, the dedicated FD↔REC
control connection, the raw TCP link between fedr and pbcom, and who owns
which hardware.  The Figure 1 bench boots a station and renders what is
actually wired, so the diagram cannot drift from the implementation.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.station import MercuryStation


def describe_connections(station: "MercuryStation") -> List[str]:
    """One line per live connection/ownership edge in the station."""
    edges: List[str] = []
    for name in station.station_components:
        behavior = station.manager.get(name).behavior
        if behavior is None or name == "mbus":
            continue
        if getattr(behavior, "connected", False):
            edges.append(f"{name} <-XML-> mbus")
    if station.fd is not None:
        if station.fd.connected:
            edges.append("fd <-XML-> mbus (liveness pings)")
        if station.fd.ctl is not None and station.fd.ctl.open:
            edges.append("fd <-TCP-> rec (dedicated control channel)")
    fedr = station.manager.maybe_get("fedr")
    if fedr is not None and fedr.behavior is not None and fedr.behavior.pbcom_connected:
        edges.append("fedr <-TCP-> pbcom (low-level radio commands)")
    serial_holder = station.hardware.serial.holder
    if serial_holder:
        edges.append(f"{serial_holder} <-serial-> radio")
    if station.hardware.antenna.last_pointed_at is not None:
        edges.append("str -> antenna (pointing)")
    return edges


def render_architecture(station: "MercuryStation") -> str:
    """Figure 1-style box diagram of the booted station."""
    components = [
        name for name in station.station_components if name != "mbus"
    ]
    row = "   ".join(f"[{name}]" for name in components)
    bus_width = max(len(row), 30)
    lines = [
        "Mercury software architecture (live wiring)",
        "",
        f"  {row}",
        f"  {'|'.center(len(row))}",
        f"  {('=' * bus_width)}  <- mbus (XML message bus over TCP/IP)",
        "",
        "  [fd] --(liveness pings via mbus)--> components",
        "  [fd] <==dedicated TCP==> [rec] --(restarts)--> process manager",
        "",
        "Live connections:",
    ]
    lines.extend(f"  - {edge}" for edge in describe_connections(station))
    return "\n".join(lines)
