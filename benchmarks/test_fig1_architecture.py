"""Figure 1 — the Mercury software architecture.

Boots the full-fidelity station and renders the *live* wiring: every
component's bus attachment, the dedicated FD↔REC control channel, the
fedr↔pbcom TCP link, and the hardware ownerships — the boxes and arrows of
the paper's Figure 1, introspected rather than drawn.
"""

from conftest import print_banner

from repro.mercury.architecture import describe_connections, render_architecture
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v


def boot_station(seed=300):
    station = MercuryStation(tree=tree_v(), seed=seed)
    station.boot()
    station.run_for(10.0)
    return station


def test_fig1():
    station = boot_station()
    diagram = render_architecture(station)
    print_banner("Figure 1: Mercury software architecture (introspected)")
    print(diagram)

    edges = describe_connections(station)
    # Every station component is attached to the bus.
    for name in ("ses", "str", "rtu", "fedr", "pbcom"):
        assert any(edge.startswith(f"{name} <-XML-> mbus") for edge in edges), name
    # FD monitors via the bus and talks to REC over a dedicated channel.
    assert any("fd <-XML-> mbus" in edge for edge in edges)
    assert any("fd <-TCP-> rec" in edge for edge in edges)
    # The split radio path and the hardware ownerships exist.
    assert any("fedr <-TCP-> pbcom" in edge for edge in edges)
    assert any("pbcom <-serial-> radio" in edge for edge in edges)
    assert any("str -> antenna" in edge for edge in edges)
