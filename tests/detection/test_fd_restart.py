"""A restarted FD judges at once, and leaves alone what REC is restarting.

The warm-up grace (judge no component not yet seen alive) is a boot rule:
it covers FD's first start only.  A restarted FD pings and judges every
component from its first round, so a component that died around FD's own
death is declared a round after FD is back, not a minute later.  What
keeps the fresh FD from reporting the restart REC has in flight is REC
itself: on the control channel's reconnect it re-announces the batch it
ordered and has not completed, and FD suppresses it as if it had seen the
``begin`` order.
"""

from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.obs import events as ev


def _booted(seed=3):
    station = MercuryStation(tree=tree_v(), seed=seed, trace_capacity=100_000)
    station.boot()
    return station


def _fd_ready_after(station, when):
    return next(
        r.time
        for r in station.trace.filter(kind=ev.PROCESS_READY)
        if r.data["name"] == "fd" and r.time > when
    )


def test_a_restarted_fd_declares_a_component_that_died_before_it_within_a_round():
    station = _booted()
    station.injector.inject_simple("rtu")
    station.run_for(0.05)
    fd_killed = station.kernel.now
    station.manager.kill("fd")
    station.run_for(30.0)

    ready = _fd_ready_after(station, fd_killed)
    detected = station.trace.first(ev.DETECTION, component="rtu")
    assert detected is not None and detected.time > ready
    fd = station.fd
    assert detected.time - ready <= fd.ping_period + fd.reply_timeout + 1e-9
    assert station.manager.get("rtu").is_running


def test_a_restarted_fd_reports_nothing_of_the_restart_in_flight():
    station = _booted()
    station.injector.inject_simple("pbcom")
    while station.rec.engine.action is None:
        station.run_for(0.1)
    assert "pbcom" in station.rec.engine.action.batch
    restarted = station.kernel.now
    station.manager.restart(["fd"])
    station.run_for(60.0)

    ready = _fd_ready_after(station, restarted)
    pbcom = station.manager.get("pbcom")
    assert pbcom.is_running and pbcom.last_ready_at > ready
    reports = [
        r
        for r in station.trace.filter(kind=ev.FAILURE_REPORTED)
        if r.data["component"] == "pbcom" and r.time > restarted
    ]
    assert reports == []
    resent = [
        r
        for r in station.trace.filter(kind=ev.SUPPRESSION_BEGIN)
        if r.time > ready
    ]
    assert resent and "pbcom" in resent[0].data["components"]
