"""FD's round ping to REC is REC's heartbeat (DESIGN.md §10).

REC keeps no ping loop of its own: it stamps every control-channel message
from FD and holds one deadline at ``heard + max(fd_grace, fd_ping_period) +
fd_ping_timeout``, which sleeps on the supervision clock while FD folds
its quiet rounds (DESIGN.md §9; the fold's edges are pinned in
``tests/detection/test_quiet_rounds.py``).
These tests pin the instant it restarts a dead FD, that a REC restarted
while it sleeps keeps one deadline chain, that runs which never
need it are byte-identical to REC's old ping loop
(``REFERENCES["rec-pings-fd"]`` in ``tests/differential.py``, on every
chaos scenario but ``flapping`` in
``tests/integration/test_differential_matrix.py``) with latency draws out
of the picture, and the two fail-slow supervisor cases it exists to end: a
hung FD and a hung REC are each restarted, and the station still cures a
component failure.
"""

import pytest

from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.obs import events as ev
from tests.differential import CHAOS, REFERENCES, compare


def _booted(seed=3):
    station = MercuryStation(tree=tree_v(), seed=seed, trace_capacity=100_000)
    station.boot()
    return station


def _patience(rec):
    """How long REC hears nothing from FD before restarting it."""
    return max(rec.fd_grace, rec.fd_ping_period) + rec.fd_ping_timeout


def _cells(station):
    return [r.data["cell"] for r in station.trace.filter(kind=ev.RESTART_ORDERED)]


def _hang_then_fail_ses(station, supervisor):
    """Hang ``supervisor``, then crash ``ses`` five seconds later and give
    the station two minutes.  Returns the instant of the hang."""
    hung_at = station.kernel.now
    assert station.manager.degrade(supervisor, "hang")
    station.run_for(5.0)
    station.injector.inject_simple("ses", kind="crash")
    station.run_for(120.0)
    return hung_at


def test_hung_fd_is_restarted_and_the_station_still_cures_ses():
    """A hung FD sends no heartbeat, judges nothing and reports nothing: it
    neither reports the pings it never sent as misses nor keeps REC's
    watchdog quiet, so REC restarts it and the fresh FD reports ``ses``."""
    station = _booted()
    rec = station.rec
    hung_at = _hang_then_fail_ses(station, "fd")

    (restart,) = station.trace.filter(kind=ev.FD_RESTART)
    assert restart.time - hung_at <= _patience(rec)
    assert station.manager.get("fd").start_count == 2
    assert _cells(station) == ["R_ses_str"]
    assert not [d for d in rec.restart_log if d.action == "give_up"]
    assert station.trace.first(ev.RESTART_COMPLETE, cell="R_ses_str")
    assert station.all_station_running()


def test_hung_rec_is_restarted_and_its_new_incarnation_cures_ses():
    """A hung REC consumes nothing from the control channel: it stops
    answering FD's round ping, so FD restarts it after ``rec_grace``, and
    the reports go to the new incarnation."""
    station = _booted()
    hung_at = _hang_then_fail_ses(station, "rec")

    (restart,) = station.trace.filter(kind=ev.REC_RESTART)
    fd = station.fd
    assert restart.time - hung_at <= fd.rec_grace + fd.reply_timeout
    assert station.manager.get("rec").start_count == 2
    (order,) = station.trace.filter(kind=ev.RESTART_ORDERED)
    assert order.data["cell"] == "R_ses_str"
    assert order.time > restart.time
    assert not station.trace.filter(kind=ev.FD_RESTART)
    assert station.trace.first(ev.RESTART_COMPLETE, cell="R_ses_str")
    assert station.all_station_running()


@pytest.mark.parametrize("period", [1.0, 4.0])
@pytest.mark.parametrize("phase", [0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999])
def test_dead_fd_is_restarted_a_patience_after_its_last_heartbeat(phase, period):
    """Whatever the kill's phase in FD's round, REC restarts FD a patience
    ``max(fd_grace, fd_ping_period) + fd_ping_timeout`` after the last
    heartbeat, so in ``(patience - ping_period, patience]`` after the kill:
    (1.2, 2.2] s on the paper's config (REC's own ping loop gave (1.0,
    2.0]: its ping failed at once on the closed channel).  A ping period
    longer than the grace stretches the patience, or REC would restart a
    healthy FD between two heartbeats."""
    station = MercuryStation(
        tree=tree_v(),
        config=PAPER_CONFIG.with_overrides(ping_period=period),
        seed=3,
        trace_capacity=100_000,
    )
    station.boot()
    fd, rec = station.fd, station.rec
    rounds_done = int((station.kernel.now - fd._started_at) / period)
    kill_at = fd._started_at + (rounds_done + 1 + phase) * period
    station.kernel.run(until=kill_at)
    assert not station.trace.filter(kind=ev.FD_RESTART)
    station.injector.inject_simple("fd", kind="crash")
    station.run_for(_patience(rec) + period)

    (restart,) = station.trace.filter(kind=ev.FD_RESTART)
    assert _patience(rec) - period < restart.time - kill_at <= _patience(rec)


def test_a_restarted_rec_keeps_one_deadline():
    """REC restarted while it sleeps on FD's fold: the kill's poke wakes the
    dying incarnation, whose re-armed deadline then fires into the new one
    and must not start a second chain.  With FD stepping every round from
    the restart on, a healthy station pays one deadline event per two
    rounds, not two."""
    with REFERENCES["rec-pings-fd"].counter() as calls:
        station = MercuryStation(tree=tree_v(), seed=3, solution_period=1e6)
        station.boot()
        station.run_for(10.0)
        clock = station.kernel.supervision
        assert clock.folded and clock._watchdog == station.rec._wake_fd_deadline
        calls.clear()
        station.run_for(10 * station.fd.ping_period)
        assert not calls["deadlines"]  # asleep
        with REFERENCES["every-round"].patch():
            station.manager.restart(["rec"])
            assert not clock.folded and clock._watchdog is None
            station.run_for(10.0)
            assert station.manager.get("rec").start_count == 2
            assert not station.trace.filter(kind=ev.FD_RESTART)
            assert not station.trace.filter(kind=ev.REC_RESTART)
            calls.clear()
            station.run_for(10 * station.fd.ping_period)
    assert calls["deadlines"] == 5


@pytest.mark.parametrize(
    "scenario", ["cascade", "lossy", "zombie-fleet", "rogue-oracle-crash"]
)
def test_heartbeat_agrees_with_rec_pinging_fd(scenario):
    compare("rec-pings-fd", CHAOS[scenario])
