"""Folded solves at their edges, against ses solving every tick.

ses folds every solve of its track/tune loop and replays it hop by hop
when something could read or disturb it, rtu's refresh forwards to the
radio included (DESIGN.md §9, "Folded solves").  The reference is
``REFERENCES["every-solve"]`` (``tests/differential.py``): no solve folds.
Each rig runs both ways through the one ``compare`` — equal values (the
recovery, and the loop's ledger: ses's solutions, str's tracks and the
antenna's last pointing, rtu's tunes and last forward, the radio proxy's
and pbcom's counts, the radio's tuning, the broker's routed and dropped
counts and the loop channels' counters), ``kernel.now``, trace records
and JSONL, and event counts apart by exactly the folded solves' events
and hops.

The sharp edges are the hops of a folded solve still in flight when a
fault, a ping, a user request, a sink or a warm point lands among them:
up to three hops, under a millisecond, after a plain tick, and up to six
(five on the unsplit trees) after a tick whose tune rtu forwards as its
refresh.
"""

import pytest

from repro.bus.client import BusClient
from repro.experiments.snapshot import boot_seed, clear_templates, warmed_station
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_v
from repro.obs import events as ev
from repro.transport.channel import Endpoint
from repro.xmlcmd.commands import CommandMessage
from repro.xmlcmd.fastpath import decode_envelope
from tests.differential import REFERENCES, Case, Run, compare

HOP = 0.0002  # the station's LatencyModel.base: the shortest hop
OFFSETS = [0.0, 0.5 * HOP, HOP, 2 * HOP, 3 * HOP]


def _booted(seed=5, tree="V"):
    station = MercuryStation(tree=TREE_BUILDERS[tree](), seed=seed, trace_capacity=100_000)
    station.boot()
    return station


def _ses(station):
    return station.manager.get("ses").behavior


def _ticks(station):
    """ses's solve grid from its last start, as its solve chain computes it."""
    ready = station.trace.filter(kind=ev.PROCESS_READY, name="ses")[-1].time
    period = _ses(station).solution_period
    tick = ready + period
    while True:
        yield tick
        tick += period


def _folded_tick(seed=5, after=20.0):
    """A tick after ``after`` s whose solve a healthy station folds (the
    same grid on either side of a comparison: both boot alike)."""
    station = _booted(seed)
    station.run_for(after)
    ses = _ses(station)
    for tick in _ticks(station):
        if tick >= station.kernel.now:
            station.run_for(tick - station.kernel.now)
            if ses._folded is not None and ses._fold_tick <= tick:
                return tick


def _ledger(station):
    """Everything the loop's solves leave behind."""
    ses = _ses(station)
    tracker = station.manager.get("str").behavior
    tuner = station.manager.get("rtu").behavior
    broker = station.manager.get("mbus").behavior
    proxy = station.manager.get(tuner.radio_proxy_name).behavior
    radio_side = [proxy.commands_applied if proxy.name == "fedrcom" else proxy.translated]
    if proxy.name == "fedr":
        pbcom = station.manager.get("pbcom").behavior
        radio_side += [proxy._last_frequency, proxy.dropped_while_disconnected]
        radio_side.append(pbcom.commands_applied)
    antenna = station.hardware.antenna
    radio = station.hardware.radio
    links = [
        endpoint._channel
        for endpoint in (ses.endpoint, tracker.endpoint, tuner.endpoint, proxy.endpoint)
        if endpoint is not None
    ]
    return (
        ses.solutions_sent,
        tracker.track_commands,
        (antenna.azimuth_deg, antenna.elevation_deg, antenna.last_pointed_at, antenna.point_count),
        tuner.tune_commands,
        tuner._last_forward_at,
        radio_side,
        (radio.frequency_hz, radio.tuned_at, radio.tune_count),
        (broker.routed, broker.dropped),
        [(c.messages_sent, c.messages_delivered, c.messages_lost) for c in links],
    )


def _at(station, when, action):
    """Run ``action()`` at ``when``; returns whether ses was folded then."""
    folded = []

    def fire():
        folded.append(_ses(station)._folded is not None)
        action()

    station.kernel.schedule_at(when, fire)
    station.run_for(when - station.kernel.now + 1e-6)
    return folded[0]


@pytest.mark.parametrize("target", ["ses", "str", "rtu", "mbus", "fedr"])
@pytest.mark.parametrize("mode", ["crash", "hang"])
@pytest.mark.parametrize("offset", OFFSETS)
def test_a_fault_inside_a_folded_solve_agrees_with_every_solve(target, mode, offset):
    when = _folded_tick() + offset
    folded_at_fault = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        failures = []
        folded_at_fault.append(
            _at(station, when, lambda: failures.append(
                station.injector.inject_simple(target, kind=mode)
            ))
        )
        mttr = station.run_until_recovered(failures[0], timeout=120.0)
        station.run_for(25.0)  # folding again, past a refresh
        return Run(station.kernel, (mttr, _ledger(station)))

    compare("every-solve", Case(f"{mode} {target} at solve+{offset}", run))
    assert folded_at_fault == [True, False]


@pytest.mark.parametrize("component", ["ses", "str", "rtu"])
@pytest.mark.parametrize("offset", OFFSETS)
def test_an_fd_ping_inside_a_folded_solve_agrees_with_every_solve(component, offset):
    """A ping a stepped round sends to a loop component meets the folded
    solve's hops on the loop's links (the FIFO clamp), so the send wakes
    the fold to replay them first."""
    when = _folded_tick() + offset
    folded_at_ping = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        fd = station.fd
        folded_at_ping.append(
            _at(station, when, lambda: fd._send_ping_wire(component, fd._seq + 1000))
        )
        station.run_for(25.0)
        return Run(station.kernel, _ledger(station))

    compare("every-solve", Case(f"ping {component} at solve+{offset}", run))
    assert folded_at_ping == [True, False]


def _warm_to(tick):
    def warm(station):
        station.boot()
        station.run_for(tick - station.kernel.now)

    return warm


@pytest.mark.parametrize("offset", [0.5 * HOP, 2 * HOP, 1.0])
def test_a_template_frozen_mid_fold_restores_as_every_solve_boots(offset):
    """A warm point among a folded solve's hops: the draws the fold owed
    before it are drawn from the boot seed, as stepping drew them, before
    the cell's rebase — restored or booted afresh."""
    # The template boots under the shape's seed: find a folded tick on
    # that station's own grid.
    shape = "test-folded-solves"
    probe = _station(boot_seed(shape))
    probe.boot()
    probe.run_for(20.0)
    ses = _ses(probe)
    warm_end = next(t for t in _ticks(probe) if t >= probe.kernel.now)
    probe.run_for(warm_end - probe.kernel.now)
    assert ses._folded is not None and ses._fold_tick <= warm_end
    warm_end += offset

    def run_with(snapshot):
        def run(jsonl):
            clear_templates()
            station = warmed_station(shape, _station, _warm_to(warm_end), 11, snapshot=snapshot)
            station.kernel.trace.add_sink(jsonl)
            station.run_for(30.0)
            failure = station.injector.inject_simple("fedr")
            mttr = station.run_until_recovered(failure, timeout=120.0)
            station.run_for(10.0)
            return Run(station.kernel, (mttr, _ledger(station)))

        return run

    compare("every-solve", Case(f"restored, warm at solve+{offset}", run_with(True)))
    compare("every-solve", Case(f"booted, warm at solve+{offset}", run_with(False)))
    clear_templates()


def _station(seed):
    return MercuryStation(tree=tree_v(), seed=seed, trace_capacity=100_000)


# ----------------------------------------------------------------------
# a refresh forward in flight: rtu's radio-set-freq and fedr's FREQ line
# ----------------------------------------------------------------------

#: The radio path of each tree the forward rigs run: the proxy rtu
#: forwards to, and pbcom behind it on a split tree.
RADIO_PATH = {"V": ("fedr", "pbcom"), "II": ("fedrcom",)}

#: The loop's chain hops, by what the receiver gets: the tune (at mbus and
#: at rtu), rtu's forward (at mbus and at the proxy) and fedr's line.
_CHAIN = ("tune", "radio-set-freq", "FREQ")


def _chain_verb(message):
    envelope = decode_envelope(message)
    if envelope is None:
        return "FREQ" if str(message).startswith("FREQ ") else None
    return envelope.verb if envelope.verb in _CHAIN else None


def _forward_hops(tree, seed=5, after=20.0):
    """The instants of a refresh forward's chain on a healthy tree-``tree``
    station, as stepping delivers it: the first tick past ``after`` s whose
    tune rtu forwards, the tune at mbus and at rtu, the forward at mbus and
    at the radio proxy, and on a split tree fedr's line at pbcom.  Both
    sides of a comparison boot alike, so the instants hold for either."""
    delivered = []
    with REFERENCES["every-solve"].patch(), pytest.MonkeyPatch.context() as patch:
        station = _booted(seed, tree)
        station.run_for(after)
        kernel = station.kernel
        deliver = Endpoint._deliver

        def noting(self, message):
            verb = _chain_verb(message)
            if verb is not None:
                delivered.append((kernel.now, verb))
            return deliver(self, message)

        patch.setattr(Endpoint, "_deliver", noting)
        station.run_for(15.0)  # past the next refresh
    first = next(i for i, (_, verb) in enumerate(delivered) if verb == "radio-set-freq")
    chain = [when for when, _ in delivered[first - 2:first + len(RADIO_PATH[tree]) + 1]]
    tick = max(t for t in _ticks_before(station, chain[0]))
    return [tick] + chain


def _ticks_before(station, limit):
    for tick in _ticks(station):
        if tick >= limit:
            return
        yield tick


def _landings(hops):
    """Every hop's instant, each midway to the next, and one base hop past
    the last: a fault there finds the chain landed."""
    points = []
    for here, there in zip(hops, hops[1:]):
        points += [here, (here + there) / 2]
    return points + [hops[-1], hops[-1] + HOP]


def _forward_cases(targets):
    return [
        (tree, target, index)
        for tree in sorted(RADIO_PATH)
        for target in targets(tree)
        # Two landings a hop: the tick, the tune's two, the forward's two
        # and one more per hop past the proxy.
        for index in range(2 * (4 + len(RADIO_PATH[tree])))
    ]


def _landing(tree, index):
    return _landings(_forward_hops(tree))[index]


@pytest.mark.parametrize("mode", ["crash", "hang", "zombie"])
@pytest.mark.parametrize(
    "tree,target,index", _forward_cases(lambda tree: ("rtu",) + RADIO_PATH[tree])
)
def test_a_fault_on_a_refresh_forward_in_flight_agrees_with_every_solve(
    tree, target, index, mode
):
    """A kill, hang or zombie of rtu or the radio path at each hop of a
    forward in flight: a crash of the proxy or pbcom keeps the fold (its
    poke meets the chain and the replay reads the link down), a degrade
    ends it."""
    when = _landing(tree, index)
    folded_at_fault = []

    def run(jsonl):
        station = _booted(tree=tree)
        station.kernel.trace.add_sink(jsonl)
        failures = []
        folded_at_fault.append(
            _at(station, when, lambda: failures.append(
                station.injector.inject_simple(target, kind=mode)
            ))
        )
        if mode == "zombie":  # it answers FD's pings: nothing restarts it
            station.run_for(40.0)
            mttr = None
        else:
            mttr = station.run_until_recovered(failures[0], timeout=40.0)
        station.run_for(25.0)  # past two more refreshes
        return Run(station.kernel, (mttr, _ledger(station)))

    compare("every-solve", Case(f"{mode} {target} on tree {tree} at landing {index}", run))
    assert folded_at_fault == [True, False]


@pytest.mark.parametrize(
    "tree,component,index", _forward_cases(lambda tree: ("rtu",) + RADIO_PATH[tree])
)
def test_an_fd_ping_on_a_refresh_forward_in_flight_agrees_with_every_solve(
    tree, component, index
):
    """A ping through mbus to rtu or the radio path meets the forward on
    the hooked links (mbus→rtu, mbus→proxy), so the send replays it first."""
    when = _landing(tree, index)
    folded_at_ping = []

    def run(jsonl):
        station = _booted(tree=tree)
        station.kernel.trace.add_sink(jsonl)
        fd = station.fd
        folded_at_ping.append(
            _at(station, when, lambda: fd._send_ping_wire(component, fd._seq + 1000))
        )
        station.run_for(25.0)
        return Run(station.kernel, _ledger(station))

    compare("every-solve", Case(f"ping {component} on tree {tree} at landing {index}", run))
    assert folded_at_ping == [True, False]


@pytest.mark.parametrize("tree,proxy,index", _forward_cases(lambda tree: RADIO_PATH[tree][:1]))
def test_a_user_uplink_on_a_refresh_forward_in_flight_agrees_with_every_solve(
    tree, proxy, index
):
    """A user's ``command-uplink`` routed to the radio proxy over the link
    the forward is in flight on, and answered from the proxy's view of the
    radio path."""
    when = _landing(tree, index)
    folded_at_send = []

    def run(jsonl):
        station = _booted(tree=tree)
        station.kernel.trace.add_sink(jsonl)
        ops = BusClient(station.kernel, station.network, "ops")
        ops.connect()
        replies = []
        ops.on_message(replies.append)
        uplink = CommandMessage("ops", proxy, "command-uplink", {"req": "1"})
        folded_at_send.append(_at(station, when, lambda: ops.send(uplink)))
        station.run_for(25.0)
        assert len(replies) == 1
        return Run(station.kernel, (replies, _ledger(station)))

    compare("every-solve", Case(f"uplink to {proxy} on tree {tree} at landing {index}", run))
    assert folded_at_send == [True, False]


@pytest.mark.parametrize("tree,index", [(t, i) for t, _, i in _forward_cases(lambda t: ("",))])
def test_a_sink_attached_mid_fold_sees_the_replayed_forward_as_stepping_emits_it(tree, index):
    """A sink attached among a forward's hops: the records the fold owes
    from before the attach go only to the sinks already there, and the
    radio's ``tuned`` record landing after it reaches the new one too, at
    its own instant."""
    when = _landing(tree, index)
    folded_at_attach = []

    def run(jsonl):
        station = _booted(tree=tree)
        folded_at_attach.append(
            _at(station, when, lambda: station.kernel.trace.add_sink(jsonl))
        )
        station.run_for(25.0)
        return Run(station.kernel, _ledger(station))

    compare("every-solve", Case(f"sink on tree {tree} at landing {index}", run))
    assert folded_at_attach == [True, False]
