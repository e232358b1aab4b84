"""Dial loops: a refused dial parks with the network instead of polling it.

``Network.dial`` is one attempt, ``Network.redial`` arranges the next —
a ticket ``Network.listen`` redeems while nothing is bound, a timer into a
partition — and ``Network.hang_up`` ends a dead client's loops.  The
reference (``polling_dial_reference`` in ``tests/conftest.py``) arms a timer
after every refusal, as the product's four loops used to: the attempt that
connects must happen at the same instant either way, and only the refused
polls in between may be missing (DESIGN.md §10, "Dialling: park, don't
poll").
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.snapshot import fork
from repro.sim.kernel import Kernel
from repro.transport.network import Network, NetworkFaultModel

ADDRESS = "srv:1"


class Dialler:
    """A dial loop in the product's shape (``BusAttachedBehavior``'s)."""

    def __init__(self, network, name="client", interval=0.25):
        self.network = network
        self.kernel = network.kernel
        self.name = name
        self.interval = interval
        self.alive = False
        self.endpoint = None
        self.pending = False
        self.attempts = []
        self.connected_at = []

    def start(self):
        self.alive = True
        self.attempt()

    def kill(self):
        self.alive = False
        self.endpoint = None
        self.network.hang_up(self.name)

    def attempt(self):
        self.pending = False
        if not self.alive or self.endpoint is not None:
            return
        self.attempts.append(self.kernel.now)
        self.endpoint = self.network.dial(self.name, ADDRESS)
        if self.endpoint is None:
            self.retry()
            return
        self.connected_at.append(self.kernel.now)

    def retry(self):
        if self.pending or not self.alive:
            return
        self.pending = True
        self.network.redial(self.name, ADDRESS, self.interval, self.attempt)


class Server:
    """Binds and unbinds ``ADDRESS`` on a schedule fixed before the run."""

    def __init__(self, network):
        self.network = network
        self.listener = None

    def up(self):
        self.listener = self.network.listen(ADDRESS, lambda endpoint: None)

    def down(self):
        self.listener.close()


def _both(scenario, polling_dial_reference, faults=False):
    """Run ``scenario(kernel, network) -> dialler`` parked and polling."""
    runs = []
    for reference in (False, True):
        kernel = Kernel(seed=5)
        network = Network(kernel, faults=NetworkFaultModel(kernel) if faults else None)
        if reference:
            with polling_dial_reference():
                dialler = scenario(kernel, network)
        else:
            dialler = scenario(kernel, network)
        runs.append((kernel, network, dialler))
    return runs


def _assert_same_connects_fewer_polls(parked, polling):
    (kernel, _, dialler), (ref_kernel, _, ref_dialler) = parked, polling
    assert dialler.connected_at == ref_dialler.connected_at
    assert kernel.now == ref_kernel.now
    saved = len(ref_dialler.attempts) - len(dialler.attempts)
    assert set(dialler.attempts) <= set(ref_dialler.attempts)
    return saved


@settings(max_examples=60, deadline=None)
@given(
    refused_at=st.floats(0.0, 50.0),
    outage=st.floats(0.001, 30.0),
    interval=st.floats(0.01, 2.0),
)
def test_parked_dial_connects_on_the_pollers_grid(
    refused_at, outage, interval, polling_dial_reference
):
    """Bit-equal connect instant for any (refusal, listen, interval): the
    ticket advances by repeated addition, as the chain of timers did."""

    def scenario(kernel, network):
        server = Server(network)
        kernel.call_at(refused_at + outage, server.up)
        dialler = Dialler(network, interval=interval)
        kernel.call_at(refused_at, dialler.start)
        kernel.run()
        return dialler

    parked, polling = _both(scenario, polling_dial_reference)
    saved = _assert_same_connects_fewer_polls(parked, polling)
    kernel, network, dialler = parked
    assert len(dialler.connected_at) == 1 and network.dials_parked == 0
    # One refusal, one connect: every poll in between is gone, and each was
    # one kernel event.
    assert len(dialler.attempts) == 2
    assert polling[0].events_executed - kernel.events_executed == saved


def test_listener_closed_again_before_the_tick_parks_from_there(polling_dial_reference):
    def scenario(kernel, network):
        server = Server(network)
        kernel.call_at(1.30, server.up)
        kernel.call_at(1.32, server.down)  # the grid's next tick is 1.5
        kernel.call_at(4.10, server.up)
        dialler = Dialler(network)
        kernel.call_at(0.0, dialler.start)
        kernel.run()
        return dialler

    parked, polling = _both(scenario, polling_dial_reference)
    saved = _assert_same_connects_fewer_polls(parked, polling)
    assert parked[2].connected_at == [4.25]
    # Refused at 0.0, refused again at the redeemed tick 1.5, connected.
    assert parked[2].attempts == [0.0, 1.5, 4.25]
    assert saved == len(polling[2].attempts) - 3 > 0


def test_two_loops_from_one_client_keep_their_own_phases(polling_dial_reference):
    """The failure detector's quirk: its ping tick calls the attempt
    directly while a retry is pending, which starts a second loop on another
    phase.  Whichever grid has the first tick after the listen connects."""

    def scenario(kernel, network):
        server = Server(network)
        kernel.call_at(2.05, server.up)
        dialler = Dialler(network)
        kernel.call_at(0.0, dialler.start)
        kernel.call_at(0.9, dialler.attempt)  # a second chain, phase 0.15
        kernel.run()
        return dialler

    parked, polling = _both(scenario, polling_dial_reference)
    _assert_same_connects_fewer_polls(parked, polling)
    kernel, network, dialler = parked
    # Grid one's next tick is 2.25, grid two's 2.15: the second loop wins,
    # the first fires once more and returns at the connected check.
    assert dialler.connected_at == [pytest.approx(2.15)]
    assert dialler.attempts[:2] == [0.0, 0.9] and len(dialler.attempts) == 3
    assert kernel.events_executed == polling[0].events_executed - (
        len(polling[2].attempts) - 3
    )


def test_kill_drops_the_clients_tickets(polling_dial_reference):
    def scenario(kernel, network):
        server = Server(network)
        kernel.call_at(3.1, server.up)
        dialler = Dialler(network)
        other = Dialler(network, name="other")
        kernel.call_at(0.0, dialler.start)
        kernel.call_at(0.05, other.start)
        kernel.call_at(1.0, dialler.kill)
        kernel.call_at(2.2, dialler.start)  # the restarted incarnation
        kernel.run()
        dialler.other = other
        return dialler

    parked, polling = _both(scenario, polling_dial_reference)
    _assert_same_connects_fewer_polls(parked, polling)
    dialler = parked[2]
    # On the new incarnation's grid (2.2 + k/4), not the dead one's (k/4).
    assert dialler.connected_at == [pytest.approx(3.2)]
    assert dialler.other.connected_at == polling[2].other.connected_at
    assert len(dialler.other.connected_at) == 1


def test_hang_up_leaves_other_clients_parked(kernel, network):
    first, second = Dialler(network, "a"), Dialler(network, "b")
    first.start()
    second.start()
    assert network.dials_parked == 2 and kernel.pending_events == 0
    first.kill()
    assert network.dials_parked == 1
    network.listen(ADDRESS, lambda endpoint: None)
    assert network.dials_parked == 0 and kernel.pending_events == 1
    kernel.run()
    assert not first.connected_at and second.connected_at == [0.25]


def test_partition_refusal_keeps_its_timer_and_counts(polling_dial_reference):
    def scenario(kernel, network):
        network.listen(ADDRESS, lambda endpoint: None)
        network.faults.partition("client", "srv", 1.1)
        dialler = Dialler(network)
        dialler.start()
        # Bound but partitioned: nothing to wait for a ``listen`` on.
        assert network.dials_parked == 0 and dialler.pending
        kernel.run()
        return dialler

    parked, polling = _both(scenario, polling_dial_reference, faults=True)
    saved = _assert_same_connects_fewer_polls(parked, polling)
    assert saved == 0
    assert parked[2].connected_at == [1.25]
    assert parked[1].faults.connects_refused == 5  # 0, .25, .5, .75, 1.0
    assert polling[1].faults.connects_refused == 5
    assert parked[0].events_executed == polling[0].events_executed


def test_partitioned_and_unbound_polls_until_the_heal_then_parks(kernel):
    network = Network(kernel, faults=NetworkFaultModel(kernel))
    network.faults.partition("client", "srv", 0.6)
    dialler = Dialler(network)
    dialler.start()
    kernel.run()  # drains: the heal's poll found nothing bound and parked
    assert network.faults.connects_refused == 3  # 0, .25, .5
    assert dialler.attempts == [0.0, 0.25, 0.5, 0.75]
    assert network.dials_parked == 1 and kernel.pending_events == 0


def test_kernel_with_only_a_parked_dial_drains(kernel, network, polling_dial_reference):
    dialler = Dialler(network)
    dialler.start()
    kernel.run()  # returns: nothing is scheduled
    assert kernel.now == 0.0 and kernel.events_executed == 0
    assert network.dials_parked == 1 and dialler.pending

    ref_kernel = Kernel(seed=5)
    with polling_dial_reference():
        Dialler(Network(ref_kernel)).start()
        ref_kernel.run(max_events=400)  # would never return unbounded
    assert ref_kernel.events_executed == 400 and ref_kernel.now == 100.0


@pytest.mark.parametrize("clone", ["fork", "deepcopy", 2, 3, 4, 5])
def test_parked_ticket_belongs_to_the_copy(kernel, network, clone):
    dialler = Dialler(network)
    dialler.start()
    kernel.run(until=1.1)
    world = (kernel, network, dialler)
    if clone == "fork":
        fork_kernel, fork_network, fork_dialler = fork(world)
    elif clone == "deepcopy":
        fork_kernel, fork_network, fork_dialler = copy.deepcopy(world)
    else:
        fork_kernel, fork_network, fork_dialler = pickle.loads(
            pickle.dumps(world, protocol=clone)
        )
    fork_network.listen(ADDRESS, lambda endpoint: None)
    fork_kernel.run()
    assert fork_dialler.connected_at == [1.25] and fork_network.dials_parked == 0
    # The original still waits, on its own ticket, at its own clock.
    assert not dialler.connected_at and dialler.pending
    assert network.dials_parked == 1
    assert kernel.now == 1.1 and kernel.pending_events == 0
