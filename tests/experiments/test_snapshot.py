"""Warmed-station snapshot/fork: bit-identity and cache semantics.

The campaign runner's per-cell setup cost is amortised by booting one
*template* station per scenario shape and forking it per cell.  The
load-bearing contract is bit-identity: a cell measured on a restored
snapshot must produce byte-for-byte the same results as one measured on a
fresh boot, because both share the campaign result cache (the snapshot
mode is deliberately *not* part of the cache key).  These tests run every
experiment family both ways and compare exact outputs, pin down the
template-cache behaviours the contract rests on, and hold the fork to
``copy.deepcopy``'s object graph and to a fresh boot's object layout.
"""

import collections
import copy
import copyreg
import dataclasses
import functools
import gc
import itertools
import pickle
import sys
import types

import pytest

from repro.experiments.availability import measure_availability
from repro.experiments.recovery import measure_recovery
from repro.experiments import snapshot as snapshot_module
from repro.experiments.snapshot import (
    boot_seed,
    clear_templates,
    fork,
    station_shape,
    template_count,
    tree_fingerprint,
    warm_template,
    warmed_station,
)
from repro.chaos.engine import run_chaos
from repro.core.transformations import (
    TRANSFORMATION_CATALOG,
    consolidate_groups,
    depth_augment,
    insert_joint_node,
    promote_component,
    replace_component,
)
from repro.errors import TransformationError
from repro.experiments.runner import CampaignCell, cache_key
from repro.experiments.fleet import DigestSink, FleetSpec, _StationBuild
from repro.experiments.template_store import SharedTemplateStore
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.session_store import SessionStore, _Record
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_i, tree_ii, tree_iv, tree_v
from repro.sim.rng import _Stream
from repro.xmlcmd.fastpath import Wire, encode_ping_wire


@pytest.fixture(autouse=True)
def _fresh_template_cache():
    clear_templates()
    yield
    clear_templates()


# ----------------------------------------------------------------------
# bit-identity: snapshot restore == fresh boot, per experiment family
# ----------------------------------------------------------------------


def test_recovery_identical_with_and_without_snapshot():
    fresh = measure_recovery(tree_ii(), "rtu", trials=3, seed=9, snapshot=False)
    assert template_count() == 0  # fresh boot: nothing cached
    restored = measure_recovery(tree_ii(), "rtu", trials=3, seed=9, snapshot=True)
    assert restored.samples == fresh.samples
    assert restored.phases == fresh.phases


def test_recovery_second_cell_reuses_template():
    measure_recovery(tree_ii(), "rtu", trials=1, seed=1, snapshot=True)
    assert template_count() == 1
    measure_recovery(tree_ii(), "rtu", trials=1, seed=2, snapshot=True)
    assert template_count() == 1  # same shape: no second boot
    fresh = measure_recovery(tree_ii(), "rtu", trials=1, seed=2, snapshot=False)
    restored = measure_recovery(tree_ii(), "rtu", trials=1, seed=2, snapshot=True)
    assert restored.samples == fresh.samples


def test_availability_identical_with_and_without_snapshot():
    kwargs = dict(horizon_s=2.0 * 3600.0, seed=5)
    fresh = measure_availability(tree_i(), snapshot=False, **kwargs)
    restored = measure_availability(tree_i(), snapshot=True, **kwargs)
    assert dataclasses.asdict(restored) == dataclasses.asdict(fresh)


def test_lifetimes_identical_with_and_without_snapshot():
    """The Table 1 fields of a tree-V cell included."""
    kwargs = dict(horizon_s=2.0 * 3600.0, seed=3)
    fresh = measure_availability(tree_v(), snapshot=False, **kwargs)
    restored = measure_availability(tree_v(), snapshot=True, **kwargs)
    assert dataclasses.asdict(restored) == dataclasses.asdict(fresh)
    assert sum(restored.arrivals.values()) > 0


def test_chaos_identical_with_and_without_snapshot():
    fresh = run_chaos(tree_v(), "storm", trials=1, seed=77, snapshot=False)
    restored = run_chaos(tree_v(), "storm", trials=1, seed=77, snapshot=True)
    assert restored.to_payload() == fresh.to_payload()


def test_different_seeds_still_differ_under_snapshot():
    """The rebase is real: forked cells are not clones of each other."""
    a = measure_availability(tree_i(), horizon_s=4.0 * 3600.0, seed=1, snapshot=True)
    b = measure_availability(tree_i(), horizon_s=4.0 * 3600.0, seed=2, snapshot=True)
    assert dataclasses.asdict(a) != dataclasses.asdict(b)


# ----------------------------------------------------------------------
# shape and cache mechanics
# ----------------------------------------------------------------------


def test_shape_distinguishes_kind_tree_config_and_params():
    base = station_shape("recovery", tree_ii(), PAPER_CONFIG, oracle="perfect")
    assert station_shape("recovery", tree_ii(), PAPER_CONFIG, oracle="perfect") == base
    assert station_shape("chaos", tree_ii(), PAPER_CONFIG, oracle="perfect") != base
    assert station_shape("recovery", tree_v(), PAPER_CONFIG, oracle="perfect") != base
    assert (
        station_shape("recovery", tree_ii(), PAPER_CONFIG, oracle="guessing") != base
    )
    other_config = PAPER_CONFIG.with_overrides(ping_period=2.0)
    assert station_shape("recovery", tree_ii(), other_config, oracle="perfect") != base


def _applied(transform, tree, targets):
    """``transform(tree, *args)`` for every ``args`` in ``targets`` it
    applies to."""
    out = []
    for args in targets:
        try:
            out.append(transform(tree, *args))
        except TransformationError:
            pass  # e.g. depth-augmenting a cell that attaches no components
    return out


def _split_and_join(tree):
    """Subtree depth augmentation: split each component in two (II -> II'),
    then put the halves under a joint node (II' -> III)."""
    out = []
    for component in sorted(tree.components):
        halves = [f"{component}_a", f"{component}_b"]
        split = replace_component(tree, component, halves)
        joint_over = [split.cell_of_component(half) for half in halves]
        out += [split, insert_joint_node(split, joint_over, f"R_{component}_joint")]
    return out


def _sibling_pairs(tree):
    for cell_id in tree.cell_ids:
        children = [child.cell_id for child in tree.get_cell(cell_id).children]
        yield from ((pair, "R_merged") for pair in itertools.combinations(children, 2))


#: Every TRANSFORMATION_CATALOG row as the trees one step of it makes.
_CATALOG_STEPS = {
    "original": lambda tree: [tree],
    "depth_augment": lambda tree: _applied(
        depth_augment, tree, [(c,) for c in tree.cell_ids]
    ),
    "subtree_depth_augment": _split_and_join,
    "consolidate": lambda tree: _applied(consolidate_groups, tree, _sibling_pairs(tree)),
    "promote": lambda tree: _applied(
        promote_component, tree, [(c,) for c in sorted(tree.components)]
    ),
}


def test_fingerprint_sees_exactly_name_and_structure():
    assert set(_CATALOG_STEPS) == {t.key for t in TRANSFORMATION_CATALOG}
    trees = []
    for build in TREE_BUILDERS.values():
        for step in _CATALOG_STEPS.values():
            trees += step(build())
    # Fresh builds: equal trees that are other objects.
    trees += [build() for build in TREE_BUILDERS.values()]
    equal_pairs = 0
    for a, b in itertools.combinations(trees, 2):
        same = a.name == b.name and a.structurally_equal(b)
        equal_pairs += same
        assert (tree_fingerprint(a) == tree_fingerprint(b)) == same, (a, b)
    assert len(trees) > 100 and equal_pairs >= len(TREE_BUILDERS)
    # Two trees under one name that differ in structure are two cache
    # entries, never one served for the other.
    cell = CampaignCell(kind="recovery", tree="V", component="rtu", trials=3, seed=1)
    a = depth_augment(tree_v(), "R_fedr_pbcom")
    b = depth_augment(tree_v(), "R_ses_str")
    assert a.name == b.name and not a.structurally_equal(b)
    assert cache_key(cell, PAPER_CONFIG, a) != cache_key(cell, PAPER_CONFIG, b)


def test_boot_seed_is_shape_derived_and_stable():
    shape = station_shape("recovery", tree_ii(), PAPER_CONFIG)
    assert boot_seed(shape) == boot_seed(shape)
    assert boot_seed(shape) != boot_seed(station_shape("chaos", tree_ii(), PAPER_CONFIG))


def test_fresh_mode_boots_under_the_same_snapshot_seed():
    """Bit-identity is seed-identity: fresh mode re-executes the template's
    deterministic boot rather than booting under the cell seed, so both
    modes reach the same warmed state before the rebase."""
    shape = station_shape("unit", tree_ii(), PAPER_CONFIG)
    seen = []

    def build(seed: int) -> MercuryStation:
        seen.append(seed)
        return MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=seed)

    warmed_station(shape, build, MercuryStation.boot, 1234, snapshot=False)
    warmed_station(shape, build, MercuryStation.boot, 1234, snapshot=True)
    assert seen == [boot_seed(shape), boot_seed(shape)]


def test_restored_station_is_rebased_onto_cell_seed():
    shape = station_shape("unit2", tree_ii(), PAPER_CONFIG)

    def build(seed: int) -> MercuryStation:
        return MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=seed)

    a = warmed_station(shape, build, MercuryStation.boot, 1, snapshot=True)
    b = warmed_station(shape, build, MercuryStation.boot, 2, snapshot=True)
    assert a is not b
    draw_a = a.kernel.rngs.stream("unit-test").random()
    draw_b = b.kernel.rngs.stream("unit-test").random()
    assert draw_a != draw_b  # different cell seeds -> different streams


# ----------------------------------------------------------------------
# channel numbering: per station, carried through a restore
# ----------------------------------------------------------------------


def _bus_channel_reprs(station: MercuryStation) -> dict:
    """``repr`` of every component's bus channel — the text a
    ``ChannelClosedError`` about it would carry."""
    return {
        process.name: repr(process.behavior._endpoint._channel)
        for process in station.manager.processes()
        if getattr(process.behavior, "_endpoint", None) is not None
    }


def test_two_stations_from_one_seed_number_their_channels_alike():
    """Channel ids used to come from a process-global counter, so the
    second station's error texts depended on the first having been built."""
    first = MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=5)
    first.boot()
    second = MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=5)
    second.boot()
    reprs = _bus_channel_reprs(first)
    assert len(reprs) >= 5
    assert reprs == _bus_channel_reprs(second)
    assert repr(first.fd._ctl._channel) == repr(second.fd._ctl._channel)


def test_restored_station_continues_its_templates_channel_numbering():
    shape = station_shape("unit3", tree_ii(), PAPER_CONFIG)

    def build(seed: int) -> MercuryStation:
        return MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=seed)

    template = warm_template(shape, build, MercuryStation.boot)
    established = template.network.connections_established
    restored = warmed_station(shape, build, MercuryStation.boot, 1, snapshot=True)
    assert _bus_channel_reprs(restored) == _bus_channel_reprs(template)
    ops = restored.network.connect("ops", "mbus:7000")
    assert ops._channel.id == established + 1
    # ... and on its own count: the template's did not move.
    assert template.network.connections_established == established


# ----------------------------------------------------------------------
# parked dials: a ticket held by the network belongs to the copy
# ----------------------------------------------------------------------


def _build_iv(seed: int) -> MercuryStation:
    return MercuryStation(
        tree=tree_iv(), config=PAPER_CONFIG, seed=seed, trace_capacity=50_000
    )


def _warm_into_radio_outage(station: MercuryStation) -> None:
    """Boot, fell ``fedr`` and ``pbcom`` together, and stop once ``fedr``
    is back and its dial to the still-negotiating ``pbcom`` is parked."""
    station.boot()
    station.injector.inject_joint("pbcom", {"fedr", "pbcom"}, kind="joint")
    deadline = station.kernel.now + 60.0
    while not station.network.dials_parked:
        assert station.kernel.now < deadline
        station.run_for(0.1)
    fedr = station.manager.get("fedr").behavior
    assert fedr._pbcom_pending and not fedr.pbcom_connected
    assert not station.network.is_bound("pbcom:9000")


def _drive(station: MercuryStation, seconds: float = 60.0) -> dict:
    digest = DigestSink()
    station.kernel.trace.add_sink(digest)
    station.run_for(seconds)
    return {
        "now": station.kernel.now,
        "events": station.kernel.events_executed,
        "digest": digest.hexdigest(),
        "records": digest.records,
        "connections": station.network.connections_established,
    }


def _store_round_trip(station: MercuryStation) -> MercuryStation:
    store = SharedTemplateStore()
    store.publish("mid-outage", station)
    return store.fetch("mid-outage")


@pytest.mark.parametrize(
    "clone",
    [fork, copy.deepcopy, _store_round_trip]
    + [
        pytest.param(
            lambda station, protocol=protocol: pickle.loads(
                pickle.dumps(station, protocol=protocol)
            ),
            id=f"pickle-{protocol}",
        )
        for protocol in (2, 3, 4, 5)
    ],
)
def test_copy_of_a_station_with_a_parked_dial_connects_its_own_fedr(clone):
    station = _build_iv(5)
    _warm_into_radio_outage(station)
    before = (
        station.kernel.now,
        station.kernel.events_executed,
        station.kernel.pending_events,
        station.network.dials_parked,
        station.network.connections_established,
    )
    fork = clone(station)
    assert fork.network.dials_parked == station.network.dials_parked
    _drive(fork)
    fork_fedr = fork.manager.get("fedr").behavior
    assert fork_fedr.pbcom_connected and fork.network.dials_parked == 0
    assert fork_fedr.network is fork.network and fork_fedr.kernel is fork.kernel
    # The original saw none of it: same clock, same queue, same ticket.
    assert before == (
        station.kernel.now,
        station.kernel.events_executed,
        station.kernel.pending_events,
        station.network.dials_parked,
        station.network.connections_established,
    )
    assert not station.manager.get("fedr").behavior.pbcom_connected
    # ... and still redeems it for itself, exactly as its copy did.
    assert _drive(station)["connections"] == fork.network.connections_established
    assert station.manager.get("fedr").behavior.pbcom_connected


def test_fork_taken_mid_outage_equals_a_fresh_boot_driven_there():
    shape = station_shape("parked-dial", tree_iv(), PAPER_CONFIG)
    fresh = _drive(
        warmed_station(shape, _build_iv, _warm_into_radio_outage, 9, snapshot=False)
    )
    forked = _drive(
        warmed_station(shape, _build_iv, _warm_into_radio_outage, 9, snapshot=True)
    )
    assert template_count() == 1
    assert fresh["records"] > 0 and fresh == forked


# ----------------------------------------------------------------------
# the fork: deepcopy's object graph, a fresh boot's object layout
# ----------------------------------------------------------------------


def _build_recovery(seed: int) -> MercuryStation:
    return MercuryStation(tree=tree_v(), config=PAPER_CONFIG, seed=seed)


def _build_availability(seed: int) -> MercuryStation:
    return MercuryStation(
        tree=tree_v(), config=PAPER_CONFIG, seed=seed, supervisor="abstract",
        steady_faults=True, solution_period=600.0, trace_capacity=10_000,
    )


def _warm_availability(station: MercuryStation) -> None:
    # repro.experiments.availability's warm point: the 120 s settle.
    station.kernel.trace.enabled = False
    station.manager.start_all(station.station_components)
    station.kernel.run(until=station.kernel.now + 120.0)


def _build_checkpoint_replay(seed: int) -> MercuryStation:
    return MercuryStation(
        tree=tree_v(), config=PAPER_CONFIG, seed=seed, trace_capacity=50_000,
        strategy="checkpoint-replay",
    )


_FLEET_MEMBER = _StationBuild(FleetSpec(tree="V", size=2, horizon_s=30.0, seed=1), PAPER_CONFIG)

#: The station shapes the benchmark workloads fork: FD/REC on tree V, the
#: abstract supervisor, a session store, and a fleet member (fault fabric,
#: steady-state injectors).
SHAPES = {
    "recovery": (_build_recovery, MercuryStation.boot),
    "availability": (_build_availability, _warm_availability),
    "checkpoint-replay": (_build_checkpoint_replay, MercuryStation.boot),
    "fleet-member": (_FLEET_MEMBER.build, _FLEET_MEMBER.warm),
}

#: Containers the layout walk descends into besides the project's own
#: instances (a set is skipped: its referents come in hash order).
_WALKED = (dict, list, tuple, collections.deque, types.MethodType, functools.partial)


def _restored_and_booted(name: str):
    build, warm = SHAPES[name]
    shape = station_shape(f"layout-{name}", tree_v(), PAPER_CONFIG)
    warm_template(shape, build, warm)
    restored = warmed_station(shape, build, warm, 5, snapshot=True)
    return restored, warmed_station(shape, build, warm, 5, snapshot=False)


def _layout_mismatches(restored, booted):
    """Walk both graphs in step through ``gc.get_referents`` and return
    (objects compared, classes whose referent types differ).  An instance
    whose attributes are inline values refers to them directly; one with
    a materialized ``__dict__`` refers to the dict."""
    seen, stack, compared = set(), [(restored, booted)], 0
    mismatched = collections.Counter()
    while stack:
        a, b = stack.pop()
        if id(a) in seen:
            continue
        seen.add(id(a))
        assert type(a) is type(b)
        cls = type(a)
        if isinstance(a, type) or not (cls in _WALKED or cls.__module__.startswith("repro.")):
            continue
        compared += 1
        referents_a, referents_b = gc.get_referents(a), gc.get_referents(b)
        if [type(r) for r in referents_a] != [type(r) for r in referents_b]:
            mismatched[cls.__qualname__] += 1
            continue
        stack.extend(zip(referents_a, referents_b))
    return compared, mismatched


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_forked_station_has_the_object_layout_of_a_booted_one(name):
    compared, mismatched = _layout_mismatches(*_restored_and_booted(name))
    assert compared > 250
    assert not mismatched


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="CPython 3.11's inline-values layout"
)
def test_the_layout_walk_sees_what_deepcopy_does_to_a_station(monkeypatch):
    monkeypatch.setattr(snapshot_module, "fork", copy.deepcopy)
    _, mismatched = _layout_mismatches(*_restored_and_booted("recovery"))
    assert mismatched == {"MercuryStation": 1}  # the walk stops at the root


def _edges(obj):
    """What ``obj`` holds, in a fixed order, whatever its layout."""
    cls = type(obj)
    if cls is dict:
        return [part for item in obj.items() for part in item]
    if isinstance(obj, (list, tuple, collections.deque)):
        return list(obj)
    if cls is types.MethodType:
        return [obj.__self__]
    if cls is functools.partial:
        return [obj.func, *obj.args, *obj.keywords.values()]
    if isinstance(obj, type) or not cls.__module__.startswith("repro."):
        return []
    held = list(vars(obj).values()) if hasattr(obj, "__dict__") else []
    return held + [
        getattr(obj, name) for name in copyreg._slotnames(cls) if hasattr(obj, name)
    ]


def test_the_fork_aliases_exactly_as_deepcopy_does():
    """Walk a template, its fork and its deepcopy in step: every object is
    shared with the template by both or by neither, and two objects share
    a copy under the fork exactly when they do under deepcopy."""
    build, warm = SHAPES["checkpoint-replay"]
    template = build(11)
    warm(template)
    forked, deep = fork(template), copy.deepcopy(template)
    copies, stack, shared = {}, [(template, forked, deep)], 0
    while stack:
        original, a, b = stack.pop()
        if id(original) in copies:
            assert copies[id(original)][0] is a and copies[id(original)][1] is b
            continue
        copies[id(original)] = (a, b)
        assert type(a) is type(b) is type(original)
        assert (a is original) == (b is original)
        shared += a is original
        held = [_edges(each) for each in (original, a, b)]
        assert len(set(map(len, held))) == 1
        stack.extend(zip(*held))
    pairs = {(id(a), id(b)) for a, b in copies.values()}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
    assert len(copies) > 500 and shared > 100


def test_immutable_objects_come_back_as_themselves_and_state_is_cloned():
    station = MercuryStation(tree=tree_v(), config=PAPER_CONFIG, seed=4)
    station.boot()
    forked = fork(station)
    assert forked.config is station.config and forked.tree is station.tree
    assert forked.kernel.trace.records[0] is station.kernel.trace.records[0]
    timing = next(iter(PAPER_CONFIG.timings.values()))
    wire = encode_ping_wire("ping", "fd", "ses", 3)
    assert type(wire) is Wire
    for each in (PAPER_CONFIG, timing, tree_v(), station.kernel.trace.records[-1], wire):
        assert fork([each])[0] is each

    streams = station.kernel.rngs._streams
    assert streams
    for name, stream in forked.kernel.rngs._streams.items():
        assert type(stream) is _Stream and stream is not streams[name]
        assert stream.getstate() == streams[name].getstate()

    store = SessionStore()
    store.save_checkpoint("ses", 1.0, {"n": 1})
    store.save_checkpoint("ses", 2.0, {"n": 2})
    clone = fork(store)
    record, copied = store._checkpoints["ses"], clone._checkpoints["ses"]
    assert type(copied) is _Record and copied is not record
    assert (copied.cur, copied.prev) == (record.cur, record.prev)
    assert clone.load_checkpoint("ses") == {"n": 2}


class _Guarded:
    """A plain class with a data descriptor whose name is also a key in an
    instance's ``__dict__`` (written around the descriptor)."""

    def __init__(self):
        self.plain = [1]
        self.writes = []

    @property
    def level(self):
        return "descriptor"

    @level.setter
    def level(self, value):
        self.writes.append(value)


def test_a_key_that_names_a_data_descriptor_goes_through_the_dict():
    original = _Guarded()
    original.__dict__["level"] = [2]
    forked, deep = fork(original), copy.deepcopy(original)
    assert forked.writes == deep.writes == []  # the setter never ran
    assert vars(forked) == vars(deep) == vars(original)
    assert vars(forked)["level"] is not original.__dict__["level"]
    assert forked.plain is not original.plain and forked.level == "descriptor"
