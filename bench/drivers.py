"""Isolated drivers: one layer's public functions, called directly.

Ported from ``tools/bench.py`` (which stays untouched for the
``bench-smoke`` gate) and extended to the codec, store and barrier.  Each
driver builds its fixtures untimed and returns a callable that performs a
batch of operations and returns how many; the harness times the batch as a
calibrated slice, repeats it :data:`REPS` times and reports the median
per-operation cost.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import calibrate
from repro.bus.broker import BusBroker
from repro.bus.client import BusClient
from repro.experiments import snapshot as snap
from repro.experiments.template_store import SharedTemplateStore
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.session_store import SessionStore
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.fleet import FleetKernel, FleetShell
from repro.sim.kernel import Kernel
from repro.transport.network import Network
from repro.xmlcmd.commands import (
    CommandMessage,
    PingRequest,
    TelemetryFrame,
    encode_message,
    parse_message_full,
)
from repro.xmlcmd.fastpath import encode_ping_wire, scan_envelope, split_ping_wire

#: Timed repetitions per driver (the median is reported).
REPS = 7

COMMAND = CommandMessage(
    "mix-a", "mix-b", "track", {"azimuth": "143.2", "elevation": "67.9"}
)
FRAME = TelemetryFrame("mix-a", "mix-b", "opal", "p42", 4800)


#: A timed batch: performs its operations and returns how many it did.
Batch = Callable[[], int]


class Driver(NamedTuple):
    """``make()`` builds untimed fixtures and returns the timed batch; the
    metric is ``scale`` x seconds per operation (1e9 ns, 1e6 us, 1e3 ms)."""

    metric: str
    unit: str
    scale: float
    make: Callable[[], Batch]


def _kernel_dispatch(rounds: int) -> Batch:
    """The station-shaped timer mix of ``tools/bench.py``: 50 staggered
    interval timers, each tick fanning a 20-callback same-instant burst."""
    timers, burst = 50, 20

    def run() -> int:
        kernel = Kernel(seed=1)

        def deliver() -> None:
            pass

        def tick() -> None:
            when = kernel.now + 0.0005
            for _ in range(burst):
                kernel.schedule_at(when, deliver)

        for i in range(timers):
            kernel.schedule_interval(0.001 + i * 1e-6, tick)
        kernel.run(until=rounds * 0.001 + 0.0009)
        return kernel.events_executed

    return run


def _ping_codec(n: int) -> Batch:
    def run() -> int:
        for seq in range(n):
            split_ping_wire(encode_ping_wire("ping", "fd", "mbus", seq))
        return n

    return run


def _alternating(operation: Callable[[Any], object], first: Any, second: Any, n: int) -> Batch:
    """``operation`` over two inputs in turn, ``n`` calls in all."""

    def run() -> int:
        for _ in range(n // 2):
            operation(first)
            operation(second)
        return n

    return run


def _on_wires(operation: Callable[[str], object], n: int) -> Batch:
    """``operation`` over a command wire and a telemetry wire."""
    return _alternating(operation, encode_message(COMMAND), encode_message(FRAME), n)


def _bus(seed: int, names: Tuple[str, ...]) -> Tuple[Kernel, List[BusClient], List[int]]:
    """A broker with connected clients, and a shared count of messages the
    clients have received."""
    kernel = Kernel(seed=seed)
    network = Network(kernel)
    manager = ProcessManager(kernel)
    manager.spawn(
        ProcessSpec("mbus", constant_work(0.1), lambda p: BusBroker(p, network))
    )
    manager.start("mbus")
    kernel.run()
    seen = [0]

    def count(_message: object) -> None:
        seen[0] += 1

    clients = [BusClient(kernel, network, name, retain_messages=False) for name in names]
    for client in clients:
        client.on_message(count)
        client.connect()
    kernel.run(until=kernel.now + 1.0)
    return kernel, clients, seen


def _bus_ping(n: int) -> Batch:
    kernel, (client,), seen = _bus(2, ("perf",))
    seq = [0]

    def run() -> int:
        before = seen[0]
        for _ in range(n):
            seq[0] += 1
            client.send(PingRequest("perf", "mbus", seq[0]))
        kernel.run(until=kernel.now + 5.0)
        if seen[0] - before != n:
            raise RuntimeError("bus ping driver lost replies")
        return n

    return run


def _bus_mixed(n: int) -> Batch:
    """Per 10 messages: 7 broker pings, 1 client-to-client ping, 1 command
    with params and 1 telemetry frame (both full-parse fallbacks)."""
    kernel, (sender, _receiver), seen = _bus(4, ("mix-a", "mix-b"))
    seq = [0]

    def run() -> int:
        before = seen[0]
        for i in range(n):
            seq[0] += 1
            slot = i % 10
            if slot < 7:
                sender.send(PingRequest("mix-a", "mbus", seq[0]))
            elif slot < 8:
                sender.send(PingRequest("mix-a", "mix-b", seq[0]))
            elif slot < 9:
                sender.send(COMMAND)
            else:
                sender.send(FRAME)
        kernel.run(until=kernel.now + 5.0)
        if seen[0] - before != n:
            raise RuntimeError("bus mixed driver lost messages")
        return n

    return run


def _station_boot() -> Batch:
    def run() -> int:
        MercuryStation(tree=tree_v(), seed=3).boot()
        return 1

    return run


def _driver_shape() -> Tuple[str, Callable[[int], MercuryStation]]:
    tree = tree_v()
    shape = snap.station_shape("bench-driver", tree, PAPER_CONFIG)

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(tree=tree, config=PAPER_CONFIG, seed=boot_seed)

    return shape, build


def _snapshot_restore(n: int) -> Batch:
    shape, build = _driver_shape()
    snap.warmed_station(shape, build, MercuryStation.boot, 0, snapshot=True)

    def run() -> int:
        for seed in range(1, n + 1):
            snap.warmed_station(shape, build, MercuryStation.boot, seed, snapshot=True)
        return n

    return run


def _template_fetch(n: int) -> Batch:
    shape, build = _driver_shape()
    store = SharedTemplateStore()
    store.publish(shape, snap.warm_template(shape, build, MercuryStation.boot))

    def run() -> int:
        for _ in range(n):
            store.fetch(shape)
        return n

    return run


_SESSION = {"pass": "opal-p42", "azimuth": 143.2, "elevation": 67.9, "frames": 4800}


def _store_save(n: int) -> Batch:
    store = SessionStore()

    def run() -> int:
        for i in range(n):
            store.save_session("ses", float(i), _SESSION)
        return n

    return run


def _store_load(n: int) -> Batch:
    store = SessionStore()
    store.save_session("ses", 0.0, _SESSION)

    def run() -> int:
        for _ in range(n):
            store.load_session("ses")
        return n

    return run


def _idle_shells(ids: Tuple[int, ...]) -> List[FleetShell]:
    return [FleetShell(i, Kernel(seed=i), 0.5) for i in ids]


def _fleet_epochs(shells: int, epochs: int) -> Batch:
    """A fleet of shells that do nothing: pure barrier cost per shell-epoch."""

    def run() -> int:
        FleetKernel(0.5, _idle_shells, range(shells), shards=4).run(0.5 * epochs)
        return shells * epochs

    return run


DRIVERS: Tuple[Driver, ...] = (
    Driver("sim.kernel.dispatch_ns", "ns", 1e9, lambda: _kernel_dispatch(20)),
    Driver("xmlcmd.ping_codec_ns", "ns", 1e9, lambda: _ping_codec(10_000)),
    Driver("xmlcmd.scan_envelope_ns", "ns", 1e9, lambda: _on_wires(scan_envelope, 4_000)),
    Driver("xmlcmd.encode_ns", "ns", 1e9, lambda: _alternating(encode_message, COMMAND, FRAME, 1_000)),
    Driver("xmlcmd.parse_full_ns", "ns", 1e9, lambda: _on_wires(parse_message_full, 400)),
    Driver("bus.ping_roundtrip_us", "us", 1e6, lambda: _bus_ping(1_000)),
    Driver("bus.mixed_msg_us", "us", 1e6, lambda: _bus_mixed(1_000)),
    Driver("mercury.station.boot_ms", "ms", 1e3, _station_boot),
    Driver("experiments.snapshot.restore_ms", "ms", 1e3, lambda: _snapshot_restore(4)),
    Driver("experiments.template_store.fetch_ms", "ms", 1e3, lambda: _template_fetch(4)),
    Driver("mercury.session_store.save_us", "us", 1e6, lambda: _store_save(1_000)),
    Driver("mercury.session_store.load_us", "us", 1e6, lambda: _store_load(1_000)),
    Driver("sim.fleet.epoch_us", "us", 1e6, lambda: _fleet_epochs(32, 100)),
)


def run_drivers() -> Dict[str, Dict[str, float]]:
    """Time every driver; ``{metric: {"value": median, "iqr": q3 - q1}}``."""
    report: Dict[str, Dict[str, float]] = {}
    for driver in DRIVERS:
        batch = driver.make()
        batch()  # warm caches and lazy paths outside the timed repetitions
        timer = calibrate.SliceTimer()
        timer.open()
        ops = [timer.run(batch) for _ in range(REPS)]
        per_op = [driver.scale * cal_s / n for cal_s, n in zip(timer.cal_s, ops)]
        q1, median, q3 = calibrate.quartiles(per_op)
        report[driver.metric] = {"value": median, "iqr": q3 - q1}
    snap.clear_templates()
    return report
