"""Warmed-station snapshot/fork: boot once per shape, restore per cell.

Booting a Mercury station — spawning processes, attaching components to the
bus, settling the first ping round — costs an order of magnitude more than
any single campaign cell's useful work in the fast experiment kinds.  Every
cell used to pay it.  This module makes boot a per-*shape* cost instead:

* A **shape** is everything that determines the warmed image except the
  seed: experiment kind, tree structure, station config, oracle spec,
  supervisor kind, fault-model switches (:func:`station_shape`).
* The first cell of a shape builds a **template**: a station constructed
  with the shape-derived :func:`boot_seed` and warmed by the experiment's
  own boot procedure.  Later cells restore a structural ``deepcopy`` of
  the template (~6x cheaper than booting; the station graph was scrubbed
  of closure captures and ``id()``-keyed maps so the copy is exact).
* Each restored station is then re-rooted onto the cell's own seed with
  :meth:`~repro.sim.rng.RngRegistry.rebase`, so from the warm point on its
  randomness is a pure function of the cell seed — exactly as if the cell
  had booted alone.

Bit-identity contract: ``snapshot=False`` on an experiment entry point
runs the same sequence minus the cache — build with the shape's boot seed,
warm, rebase.  The only difference is ``deepcopy`` versus re-executing a
deterministic boot, so traces, results, and campaign cache keys are
bit-identical either way (``make check-determinism`` holds the gate), and
serial runs agree with process-pool runs because every worker process
grows the same per-process template cache from the same pure inputs.

Restoring is the only path a running system takes on its own: the fresh
boot is selected by an input the template cannot represent (an oracle
*instance*) or by a test or gate leg passing ``snapshot=False`` as the
reference — never by the environment.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict

from repro.core.tree import RestartTree
from repro.mercury.config import StationConfig
from repro.mercury.station import MercuryStation
from repro.sim.rng import derive_seed


def config_fingerprint(config: StationConfig) -> str:
    """Short stable hash of every field of a station config."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def tree_fingerprint(tree: RestartTree) -> str:
    """Structural hash of a restart tree (label alone is not enough for
    ad hoc trees built by the transformation benches)."""
    from repro.core.render import render_tree

    payload = f"{tree.name}\n{render_tree(tree)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def station_shape(kind: str, tree: RestartTree, config: StationConfig, **params: Any) -> str:
    """Canonical identity of a warmed station image, seed excluded.

    ``params`` carries the experiment's remaining construction switches
    (oracle spec, error rates, supervisor kind, net faults, ...).  Two
    cells with equal shapes are interchangeable up to a seed rebase.
    """
    identity = {
        "kind": kind,
        "tree": tree_fingerprint(tree),
        "config": config_fingerprint(config),
        "params": {key: str(value) for key, value in sorted(params.items())},
    }
    return hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode("utf-8")
    ).hexdigest()


def boot_seed(shape: str) -> int:
    """The seed a shape's template boots under — a pure function of the
    shape, so snapshot-on, snapshot-off, serial, and parallel runs all boot
    identical stations before the per-cell rebase."""
    return derive_seed(0, f"snapshot-boot:{shape}")


#: Per-process template cache.  Worker processes each grow their own from
#: the same pure inputs, so the cache never needs to cross a pickle
#: boundary and parallel runs stay bit-identical to serial ones.
_TEMPLATES: Dict[str, MercuryStation] = {}


def clear_templates() -> None:
    """Drop every cached template (tests; long-lived drivers with many
    one-off shapes)."""
    _TEMPLATES.clear()


def template_count() -> int:
    """Number of warmed templates cached in this process."""
    return len(_TEMPLATES)


def warm_template(
    shape: str,
    build: Callable[[int], MercuryStation],
    warm: Callable[[MercuryStation], None],
) -> MercuryStation:
    """The live warmed template for ``shape`` — built (or unpickled from a
    published blob) on first use, cached per process after that.

    Callers must not mutate the returned station; restore a ``deepcopy``
    via :func:`warmed_station` instead.  Exposed so drivers can read
    template facts (e.g. the fleet anchors its epoch schedule on the
    template's warm-point clock) without paying a restore.
    """
    template = _TEMPLATES.get(shape)
    if template is None:
        # Shared-store hit: another process already paid the boot and
        # published the warmed image; one unpickle replaces it.  The
        # store is a pure amortization — blob-restored templates are
        # bit-identical to built ones (test_template_store.py).
        from repro.experiments.template_store import STORE

        template = STORE.fetch(shape)
        if template is None:
            template = build(boot_seed(shape))
            warm(template)
        _TEMPLATES[shape] = template
    return template


def publish_template(
    shape: str,
    build: Callable[[int], MercuryStation],
    warm: Callable[[MercuryStation], None],
) -> None:
    """Warm the shape's template and publish it to the shared store.

    Campaign parents call this *before* process fan-out so workers restore
    from the pickle-once blob instead of each paying a boot.  Idempotent:
    an already-published shape costs one dict lookup.
    """
    from repro.experiments.template_store import STORE

    if STORE.has(shape):
        return
    STORE.publish(shape, warm_template(shape, build, warm))


def warmed_station(
    shape: str,
    build: Callable[[int], MercuryStation],
    warm: Callable[[MercuryStation], None],
    cell_seed: int,
    snapshot: bool = True,
) -> MercuryStation:
    """Return a warmed station re-rooted onto ``cell_seed``.

    ``build(seed)`` constructs the (unbooted) station; ``warm(station)``
    runs the experiment's boot procedure.  Both must be pure functions of
    their arguments and the shape — nothing cell-specific, no sinks
    attached (sinks hold open files and observers that must not leak
    between cells; attach them to the returned station instead).

    The first call per shape boots a template and later calls ``deepcopy``
    it; with ``snapshot=False`` the call builds and warms afresh.  Both
    paths boot under :func:`boot_seed` and end with
    ``rngs.rebase(cell_seed)``, so the returned station is bit-identical
    either way.
    """
    if snapshot:
        station = copy.deepcopy(warm_template(shape, build, warm))
    else:
        station = build(boot_seed(shape))
        warm(station)
    station.kernel.rngs.rebase(cell_seed)
    return station
