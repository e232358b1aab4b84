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
  own boot procedure.  Later cells restore a structural :func:`fork` of
  the template: the object graph ``copy.deepcopy`` would build, with the
  object layout a boot builds (the station graph was scrubbed of closure
  captures and ``id()``-keyed maps so the copy is exact).  The benchmark
  ledger (``bench/run.py --trace 1``) prices a tree-V restore at
  ``experiments.snapshot.restore_ms`` ≈ 0.7 against
  ``mercury.station.boot_ms`` ≈ 2.6 for a fresh boot.
* Each restored station is then re-rooted onto the cell's own seed with
  :meth:`~repro.sim.rng.RngRegistry.rebase`, so from the warm point on its
  randomness is a pure function of the cell seed — exactly as if the cell
  had booted alone.

Bit-identity contract: ``snapshot=False`` on an experiment entry point
runs the same sequence minus the cache — build with the shape's boot seed,
warm, rebase.  The only difference is a fork versus re-executing a
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

import copyreg
import dataclasses
import hashlib
import json
import types
import weakref
from typing import Any, Callable, Dict, Tuple, Union

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


# ----------------------------------------------------------------------
# the fork: deepcopy's semantics, boot's object layout
# ----------------------------------------------------------------------

#: Types a fork returns as themselves: ``copy.deepcopy``'s atomic set.
_ATOMIC = frozenset({
    type(None), type(Ellipsis), type(NotImplemented), int, float, bool,
    complex, bytes, str, type, range, property, weakref.ref,
    types.CodeType, types.BuiltinFunctionType, types.FunctionType,
})

#: Class attributes that take an instance off the plain path: a copy or
#: pickle hook, or an attribute lookup that could answer for one.
_HOOKS = frozenset({
    "__deepcopy__", "__reduce_ex__", "__reduce__", "__getstate__",
    "__setstate__", "__getnewargs__", "__getnewargs_ex__", "__getattr__",
    "__getattribute__",
})

_HEAPTYPE = 1 << 9  # Py_TPFLAGS_HEAPTYPE: a class defined in Python

#: How a plain class's instances are rebuilt: ``(has __dict__, slot
#: names, data-descriptor names)``.
_Recipe = Tuple[bool, Tuple[str, ...], frozenset]

#: Per class, decided on first sight: its recipe, or False when its
#: instances take the ``__reduce_ex__(4)`` path.
_RECIPES: Dict[type, Union[_Recipe, bool]] = {}

_nil: list = []


def _recipe(cls: type) -> Union[_Recipe, bool]:
    """The recipe for ``cls`` if its instances are *plain* — every class
    on the MRO but ``object`` defined in Python, none with a copy or
    pickle hook — else False.  A plain instance is exactly what
    ``object.__reduce_ex__(4)`` describes: ``cls.__new__(cls)`` plus its
    ``__dict__`` and its set slots."""
    if cls in copyreg.dispatch_table or issubclass(cls, type):
        return False
    descriptors = set()
    for base in cls.__mro__[:-1]:
        if not base.__flags__ & _HEAPTYPE or not _HOOKS.isdisjoint(vars(base)):
            return False
        for name, attr in vars(base).items():
            kind = type(attr)
            if hasattr(kind, "__set__") or hasattr(kind, "__delete__"):
                descriptors.add(name)
    # Every class's own ``__dict__`` / ``__weakref__`` getters: never a key.
    descriptors -= {"__dict__", "__weakref__"}
    return cls.__dictoffset__ != 0, tuple(copyreg._slotnames(cls)), frozenset(descriptors)


def fork(original: Any) -> Any:
    """A structural copy of ``original`` that matches ``copy.deepcopy``
    object for object, and keeps the object layout a fresh build has.

    Everything deepcopy does, the fork does the same way: one memo shared
    with every ``__deepcopy__`` hook, the ``__reduce_ex__(4)`` protocol,
    tuples kept when no item changed, bound methods rebound to the copied
    ``self``, classes and functions atomic, and every copied original and
    reduce temporary kept alive in the memo until the copy is done.

    The one difference is how a *plain* instance (:func:`_recipe`) gets
    its state.  deepcopy runs ``y.__dict__.update(state)``, which on
    CPython 3.11+ gives every copy a materialized ``__dict__``, so every
    attribute read on it takes the dict path.  The fork sets the
    attributes one by one on ``cls.__new__(cls)``, in the original's
    insertion order, so they stay inline values as after ``__init__``.  A
    key that names a data descriptor on the class would run the
    descriptor instead, so that key alone goes through the dict.
    """
    memo: Dict[int, Any] = {}
    keep: list = []
    memo[id(memo)] = keep
    atomic = _ATOMIC
    recipes = _RECIPES
    new_attr = object.__setattr__

    def copy(x: Any) -> Any:
        cls = type(x)
        if cls in atomic:
            return x
        key = id(x)
        y = memo.get(key, _nil)
        if y is not _nil:
            return y
        if cls is dict:
            y = memo[key] = {}
            for k, v in x.items():
                y[k if type(k) in atomic else copy(k)] = (
                    v if type(v) in atomic else copy(v)
                )
        elif cls is list:
            y = memo[key] = []
            append = y.append
            for v in x:
                append(v if type(v) in atomic else copy(v))
        elif cls is tuple:
            y = [v if type(v) in atomic else copy(v) for v in x]
            if key in memo:  # reached again through one of its items
                y = memo[key]
            else:
                for a, b in zip(x, y):
                    if a is not b:
                        y = tuple(y)
                        break
                else:
                    y = x
        else:
            recipe = recipes.get(cls)
            if recipe is None:
                recipe = recipes[cls] = _recipe(cls)
            if recipe:
                has_dict, slots, descriptors = recipe
                y = memo[key] = cls.__new__(cls)
                if has_dict and not descriptors:
                    for k, v in x.__dict__.items():
                        new_attr(y, k, v if type(v) in atomic else copy(v))
                elif has_dict:
                    for k, v in x.__dict__.items():
                        if type(v) not in atomic:
                            v = copy(v)
                        if k in descriptors:
                            y.__dict__[k] = v
                        else:
                            new_attr(y, k, v)
                for name in slots:
                    try:
                        v = getattr(x, name)
                    except AttributeError:
                        continue
                    setattr(y, name, v if type(v) in atomic else copy(v))
            elif cls is types.MethodType:
                y = cls(x.__func__, copy(x.__self__))
            elif issubclass(cls, type):
                return x
            else:
                hook = getattr(x, "__deepcopy__", None)
                y = hook(memo) if hook is not None else reduce(x, cls, key)
        if y is not x:
            memo[key] = y
            keep.append(x)
        return y

    def reduce(x: Any, cls: type, key: int) -> Any:
        # ``copy._reconstruct`` over the fork's memo.
        reductor = copyreg.dispatch_table.get(cls)
        rv = reductor(x) if reductor is not None else x.__reduce_ex__(4)
        if isinstance(rv, str):
            return x
        func, args, state, listiter, dictiter = (rv + (None,) * 3)[:5]
        y = memo[key] = func(*[copy(arg) for arg in args])
        if state is not None:
            state = copy(state)
            if hasattr(y, "__setstate__"):
                y.__setstate__(state)
            else:
                slotstate = None
                if isinstance(state, tuple) and len(state) == 2:
                    state, slotstate = state
                if state is not None:
                    y.__dict__.update(state)
                if slotstate is not None:
                    for name, value in slotstate.items():
                        setattr(y, name, value)
        if listiter is not None:
            for item in listiter:
                y.append(copy(item))
        if dictiter is not None:
            for k, v in dictiter:
                k = copy(k)
                y[k] = copy(v)
        return y

    return copy(original)


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

    Callers must not mutate the returned station; restore a :func:`fork`
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

    The first call per shape boots a template and later calls :func:`fork`
    it; with ``snapshot=False`` the call builds and warms afresh.  Both
    paths boot under :func:`boot_seed` and end with
    ``rngs.rebase(cell_seed)``, so the returned station is bit-identical
    either way.
    """
    if snapshot:
        station = fork(warm_template(shape, build, warm))
    else:
        station = build(boot_seed(shape))
        warm(station)
    station.kernel.rngs.rebase(cell_seed)
    return station
