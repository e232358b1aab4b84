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
  own boot procedure.  Cells restore a structural :func:`fork` of the
  template: the object graph ``copy.deepcopy`` would build, with the
  object layout a boot builds (the station graph was scrubbed of closure
  captures and ``id()``-keyed maps so the copy is exact).
* The template never changes, so its fork is walked once.  The first
  restore records the walk as a flat :class:`_Plan` (bare instances to
  create, then fills and calls in the walk's post-order, every source an
  index into one slot array), and every later restore replays it: no type
  dispatch, memo or recipe lookup, and no Mersenne state copied for a
  registry stream the rebase reseeds anyway.  The benchmark's isolated
  timing prices a tree-V restore, rebase included, at
  ``experiments.snapshot.restore_ms`` ≈ 0.33 (≈ 0.7 as a fork walk)
  against ``mercury.station.boot_ms`` ≈ 2.0–2.3 for a fresh boot (2-CPU
  container, CPython 3.11).
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
from typing import Any, Callable, Dict, NamedTuple, Set, Tuple, Union

from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.mercury.config import StationConfig
from repro.mercury.station import MercuryStation
from repro.sim.rng import _Stream, derive_seed


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
    return _walk(original)[0]


#: Step kinds of a recorded walk and of a :class:`_Plan`.  ``_FILL`` and
#: ``_HOOK`` occur only in a recording; the plan has the other six.
_ATTRS, _DICT, _LIST, _TUPLE, _CALL, _DO, _FILL, _HOOK = range(8)


def _walk(original: Any) -> Tuple[Any, Dict[int, Any], list, list]:
    """The fork's walk: the copy, its memo, the copies it made bare
    (``cls.__new__(cls)``, ``{}``, ``[]``) in walk order, and its steps.

    A step is noted when its copy is complete, so steps come in post-order.
    Each is ``(kind, copy, names, sources)``: a dict's keys then values, a
    list's or a new tuple's items, a call's function then arguments (a
    bound method built, a reduce call, a reduce's state, item and key
    steps).  A plain instance is noted as ``(_FILL, original, copy,
    recipe)`` and a ``__deepcopy__`` hook's new result as ``(_HOOK,
    original, copy, entries it added to the memo besides its own)``; both
    are resolved by :func:`_compile`, which turns the steps into a
    :class:`_Plan`.
    """
    memo: Dict[int, Any] = {}
    keep: list = []
    memo[id(memo)] = keep
    created: list = []
    steps: list = []
    create = created.append
    step = steps.append
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
            create(y)
            for k, v in x.items():
                y[k if type(k) in atomic else copy(k)] = (
                    v if type(v) in atomic else copy(v)
                )
            step((_DICT, y, None, [*y, *y.values()]))
        elif cls is list:
            y = memo[key] = []
            create(y)
            append = y.append
            for v in x:
                append(v if type(v) in atomic else copy(v))
            step((_LIST, y, None, tuple(y)))
        elif cls is tuple:
            y = [v if type(v) in atomic else copy(v) for v in x]
            if key in memo:  # reached again through one of its items
                y = memo[key]
            else:
                for a, b in zip(x, y):
                    if a is not b:
                        y = tuple(y)
                        step((_TUPLE, y, None, y))
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
                create(y)
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
                step((_FILL, x, y, recipe))
            elif cls is types.MethodType:
                y = cls(x.__func__, copy(x.__self__))
                step((_CALL, y, None, (cls, y.__func__, y.__self__)))
            elif issubclass(cls, type):
                return x
            else:
                hook = getattr(x, "__deepcopy__", None)
                if hook is None:
                    y = reduce(x, cls, key)
                else:
                    size = len(memo)
                    y = hook(memo)
                    if y is not x:
                        step((_HOOK, x, y, len(memo) - size - (key in memo)))
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
        args = [copy(arg) for arg in args]
        y = memo[key] = func(*args)
        step((_CALL, y, None, (func, *args)))
        if state is not None:
            state = copy(state)
            _set_state(y, state)
            step((_DO, None, None, (_set_state, y, state)))
        if listiter is not None:
            items = [_append_items, y]
            for item in listiter:
                item = copy(item)
                y.append(item)
                items.append(item)
            step((_DO, None, None, items))
        if dictiter is not None:
            pairs = [_set_items, y]
            for k, v in dictiter:
                k = copy(k)
                v = copy(v)
                y[k] = v
                pairs += (k, v)
            step((_DO, None, None, pairs))
        return y

    return copy(original), memo, created, steps


def _set_state(y: Any, state: Any) -> None:
    """``copy._reconstruct``'s state step."""
    if hasattr(y, "__setstate__"):
        y.__setstate__(state)
        return
    slotstate = None
    if isinstance(state, tuple) and len(state) == 2:
        state, slotstate = state
    if state is not None:
        y.__dict__.update(state)
    if slotstate is not None:
        for name, value in slotstate.items():
            setattr(y, name, value)


def _append_items(y: Any, *items: Any) -> None:
    """``copy._reconstruct``'s list-items step."""
    for item in items:
        y.append(item)


def _set_items(y: Any, *pairs: Any) -> None:
    """``copy._reconstruct``'s dict-items step: keys and values alternate."""
    pairs = iter(pairs)
    for k in pairs:
        y[k] = next(pairs)


def _set_in_dict(y: Any, name: str, value: Any) -> None:
    # A key that names a data descriptor on the class (see :func:`fork`).
    y.__dict__[name] = value


def _hook_copy(x: Any) -> Any:
    """A ``__deepcopy__`` hook's copy, replayed: the hook took nothing
    from the memo when it was recorded (see :func:`_compile`)."""
    return x.__deepcopy__({})


class _Plan(NamedTuple):
    """A recorded fork of one template, replayed by :func:`_replay`.

    Replay fills one slot array: ``consts`` (what the copy shares with the
    template: atomic values, kept tuples, objects a hook returns as
    themselves), then one bare ``cls.__new__(cls)`` per ``creates`` entry,
    then one slot per producing step (``_TUPLE``, ``_CALL``).  Every source
    a step names is an index into that array.

    Fills run in the walk's post-order, each after its whole subtree,
    where the fork sets each attribute or item as soon as its value is
    copied.  The two differ only for a reduce call, ``__setstate__`` or
    hash that reads a copy still being filled further up a cycle, where
    deepcopy too hands over a half-built object; the snapshot tests hold
    every benchmarked station shape's replay to deepcopy's graph.
    """

    consts: Tuple[Any, ...]
    creates: Tuple[type, ...]
    steps: Tuple[tuple, ...]
    root: int


def _compile(root: Any, memo: Dict[int, Any], created: list, steps: list,
             streams: Set[int]) -> _Plan:
    """Turn a recorded walk into a :class:`_Plan`.

    Registry streams (``streams``: the ids of the template registry's
    ``_Stream`` values) become bare creates: the restore's
    ``rngs.rebase`` seeds every one of them, so their state is not
    copied.  A ``_Stream`` outside the registry, a hook that copies
    through the memo, or a step that would read a slot before it is made
    cannot be replayed, and raises :class:`~repro.errors.ExperimentError`.
    """
    atomic = _ATOMIC

    def held(v: Any) -> Any:  # what the copy holds where the original holds v
        return v if type(v) in atomic else memo.get(id(v), v)

    creates = [type(y) for y in created]
    made = {id(y): n for n, y in enumerate(created)}
    body = []
    for entry in steps:
        kind = entry[0]
        if kind == _FILL:
            _, x, y, (has_dict, slots, descriptors) = entry
            # Builtin ``setattr`` is the fork's ``object.__setattr__`` here,
            # and faster, unless the class defines its own ``__setattr__``.
            generic = type(y).__setattr__ is object.__setattr__
            names, values = [], []
            for k, v in x.__dict__.items() if has_dict else ():
                if k in descriptors:
                    setter = _set_in_dict
                elif generic:
                    names.append(k)
                    values.append(held(v))
                    continue
                else:
                    setter = object.__setattr__
                if names:
                    body.append((_ATTRS, y, tuple(names), values))
                    names, values = [], []
                body.append((_DO, None, None, (setter, y, k, held(v))))
            for name in slots:  # the fork sets slots with ``setattr`` too
                if hasattr(x, name):
                    names.append(name)
                    values.append(held(getattr(x, name)))
            if names:
                body.append((_ATTRS, y, tuple(names), values))
        elif kind == _HOOK:
            _, x, y, borrowed = entry
            if type(x) is _Stream:
                if id(x) not in streams:
                    raise ExperimentError(
                        "a random stream outside the station's registry is "
                        "reachable from the template; rebase would not seed it"
                    )
                made[id(y)] = len(creates)
                creates.append(_Stream)
            elif borrowed:
                raise ExperimentError(
                    f"{type(x).__qualname__}.__deepcopy__ copies through the "
                    "memo; a recorded fork cannot replay it"
                )
            else:
                body.append((_CALL, y, None, (_hook_copy, x)))
        else:
            body.append(entry)

    # Number the slots: a source that is no copy is a constant; a step's
    # result is -1 until its step is reached.
    index = dict.fromkeys(made, -1)
    index.update((id(e[1]), -1) for e in body if e[0] == _TUPLE or e[0] == _CALL)
    consts: list = []
    for entry in body:
        for v in entry[3]:
            if id(v) not in index:
                index[id(v)] = len(consts)
                consts.append(v)
    base = len(consts)
    for key, n in made.items():
        index[key] = base + n
    ready = base + len(creates)
    names_seen: Dict[tuple, tuple] = {}
    plan = []
    for kind, target, names, values in body:
        srcs = tuple([index[id(v)] for v in values])
        if srcs and min(srcs) < 0:
            raise ExperimentError("a recorded fork step reads a slot before it is made")
        if kind == _TUPLE:
            plan.append((kind, srcs))
        elif kind == _CALL or kind == _DO:
            plan.append((kind, srcs[0], srcs[1:]))
        elif kind == _DICT:
            half = len(srcs) // 2
            plan.append((kind, index[id(target)], srcs[:half], srcs[half:]))
        elif kind == _LIST:
            plan.append((kind, index[id(target)], srcs))
        else:
            names = names_seen.setdefault(names, names)
            plan.append((kind, index[id(target)], names, srcs))
        if kind == _TUPLE or kind == _CALL:
            index[id(target)] = ready
            ready += 1
    return _Plan(tuple(consts), tuple(creates), tuple(plan), index[id(root)])


def _replay(plan: _Plan) -> Any:
    """Run a recorded fork: the same objects, filled in the same order,
    without walking the template."""
    slots = list(plan.consts)
    slots += [cls.__new__(cls) for cls in plan.creates]
    get = slots.__getitem__
    produce = slots.append
    for step in plan.steps:
        kind = step[0]
        if kind == _ATTRS:
            y = slots[step[1]]
            for name, n in zip(step[2], step[3]):
                setattr(y, name, slots[n])
        elif kind == _LIST:
            slots[step[1]].extend(map(get, step[2]))
        elif kind == _DICT:
            slots[step[1]].update(zip(map(get, step[2]), map(get, step[3])))
        elif kind == _CALL:
            produce(slots[step[1]](*map(get, step[2])))
        elif kind == _TUPLE:
            produce(tuple(map(get, step[1])))
        else:  # _DO
            slots[step[1]](*map(get, step[2]))
    return slots[plan.root]


def _record(template: MercuryStation) -> Tuple[MercuryStation, _Plan]:
    """Fork ``template`` (the first restore of its shape) and compile the
    walk into the plan every later restore replays."""
    station, memo, created, steps = _walk(template)
    streams = {id(s) for s in template.kernel.rngs._streams.values()}
    return station, _compile(station, memo, created, steps, streams)


#: Per-process template cache.  Worker processes each grow their own from
#: the same pure inputs, so the cache never needs to cross a pickle
#: boundary and parallel runs stay bit-identical to serial ones.
_TEMPLATES: Dict[str, MercuryStation] = {}

#: Beside each template, the plan its first restore recorded.
_PLANS: Dict[str, _Plan] = {}


def clear_templates() -> None:
    """Drop every cached template and plan (tests; long-lived callers with
    many one-off shapes)."""
    _TEMPLATES.clear()
    _PLANS.clear()


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

    Callers must not mutate the returned station; restore a copy via
    :func:`warmed_station` instead.  Exposed so callers can read
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


def _restore(shape: str, template: MercuryStation) -> MercuryStation:
    """A copy of the shape's template: its first restore forks it and
    records the plan, every later one replays the plan."""
    plan = _PLANS.get(shape)
    if plan is not None:
        return _replay(plan)
    station, _PLANS[shape] = _record(template)
    return station


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

    The first call per shape boots a template and forks it, recording the
    fork as a plan; later calls replay the plan.  With ``snapshot=False``
    the call builds and warms afresh.  All paths boot under
    :func:`boot_seed` and end with ``rngs.rebase(cell_seed)``, so the
    returned station is bit-identical either way.
    """
    if snapshot:
        station = _restore(shape, warm_template(shape, build, warm))
    else:
        station = build(boot_seed(shape))
        warm(station)
    station.kernel.rngs.rebase(cell_seed)
    return station
