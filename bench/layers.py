"""Per-layer attribution of a traced pass.

The traced run wraps each work slice in ``cProfile`` and folds every
frame's self time into the layer that owns its module.  Builtins are not
profiled, so their time already sits in their caller's self time; frames of
the standard library (``copy``, ``pickle``, ``json``, ``re``) belong to no
layer and are charged to whichever layer called them, through the profiler's
caller edges: a ``deepcopy`` issued by the snapshot module is snapshot time,
a ``str.find`` issued by the codec is codec time.  In span terms: a span opens when control enters a layer's
function from outside that layer, and a layer's self time is its spans'
duration minus the child spans of other layers.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Layer names, in report order.  ``other`` is everything in ``repro`` not
#: named here (chaos observers, analysis, cli) plus the benchmark's own
#: frames; it is reported so the shares sum to one.
LAYERS: Tuple[str, ...] = (
    "sim.kernel",
    "sim.fleet",
    "obs",
    "xmlcmd",
    "transport",
    "bus",
    "components",
    "procmgr",
    "detection.detector",
    "detection.abstract",
    "core",
    "mercury.station",
    "mercury.session_store",
    "faults",
    "workload",
    "experiments.snapshot",
    "experiments",
    "other",
)

#: Most specific prefix first: (path under ``repro/``, layer).
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/fleet.py", "sim.fleet"),
    ("sim/trace.py", "obs"),
    ("sim/", "sim.kernel"),
    ("obs/", "obs"),
    ("xmlcmd/", "xmlcmd"),
    ("transport/", "transport"),
    ("bus/", "bus"),
    ("components/", "components"),
    ("mercury/components/", "components"),
    ("procmgr/", "procmgr"),
    ("detection/detector.py", "detection.detector"),
    ("detection/abstract.py", "detection.abstract"),
    ("core/", "core"),
    ("mercury/session_store.py", "mercury.session_store"),
    ("mercury/", "mercury.station"),
    ("faults/", "faults"),
    ("workload/", "workload"),
    ("experiments/snapshot.py", "experiments.snapshot"),
    ("experiments/template_store.py", "experiments.snapshot"),
    ("experiments/", "experiments"),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None for stdlib and builtin frames."""
    at = filename.rfind(_REPRO_MARK)
    if at >= 0:
        inner = filename[at + len(_REPRO_MARK) :].replace(os.sep, "/")
        for prefix, layer in _PREFIXES:
            if inner.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(_BENCH_DIR):
        return "other"
    return None


def _code_layer(code: Any) -> Optional[str]:
    # Builtins appear as plain strings ("<built-in method ...>").
    return None if isinstance(code, str) else layer_of(code.co_filename)


def attribute(stats: Sequence[Any]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer totals.

    Returns ``(self_seconds, calls)`` keyed by layer.  ``calls`` counts
    entries into a layer's functions from outside the layer (spans
    opened); it depends only on the simulated work, so it repeats exactly
    from run to run.
    """
    layer: Dict[Any, Optional[str]] = {e.code: _code_layer(e.code) for e in stats}
    seconds = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}

    # Incoming edges of unlayered callees: callee -> [(caller, weight, self)].
    incoming: Dict[Any, List[Tuple[Any, float, float]]] = {}
    for entry in stats:
        own = layer[entry.code]
        if own is not None:
            seconds[own] += entry.inlinetime
            calls[own] += entry.callcount
        for edge in entry.calls or ():
            callee_layer = layer.get(edge.code)
            if callee_layer is None:
                weight = edge.totaltime if edge.totaltime > 0 else 1e-12
                incoming.setdefault(edge.code, []).append(
                    (entry.code, weight, edge.inlinetime)
                )
            elif callee_layer == own:
                calls[own] -= edge.callcount

    # Who is responsible for an unlayered function?  A distribution over
    # layers, mixed from its callers' by cumulative edge time.  Unlayered
    # callers (deepcopy recursing through copy.py) make this a small
    # linear system; a few sweeps converge because every chain ends in a
    # layered frame.
    unknown = {"other": 1.0}
    owners: Dict[Any, Dict[str, float]] = {}

    def responsible(code: Any) -> Dict[str, float]:
        own = layer.get(code)
        return {own: 1.0} if own is not None else owners.get(code, unknown)

    for _sweep in range(12):
        for code, edges in incoming.items():
            total = sum(weight for _, weight, _ in edges)
            mix: Dict[str, float] = {}
            for caller, weight, _ in edges:
                for name, part in responsible(caller).items():
                    mix[name] = mix.get(name, 0.0) + part * weight / total
            owners[code] = mix

    for edges in incoming.values():
        for caller, _, self_time in edges:
            for name, part in responsible(caller).items():
                seconds[name] += self_time * part
    # Unlayered roots (no caller recorded): nothing to charge them to.
    for entry in stats:
        if layer[entry.code] is None and entry.code not in incoming:
            seconds["other"] += entry.inlinetime
    return seconds, calls


def shares(seconds: Dict[str, float]) -> Dict[str, float]:
    """Layer seconds as shares of their sum."""
    total = sum(seconds.values())
    return {name: (value / total if total else 0.0) for name, value in seconds.items()}
