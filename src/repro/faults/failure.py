"""Failure descriptors.

Every injected failure carries a :class:`FailureDescriptor` recording where
it manifests and what its *minimal cure set* is — the smallest set of
components that must be restarted together to cure it.  This is the
simulation's ground truth for the paper's "minimally n-curable" notion
(§3.3): a restart action cures the failure iff the set of components it
bounces is a superset of the cure set.

The descriptor is ground truth the *perfect oracle* is allowed to consult
(that is what "perfect" means); the faulty and learning oracles see only the
manifest component, like the real REC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.types import SimTime

_ids = itertools.count(1)

#: Kinds that *crash* the manifest component (SIGKILL-style process death).
CRASH_KINDS = frozenset(
    {
        "crash",  # the default: a simple process death
        "joint",  # needs a joint restart of its cure set
        "chaos",  # injected by a chaos scenario schedule
        "flap",  # rapid repeated kills (flapping scenarios)
        "transient",  # cured by any restart covering it, never re-manifests
        "persistent",  # deliberately mislabelled cure sets (oracle stress)
        "aging",  # resource-leak death after repeated provocations
        "induced-resync",  # induced by a peer's restart (resync coupling)
        "induced-group",  # induced by a correlated failure group member
    }
)

#: Fail-slow kinds: the process stays alive but degrades.  ``hang`` stops
#: answering everything (pings included); ``zombie`` keeps answering FD
#: pings while silently dropping real work, so only end-to-end probes see
#: it.  The injector degrades the process instead of killing it.
FAIL_SLOW_KINDS = frozenset({"hang", "zombie"})

_known_kinds = CRASH_KINDS | FAIL_SLOW_KINDS


@dataclass(frozen=True)
class FailureDescriptor:
    """Ground-truth metadata for one failure instance.

    Attributes
    ----------
    failure_id:
        Unique id, stable across re-manifestations of the same failure.
    manifest_component:
        The component whose process stops responding (what FD reports).
    cure_set:
        Minimal set of components that must restart *together* to cure it.
        Always contains ``manifest_component``.
    injected_at:
        Simulated time of (first) injection.
    kind:
        One of the declared failure kinds (:data:`CRASH_KINDS` |
        :data:`FAIL_SLOW_KINDS`).  Crash kinds kill the process;
        fail-slow kinds (``"hang"``, ``"zombie"``) degrade it in place.
    induced_by:
        For correlation-induced failures, the id of the provoking failure.
    """

    manifest_component: str
    cure_set: FrozenSet[str]
    injected_at: SimTime
    kind: str = "crash"
    induced_by: Optional[int] = None
    failure_id: int = field(default_factory=lambda: next(_ids))

    def __post_init__(self) -> None:
        if self.manifest_component not in self.cure_set:
            raise ValueError(
                f"cure set {set(self.cure_set)!r} must contain the manifest "
                f"component {self.manifest_component!r}"
            )
        if self.kind not in _known_kinds:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; declared kinds are "
                f"{sorted(_known_kinds)}"
            )

    def is_cured_by(self, restarted: FrozenSet[str]) -> bool:
        """Whether restarting exactly ``restarted`` together cures this failure."""
        return self.cure_set <= restarted

    @staticmethod
    def simple(component: str, at: SimTime, kind: str = "crash") -> "FailureDescriptor":
        """A failure cured by restarting only the manifest component."""
        return FailureDescriptor(component, frozenset([component]), at, kind)

    @staticmethod
    def joint(
        component: str, cure_set: FrozenSet[str], at: SimTime, kind: str = "joint"
    ) -> "FailureDescriptor":
        """A failure requiring a joint restart of ``cure_set``."""
        return FailureDescriptor(component, frozenset(cure_set), at, kind)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        cure = "+".join(sorted(self.cure_set))
        return (
            f"failure#{self.failure_id}({self.kind} in {self.manifest_component}, "
            f"cure={cure})"
        )
