"""Curability profiles: the paper's ``f_ci`` probabilities.

For a restart group, the paper defines ``f_ci`` as "the probability that a
manifested failure in G is minimally c_i-curable" (§4.1), and drives every
tree transformation decision off these values: depth augmentation when
``f_A + f_B > 0``, consolidation when ``f_A + f_B << f_AB``, promotion when
correlated behaviour is asymmetric.

A :class:`CurabilityProfile` maps a *manifest* component to a distribution
over cure sets.  Injectors draw from it to build
:class:`~repro.faults.failure.FailureDescriptor` instances, so an experiment
can dial, e.g., "30 % of pbcom-manifest failures are only jointly curable".
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import FaultModelError
from repro.faults.failure import FailureDescriptor
from repro.types import SimTime

#: One weighted cure alternative: (probability, cure set).
CureAlternative = Tuple[float, FrozenSet[str]]


class CurabilityProfile:
    """Distribution over minimal cure sets, per manifest component."""

    def __init__(self) -> None:
        self._alternatives: Dict[str, List[CureAlternative]] = {}

    def set_simple(self, component: str) -> "CurabilityProfile":
        """All failures manifesting in ``component`` are self-curable."""
        return self.set_alternatives(component, [(1.0, frozenset([component]))])

    def set_alternatives(
        self, component: str, alternatives: Sequence[Tuple[float, Iterable[str]]]
    ) -> "CurabilityProfile":
        """Define the cure-set distribution for ``component``.

        ``alternatives`` is a sequence of ``(probability, cure_components)``
        pairs; probabilities must sum to 1 (within tolerance) and every cure
        set must include the manifest component, because a failure that does
        not require restarting the component it silenced is inexpressible in
        the fail-silent model.
        """
        normalised: List[CureAlternative] = []
        total = 0.0
        for probability, components in alternatives:
            if probability < 0:
                raise FaultModelError(f"negative probability {probability!r}")
            cure = frozenset(components)
            if component not in cure:
                raise FaultModelError(
                    f"cure set {set(cure)!r} for {component!r} must include it"
                )
            total += probability
            normalised.append((probability, cure))
        if abs(total - 1.0) > 1e-9:
            raise FaultModelError(
                f"cure probabilities for {component!r} sum to {total!r}, expected 1"
            )
        self._alternatives[component] = normalised
        return self

    def components(self) -> List[str]:
        """Components this profile can draw failures for."""
        return list(self._alternatives)

    def alternatives_for(self, component: str) -> List[CureAlternative]:
        """The configured (probability, cure set) pairs for ``component``."""
        if component not in self._alternatives:
            raise FaultModelError(f"no curability profile for {component!r}")
        return list(self._alternatives[component])

    def draw(
        self, component: str, rng: random.Random, at: SimTime, kind: str = "crash"
    ) -> FailureDescriptor:
        """Draw a failure manifesting in ``component`` at time ``at``."""
        alternatives = self.alternatives_for(component)
        roll = rng.random()
        cumulative = 0.0
        for probability, cure in alternatives:
            cumulative += probability
            if roll < cumulative:
                return FailureDescriptor(component, cure, at, kind)
        # Floating-point tail: fall through to the last alternative.
        return FailureDescriptor(component, alternatives[-1][1], at, kind)
