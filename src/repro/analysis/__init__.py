"""General-purpose analysis: analytic availability models.

Separate from :mod:`repro.core.analysis` (which reasons about restart
*trees*); this package holds the domain-free alternating-renewal /
Markov-style availability model the paper's §7 points to as future work.
Summary statistics live with their users: :class:`repro.obs.sinks.SummaryStat`
and :class:`repro.experiments.metrics.RecoveryStats`.
"""

from repro.analysis.markov import (
    ComponentModel,
    SeriesSystemModel,
    component_availability,
)

__all__ = [
    "ComponentModel",
    "SeriesSystemModel",
    "component_availability",
]
