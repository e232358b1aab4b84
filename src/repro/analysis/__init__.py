"""Theory: one analytic model of a restart tree, checked against simulation.

:mod:`repro.analysis.model` composes detection, a contended restart batch
and escalation into one expected per-failure cost, and derives from it the
§4.4 / Table 4 recovery time, the downtime rate the §7 tree search scores
by, the §8 series availability and §5.2's P(failure-free pass).  ``repro
table4`` prints its Table 4 under the measured one; ``repro optimize`` runs
its tree search.  Summary statistics live with their users:
:class:`repro.obs.sinks.SummaryStat` and
:class:`repro.experiments.metrics.RecoveryStats`.
"""

from repro.analysis.model import (
    ComponentParams,
    OptimizationResult,
    ResyncPair,
    SystemModel,
    mercury_system_model,
    neighbor_trees,
    optimize_tree,
)

__all__ = [
    "ComponentParams",
    "OptimizationResult",
    "ResyncPair",
    "SystemModel",
    "mercury_system_model",
    "neighbor_trees",
    "optimize_tree",
]
