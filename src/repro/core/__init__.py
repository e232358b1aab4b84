"""Recursive restartability: the paper's primary contribution.

This package is deliberately independent of the Mercury model — it knows
nothing about ground stations.  It provides:

* :mod:`repro.core.tree` — restart cells, restart trees, restart groups
  (§3.1–3.2): the hierarchy of restartable units, where "pushing the button"
  on a cell restarts every component in its subtree;
* :mod:`repro.core.transformations` — the three tree transformations of §4:
  depth augmentation, group consolidation, and node promotion (plus
  component splitting for subtree depth augmentation), with the
  applicability guidance of Table 3 encoded as data;
* :mod:`repro.core.oracle` — the restart policy's brain (§3.3): perfect,
  naive, faulty (guess-too-low with tunable error rate) and learning
  oracles;
* :mod:`repro.core.policy` — episode tracking, escalation up the tree, and
  restart budgets that stop infinite restarting of hard failures (§2.2);
* :mod:`repro.core.recovery_engine` — the one episode machine (decide,
  restart, observe, escalate) both supervisors drive;
* :mod:`repro.core.recoverer` — REC: the FD↔REC control-channel front end
  that feeds the engine and coordinates with the failure detector;
* :mod:`repro.core.analysis` — the analytic MTTF/MTTR reasoning of
  §3.2/§4.1 (group bounds, expected-MTTR sums, availability);
* :mod:`repro.core.render` — ASCII rendering of restart trees in the style
  of the paper's figures.
"""

from repro.core.tree import RestartCell, RestartTree
from repro.core.transformations import (
    TRANSFORMATION_CATALOG,
    Transformation,
    consolidate_groups,
    depth_augment,
    insert_joint_node,
    promote_component,
    replace_component,
)
from repro.core.oracle import (
    FaultyOracle,
    LearningOracle,
    NaiveOracle,
    Oracle,
    PerfectOracle,
)
from repro.core.policy import RestartDecision, RestartPolicy
from repro.core.optimizer import (
    ComponentParams,
    OptimizationResult,
    ResyncPair,
    SystemModel,
    mercury_system_model,
    optimize_tree,
)
from repro.core.procedures import (
    ProcedureMap,
    RecoveryProcedure,
    RestartProcedure,
    WarmRecoveryProcedure,
)
from repro.core.recoverer import RecoveryModule
from repro.core.recovery_engine import RecoveryEngine
from repro.core.rejuvenation import RejuvenationScheduler, no_pass_imminent
from repro.core.analysis import (
    availability,
    expected_group_mttr,
    group_mttf_bound,
    group_mttr_bound,
    minimal_curing_cell,
    predict_recovery_time,
)
from repro.core.render import render_tree

__all__ = [
    "ComponentParams",
    "FaultyOracle",
    "OptimizationResult",
    "ResyncPair",
    "SystemModel",
    "mercury_system_model",
    "optimize_tree",
    "LearningOracle",
    "NaiveOracle",
    "Oracle",
    "PerfectOracle",
    "ProcedureMap",
    "RecoveryEngine",
    "RecoveryModule",
    "RecoveryProcedure",
    "RestartProcedure",
    "WarmRecoveryProcedure",
    "RejuvenationScheduler",
    "RestartCell",
    "RestartDecision",
    "RestartPolicy",
    "RestartTree",
    "TRANSFORMATION_CATALOG",
    "Transformation",
    "availability",
    "consolidate_groups",
    "depth_augment",
    "expected_group_mttr",
    "group_mttf_bound",
    "group_mttr_bound",
    "insert_joint_node",
    "minimal_curing_cell",
    "no_pass_imminent",
    "predict_recovery_time",
    "promote_component",
    "render_tree",
    "replace_component",
]
