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
* :mod:`repro.core.render` — ASCII rendering of restart trees in the style
  of the paper's figures.

The closed-form reasoning about a tree (§3.2 bounds, §4.1/§4.4 expected
recovery, the §7 tree search) is one model built from Mercury's
calibration, so it lives above this package in :mod:`repro.analysis.model`;
no module here imports :mod:`repro.mercury`.
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
from repro.core.recoverer import RecoveryModule
from repro.core.recovery_engine import RecoveryEngine
from repro.core.render import render_tree

__all__ = [
    "FaultyOracle",
    "LearningOracle",
    "NaiveOracle",
    "Oracle",
    "PerfectOracle",
    "RecoveryEngine",
    "RecoveryModule",
    "RestartCell",
    "RestartDecision",
    "RestartPolicy",
    "RestartTree",
    "TRANSFORMATION_CATALOG",
    "Transformation",
    "consolidate_groups",
    "depth_augment",
    "insert_joint_node",
    "promote_component",
    "render_tree",
    "replace_component",
]
