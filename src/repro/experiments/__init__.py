"""The experiment harness.

One module per experiment family, mirroring the paper's evaluation:

* :mod:`repro.experiments.recovery` — kill-and-measure recovery trials
  (Tables 2 and 4, the §4.2–4.4 text numbers);
* :mod:`repro.experiments.lifetimes` — long-run observed MTTFs (Table 1);
* :mod:`repro.experiments.availability` — steady-state availability per
  tree (the §8 "factor of four" framing);
* :mod:`repro.experiments.passes_experiment` — satellite-pass data loss
  (§5.2, "not all downtime is the same");
* :mod:`repro.experiments.metrics` — uptime/interval accounting shared by
  the above;
* :mod:`repro.experiments.report` — paper-style table formatting;
* :mod:`repro.experiments.runner` — the parallel campaign runner every
  multi-cell experiment fans out through (deterministic hash-derived
  seeds, process pool, content-addressed result cache), and ``KINDS``,
  the one table that says what each campaign kind runs, reads and hashes;
* :mod:`repro.experiments.fleet` — fleet-scale campaigns on the sharded
  :mod:`repro.sim.fleet` kernel: availability, MTTR, and session loss vs
  fleet size under correlated ground-segment fault waves;
* :mod:`repro.experiments.snapshot` /
  :mod:`repro.experiments.template_store` — warmed-station templates
  (fork + RNG rebase per cell) shared across worker processes as
  pickle-once blobs.
"""

from repro.experiments.metrics import RecoveryStats, UptimeTracker
from repro.experiments.recovery import (
    RecoveryResult,
    measure_recovery,
    measure_recovery_row,
)
from repro.experiments.report import format_table
from repro.experiments.runner import (
    KINDS,
    CampaignCell,
    campaign_seed,
    run_campaign,
    run_recovery_matrix,
    run_suite,
)

__all__ = [
    "KINDS",
    "CampaignCell",
    "RecoveryResult",
    "RecoveryStats",
    "UptimeTracker",
    "campaign_seed",
    "format_table",
    "measure_recovery",
    "measure_recovery_row",
    "run_campaign",
    "run_recovery_matrix",
    "run_suite",
]
