"""Recursive recovery (§7): custom procedures for hard-state components.

The paper defers hard state to future work: "each component is recovered
using a custom procedure; restart is just one example of a recovery
procedure.  An example of where the general model is needed would be
complex e-business infrastructures, that combine storage services with
databases, application servers, and web servers."

This example builds exactly that stack — web / app / db — where the
database has hard state: a cold restart replays its log (25 s), while a
*warm* recovery restores the latest checkpoint (3 s).  We supervise it
twice:

1. pure recursive **restartability** — every button is a cold restart;
2. recursive **recovery** — the db cell's button runs the checkpoint
   procedure, escalating to the cold parent restart only when the warm
   path fails to cure (simulated corrupted-checkpoint failures).

Run with::

    python examples/recursive_recovery.py
"""

from repro.core import (
    NaiveOracle,
    ProcedureMap,
    RestartPolicy,
    RestartTree,
    WarmRecoveryProcedure,
    render_tree,
)
from repro.core.tree import cell
from repro.detection.abstract import AbstractSupervisor
from repro.faults.injector import FaultInjector
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, StartupContext
from repro.sim.kernel import Kernel

DB_COLD_S = 25.0   # log replay
DB_WARM_S = 3.0    # checkpoint restore


def db_work(context: StartupContext) -> float:
    return DB_WARM_S if context.hint == "warm" else DB_COLD_S


def build(procedures, seed):
    kernel = Kernel(seed=seed)
    manager = ProcessManager(kernel, contention_coefficient=0.05)
    manager.spawn(ProcessSpec("web", lambda ctx: 1.5))
    manager.spawn(ProcessSpec("app", lambda ctx: 4.0))
    manager.spawn(ProcessSpec("db", db_work))
    manager.start_all()
    kernel.run()
    tree = RestartTree(
        cell("R_service", children=[
            cell("R_web", ["web"]),
            cell("R_app", ["app"]),
            cell("R_db", ["db"]),
        ]),
        name="ebiz",
    )
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(tree, NaiveOracle())
    AbstractSupervisor(
        kernel, manager, policy, monitored=["web", "app", "db"],
        procedures=procedures,
    )
    return kernel, manager, injector, tree


def run_campaign(procedures, label, seed=17, trials=12):
    kernel, manager, injector, tree = build(procedures, seed)
    rng = kernel.rngs.stream("example.faults")
    total_downtime = 0.0
    for index in range(trials):
        kernel.run(until=kernel.now + 10.0)
        # Every 4th db failure corrupted the checkpoint: only the cold
        # restart (via escalation to the service cell... here the db's own
        # cold path is the root's) cures it.
        if index % 4 == 3:
            failure = injector.inject_joint("db", ["db", "app"])
        else:
            failure = injector.inject_simple("db")
        start = kernel.now
        # Event-driven wait: the predicate is re-read only at lifecycle
        # transitions (ProcessManager wakes the kernel), not per event.
        kernel.run_until(
            lambda: not injector.is_active(failure.failure_id)
            and manager.all_running(),
            until=start + 300.0,
        )
        total_downtime += kernel.now - start
    print(f"{label:<42} total db-failure downtime: {total_downtime:7.1f} s "
          f"({trials} failures)")
    return total_downtime


def main() -> None:
    tree_text = render_tree(
        RestartTree(
            cell("R_service", children=[
                cell("R_web", ["web"]), cell("R_app", ["app"]), cell("R_db", ["db"]),
            ]),
            name="ebiz",
        )
    )
    print("The e-business stack and its restart tree:\n")
    print(tree_text)
    print(f"\ndb cold restart (log replay):      {DB_COLD_S:.0f} s")
    print(f"db warm recovery (checkpoint):     {DB_WARM_S:.0f} s")
    print("1 in 4 db failures corrupts the checkpoint (warm cannot cure)\n")

    cold = run_campaign(ProcedureMap(), "recursive restartability (all cold)")
    warm = run_campaign(
        ProcedureMap().assign("R_db", WarmRecoveryProcedure()),
        "recursive recovery (db: checkpoint restore)",
    )
    print(
        f"\nCustom recovery procedures cut db-failure downtime "
        f"{cold / warm:.1f}x; the corrupted-checkpoint failures still "
        f"recover, because escalation falls back to the cold restart."
    )


if __name__ == "__main__":
    main()
