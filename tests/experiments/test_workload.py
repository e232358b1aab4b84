"""Fault-series campaign cells: determinism contract and the headline results.

The headline regression is Candea & Fox's: on a tree with lone ses/str
cells, a *full restart* turns every crash into a resync cascade (the
recovered side's fresh handshake fells its peer), so its user-visible
loss is far worse than microreboot's even though their per-episode MTTRs
are in the same band.  The same cell without traffic (what
``strategy-compare`` runs) pins the session-loss contract that motivates
the strategy registry: under the same seed and failure schedule, a cold
restart of the ``ses``/``str`` pair loses the externalised sync session
while a microreboot restores it.  The determinism pins hold the other
contract: a cell's ledger is a pure function of its seed — identical
across boot modes, bus decode paths, and campaign execution layouts.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import cache_key, execute_cell, plan_cell, run_suite
from repro.experiments.snapshot import clear_templates
from repro.experiments.workload import (
    FAILURE_KINDS,
    WorkloadCellResult,
    run_workload_cell,
)
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.session_store import SessionStore
from repro.mercury.trees import TREE_BUILDERS
from repro.transport.network import Network
from repro.workload.generator import WorkloadSpec
from repro.xmlcmd.fastpath import Wire
from tests.differential import REFERENCES

#: The pinned regression cell: tree III keeps ses and str in lone leaf
#: groups, so full restart's resync cascade is maximally user-visible.
CELL = dict(
    failure_kind="crash",
    failures=2,
    seed=11,
    spec=WorkloadSpec(session_rate=8.0),
    warmup_s=2.0,
    cooldown_s=2.0,
)


def _cell(strategy: str, **overrides):
    kwargs = {**CELL, **overrides}
    return run_workload_cell(TREE_BUILDERS["III"](), strategy, **kwargs)


@pytest.fixture(scope="module")
def loss_cells():
    return {strategy: _cell(strategy) for strategy in ("restart", "microreboot")}


def test_cells_recover_without_violations(loss_cells):
    for strategy, cell in loss_cells.items():
        assert cell.ok, f"{strategy}: {cell.violations}"
        assert len(cell.mttr_samples) == 2
        effects = cell.user_effects
        assert effects.sessions_started > 100
        assert (
            effects.sessions_completed + effects.sessions_abandoned
            == effects.sessions_started
        )


def test_microreboot_beats_restart_on_user_visible_loss(loss_cells):
    """The Candea & Fox result, in user-request terms.

    Restart's cold bounce of ses (or str) announces a fresh sync session
    and fells the surviving peer — one fault, two outages, both on
    user-facing services.  Microreboot restores the externalised session
    and skips the announce, so the user only ever sees the original
    episode.
    """
    restart = loss_cells["restart"].user_effects
    microreboot = loss_cells["microreboot"].user_effects
    # Strictly fewer surfaced errors, abandoned chain steps, and dead
    # sessions — not a rounding-level difference but a multiple.
    assert microreboot.requests_failed < restart.requests_failed
    assert microreboot.lost_requests < restart.lost_requests
    assert microreboot.sessions_abandoned < restart.sessions_abandoned
    assert microreboot.session_loss_ratio < 0.5 * restart.session_loss_ratio
    # The session-store ledger tells the mechanism: restart drops the
    # externalised sync sessions (one per cascade round), microreboot
    # restores every one.
    assert loss_cells["restart"].sessions_lost >= 1
    assert loss_cells["microreboot"].sessions_lost == 0
    # And the win is not bought with slower recovery elsewhere: every
    # loss above happens while MTTRs stay in the same band.
    assert loss_cells["microreboot"].stats.mean <= loss_cells["restart"].stats.mean


def test_same_seed_is_bit_identical(loss_cells):
    again = _cell("microreboot")
    assert json.dumps(again.to_payload(), sort_keys=True) == json.dumps(
        loss_cells["microreboot"].to_payload(), sort_keys=True
    )


def test_snapshot_restore_matches_fresh_boot(loss_cells):
    clear_templates()
    try:
        fresh = _cell("microreboot", snapshot=False)
    finally:
        clear_templates()
    assert fresh.to_payload() == loss_cells["microreboot"].to_payload()


def test_bus_fullparse_matches_fastpath(loss_cells):
    with REFERENCES["full-parse"].patch():
        eager = _cell("microreboot")
    assert eager.to_payload() == loss_cells["microreboot"].to_payload()


def test_bus_fullparse_matches_fastpath_under_checkpoint_replay():
    """The strategy that re-feeds logged wires through the receive path:
    vouched ``Wire`` objects in the session-store log on one side, plain
    text decoded by the parser on the other."""
    replayed = []
    replay_log = SessionStore.replay_log

    def recording(store, component):
        entries = replay_log(store, component)
        replayed.extend(type(raw) for raw in entries)
        return entries

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SessionStore, "replay_log", recording)
        vouched = _cell("checkpoint-replay")
        vouched_log, replayed = replayed, []
        with REFERENCES["full-parse"].patch():
            eager = _cell("checkpoint-replay")
    assert Wire in vouched_log and len(replayed) == len(vouched_log)
    assert set(replayed) == {str}
    assert eager.to_payload() == vouched.to_payload()


def test_suite_serial_matches_parallel():
    suites = []
    for jobs in (1, 2):
        suite = run_suite(
            "workload",
            {"strategy": ["", "microreboot"], "failure_kind": ["crash"], "tree": ["III"]},
            trials=1,
            seed=3,
            request_rate=6.0,
            jobs=jobs,
        )
        suites.append(
            {
                "/".join(key): cell.to_payload()
                for key, cell in suite.items()
            }
        )
    assert suites[0] == suites[1]
    # The classic baseline really ran without the strategy machinery.
    classic = WorkloadCellResult.from_payload(suites[0]["/crash/III"])
    assert classic.sessions_restored == 0


def test_payload_roundtrip(loss_cells):
    payload = loss_cells["restart"].to_payload()
    clone = WorkloadCellResult.from_payload(json.loads(json.dumps(payload)))
    assert clone.to_payload() == payload
    assert clone.user_effects.requests_ok == (
        loss_cells["restart"].user_effects.requests_ok
    )


def test_unknown_strategy_and_kind_rejected():
    tree = TREE_BUILDERS["III"]()
    with pytest.raises(ExperimentError, match="unknown recovery strategy"):
        run_workload_cell(tree, "reincarnation", "crash")
    for kind in ("meltdown", ""):
        with pytest.raises(ExperimentError, match="unknown failure kind"):
            run_workload_cell(tree, "restart", kind)


# ----------------------------------------------------------------------
# without traffic: the strategy-compare cell
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def quiet_cells():
    """One restart and one microreboot cell, same tree/seed/schedule, no
    workload plane."""
    return {
        strategy: run_workload_cell(
            TREE_BUILDERS["V"](), strategy, "crash", failures=2, seed=7
        )
        for strategy in ("restart", "microreboot")
    }


def test_quiet_cells_recover_without_violations(quiet_cells):
    for strategy, result in quiet_cells.items():
        assert result.ok, f"{strategy}: {result.violations}"
        assert len(result.mttr_samples) == 2
        assert all(mttr > 0.0 for mttr in result.mttr_samples)
        assert result.stats.n == 2
        assert result.session_rate == 0.0
        assert result.effects is None and result.user_effects is None


def test_quiet_restart_loses_sessions_microreboot_preserves_them(quiet_cells):
    # the paper's mechanism discards externalised sessions on every cold
    # bounce of a session-holding component ...
    assert quiet_cells["restart"].sessions_lost >= 1
    assert quiet_cells["restart"].sessions_restored == 0
    # ... while microreboot restores them and loses none
    assert quiet_cells["microreboot"].sessions_lost == 0
    assert quiet_cells["microreboot"].sessions_restored >= 1


def test_quiet_unknown_strategy_and_kind_rejected():
    tree = TREE_BUILDERS["V"]()
    with pytest.raises(ExperimentError, match="unknown recovery strategy"):
        run_workload_cell(tree, "reboot-harder", "crash", failures=1, seed=1)
    with pytest.raises(ExperimentError, match="unknown failure kind"):
        run_workload_cell(tree, "restart", "meltdown", failures=1, seed=1)
    assert FAILURE_KINDS == ("crash", "hang", "zombie")


def test_quiet_payload_roundtrip(quiet_cells):
    for result in quiet_cells.values():
        payload = result.to_payload()
        assert payload["effects"] is None
        clone = WorkloadCellResult.from_payload(json.loads(json.dumps(payload)))
        assert clone == result


def test_zero_rate_cell_is_the_traffic_cell_without_its_plane(monkeypatch):
    """Rate 0 and rate R of one (strategy, kind, tree) share the seed — the
    same fault series — but not the cache entry, and only rate R dials a
    ``users`` client onto the bus."""
    quiet, busy = (
        plan_cell(
            "workload", 5, strategy="microreboot", failure_kind="crash",
            tree="III", trials=1, request_rate=rate,
        )
        for rate in (0.0, 6.0)
    )
    assert quiet.seed == busy.seed
    assert cache_key(quiet, PAPER_CONFIG) != cache_key(busy, PAPER_CONFIG)

    connect = Network.connect
    dialled = []

    def recording(network, client_name, address):
        dialled.append(client_name)
        return connect(network, client_name, address)

    monkeypatch.setattr(Network, "connect", recording)
    assert execute_cell(quiet)["effects"] is None
    assert dialled and "users" not in dialled
    dialled.clear()
    assert execute_cell(busy)["effects"]["requests_ok"] > 0
    assert "users" in dialled
