"""The `restart` strategy is bit-identical to the pre-refactor recoverer.

``tests/core/golden_restart_traces.json`` holds one chaos trial per
(scenario, tree, supervisor) cell at seed 42, recording the SHA-256 of the
full JSONL event trace plus the MTTR samples and episode counters.  These
tests re-run every golden cell through today's strategy-aware recoverer
(with no strategy configured — the default path every pre-existing caller
takes) and require byte-for-byte identical traces.  Any divergence means
a change altered observable behavior for classic stations.

The golden file is regenerated only when a change *intends* to move
traces, and then only for the cells it names::

    PYTHONPATH=src python -m tests.core.test_restart_bit_identity \
        --recapture "flapping|V|full" "cascade|V|abstract"

Both the test and the recapture run a cell through :func:`_run_cell`, so
what is captured is exactly what is checked.
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.chaos.engine import run_chaos
from repro.mercury.trees import TREE_BUILDERS
from repro.obs.sinks import JsonlSink

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_restart_traces.json")

with open(_GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    _GOLDEN = json.load(_fh)


def _run_cell(key):
    """Run one golden cell; return the record the JSON file keeps for it."""
    scenario, tree_label, supervisor = key.split("|")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "trace.jsonl")
        result = run_chaos(
            TREE_BUILDERS[tree_label](),
            scenario,
            trials=_GOLDEN["trials"],
            seed=_GOLDEN["seed"],
            sinks=[JsonlSink(path)],
            supervisor=supervisor,
        )
        with open(path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
    return {
        "cured": result.cured,
        "escalations": result.escalations,
        "mttr": [round(s, 9) for s in result.mttr_samples],
        "trace_sha256": sha,
        "violations": len(result.violations),
    }


@pytest.mark.parametrize("key", sorted(_GOLDEN["cells"]))
def test_restart_traces_match_pre_refactor_golden(key):
    cell = _GOLDEN["cells"][key]
    got = _run_cell(key)
    assert got["trace_sha256"] == cell["trace_sha256"], (
        f"{key}: trace diverged from the golden capture"
    )
    assert got == cell


def test_campaign_cache_keys_unchanged_by_strategy_field():
    """A classic cell's cache key is a pure function of its spec.

    ``CampaignCell.strategy`` defaulting to ``""`` is part of the v6 spec;
    the key must not vary between equivalent constructions, and a
    strategy-enabled cell must key differently from its classic twin.
    """
    import dataclasses

    from repro.experiments.runner import CampaignCell, cache_key
    from repro.mercury.config import PAPER_CONFIG

    classic = CampaignCell(kind="chaos", tree="V", seed=42, scenario="cascade", trials=1)
    rebuilt = CampaignCell(**dataclasses.asdict(classic))
    assert cache_key(classic, PAPER_CONFIG) == cache_key(rebuilt, PAPER_CONFIG)
    enabled = dataclasses.replace(classic, strategy="restart")
    assert cache_key(enabled, PAPER_CONFIG) != cache_key(classic, PAPER_CONFIG)


def test_strategy_enabled_station_shape_differs_from_classic():
    """Strategy-enabled stations snapshot separately from classic ones.

    ``station_shape`` feeds ``boot_seed``; the strategy key is added only
    for strategy-enabled runs (classic shapes — and therefore every boot
    seed behind the golden traces above — stay untouched), and a
    strategy-enabled run must never share a warmed template with a classic
    station whose components lack the session-store wiring.
    """
    from repro.experiments.snapshot import station_shape
    from repro.mercury.config import PAPER_CONFIG

    tree = TREE_BUILDERS["V"]()
    base = dict(
        oracle="perfect", oracle_error_rate=0.3, supervisor="full", net_faults=False
    )
    classic = station_shape("chaos", tree, PAPER_CONFIG, **base)
    enabled = station_shape("chaos", tree, PAPER_CONFIG, strategy="restart", **base)
    assert classic != enabled


def _recapture(keys):
    for key in keys:
        if key not in _GOLDEN["cells"]:
            raise SystemExit(f"no golden cell {key!r}")
        _GOLDEN["cells"][key] = _run_cell(key)
        print(f"recaptured {key}")
    with open(_GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(_GOLDEN, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--recapture", nargs="+", metavar="KEY", required=True)
    _recapture(parser.parse_args().recapture)
