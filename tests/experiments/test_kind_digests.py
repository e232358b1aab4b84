"""Each campaign kind's payload is pinned to its cache version.

A cache key carries ``KINDS[kind].version``, bumped by hand; a payload that
changes under an unchanged version is served stale from every warm
``--cache-dir``.  ``kind_payload_digests.json`` keeps, per row of
:data:`~repro.experiments.runner.KINDS`, the version and the sha256 of the
sorted-JSON payload of the determinism gate's sample cell
(``tools/check_determinism.py``'s ``SAMPLES`` at its seed).  A new digest
under the pinned version fails with "bump the version"; a bumped version
fails until the kind is recaptured::

    PYTHONPATH=src python -m tests.experiments.test_kind_digests \\
        --recapture availability

The test and the recapture share :func:`_digest`.

A named tree enters a cache key by its label alone, so
``tree_fingerprints.json`` pins each ``TREE_BUILDERS`` entry's
``tree_fingerprint``: editing a builder fails until every kind's version
is bumped and both tables are recaptured (``--recapture`` with every kind
re-pins the trees too).
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from repro.experiments.runner import KINDS, execute_cell, plan_cell
from repro.experiments.snapshot import tree_fingerprint
from repro.mercury.trees import TREE_BUILDERS

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_TABLE_PATH = pathlib.Path(__file__).with_name("kind_payload_digests.json")
_TREES_PATH = pathlib.Path(__file__).with_name("tree_fingerprints.json")
_spec = importlib.util.spec_from_file_location(
    "check_determinism", _ROOT / "tools" / "check_determinism.py"
)
_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gate)

_TABLE = json.loads(_TABLE_PATH.read_text(encoding="utf-8"))


def _digest(kind: str) -> str:
    """sha256 of the sample cell's payload, as the gate dumps it."""
    cell = plan_cell(kind, _gate.CHAOS_SEED, **_gate.SAMPLES[kind])
    payload = json.dumps(execute_cell(cell), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _tree_fingerprints():
    return {label: tree_fingerprint(build()) for label, build in TREE_BUILDERS.items()}


def test_every_tree_builder_is_pinned():
    pinned = json.loads(_TREES_PATH.read_text(encoding="utf-8"))
    assert _tree_fingerprints() == pinned, (
        "a tree builder changed, and cached cells key it by label only: bump "
        "every KINDS version, then --recapture every kind"
    )


def test_every_kind_is_pinned():
    assert sorted(_TABLE) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_payload_matches_its_versions_digest(kind):
    pinned = _TABLE[kind]
    version = KINDS[kind].version
    assert pinned["version"] == version, (
        f"KINDS[{kind!r}].version is {version}, the digest table holds "
        f"{pinned['version']}: recapture with --recapture {kind}"
    )
    assert _digest(kind) == pinned["sha256"], (
        f"{kind}'s payload moved under version {version}: bump "
        f"KINDS[{kind!r}].version, then recapture with --recapture {kind}"
    )


def _recapture(kinds):
    for kind in kinds:
        if kind not in KINDS:
            raise SystemExit(f"unknown kind {kind!r}")
        _TABLE[kind] = {"version": KINDS[kind].version, "sha256": _digest(kind)}
        print(f"recaptured {kind}")
    _TABLE_PATH.write_text(json.dumps(_TABLE, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if set(kinds) == set(KINDS):
        trees = json.dumps(_tree_fingerprints(), indent=1, sort_keys=True) + "\n"
        _TREES_PATH.write_text(trees, encoding="utf-8")
        print("recaptured the tree fingerprints")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--recapture", nargs="+", metavar="KIND", required=True)
    _recapture(parser.parse_args().recapture)
