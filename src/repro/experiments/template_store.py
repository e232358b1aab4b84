"""Shared read-only warmed-station template store.

The per-process template cache (:mod:`repro.experiments.snapshot`) makes
boot a per-shape cost *per worker process* — each campaign worker still
pays one full boot per shape it touches.  At fleet scale that multiplies:
a 16-worker fan-out over one shape boots 16 identical stations.

This store makes boot a per-shape cost per *campaign*:

* The parent (or the first builder anywhere) **publishes** a warmed
  template as a pickle blob — pickled exactly once per shape.
* Workers **install** the blob table (shipped through the pool/worker
  spawn arguments, or inherited for free on fork) and **fetch** lazily:
  the first restore of a shape unpickles the blob into a live template,
  and every restore copies that live template as usual (the first forks
  it and records the plan, the rest replay the plan).  A blob is never
  restored per cell: ``pickle.loads`` plus the rebase takes ≈ 1.0–1.3 ms
  per tree-V station against ≈ 0.3–0.4 ms for a replay, and leaves every
  instance with a materialized ``__dict__`` (DESIGN.md §10).

Correctness lean: an unpickled template must be behaviourally identical
to a locally built one.  Stations were scrubbed of closure captures for
the PR 6 snapshot work, which also made them pickle-clean, and
``tests/experiments/test_template_store.py`` pins blob-restored stations
bit-identical (traces and payloads) to built ones.  Because fresh boots
under the shape's :func:`~repro.experiments.snapshot.boot_seed` are
already bit-identical to restores, the store is a pure amortization — it
can never change a result, only who pays for the first boot.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.station import MercuryStation


class SharedTemplateStore:
    """Pickle-once blobs of warmed station templates, keyed by shape."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}
        #: Shapes already unpickled in this process (the live template
        #: lives in the snapshot module's per-process cache; this set only
        #: prevents double unpickling when that cache is cleared).
        self.published = 0
        self.installed = 0
        self.fetches = 0

    # -- parent side ---------------------------------------------------

    def publish(self, shape: str, template: "MercuryStation") -> bytes:
        """Serialize ``template`` once and remember it under ``shape``."""
        blob = pickle.dumps(template, protocol=pickle.HIGHEST_PROTOCOL)
        self._blobs[shape] = blob
        self.published += 1
        return blob

    def blobs(self) -> Dict[str, bytes]:
        """The blob table, for shipping to worker processes."""
        return dict(self._blobs)

    # -- worker side ---------------------------------------------------

    def install(self, blobs: Dict[str, bytes]) -> None:
        """Adopt a blob table received from the parent (idempotent)."""
        self._blobs.update(blobs)
        self.installed += len(blobs)

    def fetch(self, shape: str) -> Optional["MercuryStation"]:
        """Unpickle the template for ``shape``, or None when unpublished.

        Each call deserializes afresh; callers cache the live object (the
        snapshot module's per-process template cache does exactly that).
        """
        blob = self._blobs.get(shape)
        if blob is None:
            return None
        self.fetches += 1
        return pickle.loads(blob)

    # -- introspection -------------------------------------------------

    def has(self, shape: str) -> bool:
        """Whether a blob for ``shape`` is available."""
        return shape in self._blobs

    def shapes(self) -> Tuple[str, ...]:
        """Published shapes, in publication order."""
        return tuple(self._blobs)

    def clear(self) -> None:
        """Drop every blob (tests; long-lived drivers)."""
        self._blobs.clear()


#: The process-wide store.  Populated by campaign parents before fan-out
#: (fork inherits it for free; spawn ships :meth:`blobs` through worker
#: init args) and consulted by ``warmed_station`` on template misses.
STORE = SharedTemplateStore()


def install_blobs(blobs: Dict[str, bytes]) -> None:
    """Module-level installer — picklable by reference for pool initializers."""
    STORE.install(blobs)
