"""Pickled warmed-station templates, kept for the benchmark's timing only.

Nothing in the simulator imports this module.  A process gets its warmed
template from :func:`repro.experiments.snapshot.warm_template` — built once
under the shape's boot seed, or inherited across a fork — so no template
crosses a process boundary.  The benchmark's isolated driver
``experiments.template_store.fetch_ms`` still prices one whole-station
unpickle through :meth:`SharedTemplateStore.fetch`; the module goes when
that driver is retired.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.station import MercuryStation


class SharedTemplateStore:
    """Pickle-once blobs of warmed station templates, keyed by shape."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}

    def publish(self, shape: str, template: "MercuryStation") -> bytes:
        """Serialize ``template`` once and remember it under ``shape``."""
        blob = pickle.dumps(template, protocol=pickle.HIGHEST_PROTOCOL)
        self._blobs[shape] = blob
        return blob

    def fetch(self, shape: str) -> Optional["MercuryStation"]:
        """Unpickle the template for ``shape``, or None when unpublished."""
        blob = self._blobs.get(shape)
        if blob is None:
            return None
        return pickle.loads(blob)
