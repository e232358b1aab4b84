"""Named, independently seeded random-number streams.

Reproducibility discipline: a simulation must produce identical traces for
identical seeds, *even when unrelated subsystems add or remove random draws*.
A single shared ``random.Random`` would break that — adding one draw in the
fault injector would shift every subsequent draw in the detector.  Instead,
each consumer asks the registry for a stream by name; streams are seeded by
hashing the registry's root seed with the stream name, so they are mutually
independent and stable across code changes elsewhere.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 rather than Python's ``hash`` so the derivation is stable
    across interpreter runs and versions (``PYTHONHASHSEED`` does not apply).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _Stream(random.Random):
    """A registry stream with a fast structural copy.

    A structural copy (the snapshot fork, or ``copy.deepcopy``) of a
    plain ``random.Random`` reconstructs it through ``__reduce_ex__`` and
    then walks the 625-word Mersenne state tuple element by element.  The
    state tuple is immutable integers, so handing it straight to
    ``setstate`` on a fresh instance is exact and avoids the walk.

    A warmed-station restore copies no stream state at all: its recorded
    plan creates each registry stream bare (``_Stream.__new__``) and the
    restore's :meth:`RngRegistry.rebase` seeds every one, so the clone
    here serves the fork itself (a shape's first restore) and deepcopy.
    """

    def __deepcopy__(self, memo: dict) -> "_Stream":
        # __new__, not __init__: the argless constructor would seed from OS
        # entropy only for setstate to overwrite it a line later.
        clone = _Stream.__new__(_Stream)
        clone.setstate(self.getstate())
        memo[id(self)] = clone
        return clone


class RngRegistry:
    """Factory and cache for named random streams.

    Example
    -------
    >>> rngs = RngRegistry(seed=42)
    >>> faults = rngs.stream("faults.fedr")
    >>> detect = rngs.stream("detection.jitter")
    >>> faults is rngs.stream("faults.fedr")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        #: Run at each rebase before any stream is reseeded (:meth:`on_rebase`).
        self._on_rebase: List[Callable[[], None]] = []

    @property
    def seed(self) -> int:
        """The root seed all streams are derived from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = _Stream(derive_seed(self._seed, name))
            self._streams[name] = stream
        return stream

    def on_rebase(self, drop: Callable[[], None]) -> None:
        """Have ``drop()`` run at each rebase, before any stream is reseeded.

        An owner that looks its streams up on first use lets go of them
        there (:meth:`forget`), and so pays for reseeding only the ones it
        draws from again.  ``drop`` must be a bound method of the owner, so
        that a structural copy of the registry calls its own owner's.
        """
        self._on_rebase.append(drop)

    def forget(self, prefix: str) -> None:
        """Drop every stream whose name starts with ``prefix``: the next
        :meth:`stream` request for one makes it afresh from the current
        seed, in the state a reseed would have left it in."""
        for name in [name for name in self._streams if name.startswith(prefix)]:
            del self._streams[name]

    def rebase(self, seed: int) -> None:
        """Re-root the registry on ``seed``, reseeding every existing stream.

        Each live stream is reseeded exactly as if the registry had been
        created with ``seed`` before the stream was first requested, and
        streams created later derive from ``seed`` too — so a registry that
        booted under one seed and was rebased to another is
        indistinguishable from one that ran under the new seed all along,
        *from the rebase point onward*.  Snapshot/fork relies on this: one
        warmed station image, restored per experiment cell, gets the cell's
        own deterministic randomness by a rebase instead of a re-boot.
        """
        self._seed = int(seed)
        for drop in self._on_rebase:
            drop()
        for name, stream in self._streams.items():
            stream.seed(derive_seed(self._seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={sorted(self._streams)})"
