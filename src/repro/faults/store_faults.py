"""Failure model for the crash-only session store.

The microreboot paper treats the session-state store as an always-up
storelet; the recursive-restartability premise says nothing is.  This
module supplies the store's own fault model, injectable through the
chaos scenarios (``repro.chaos``) with named RNG streams:

* **crash** — the storelet process is down for a window; operations fail
  fast (connection refused) after the retry ladder's backoff gaps.
* **hang** — the storelet stops answering without dying; every attempt
  burns its full per-op timeout before the ladder gives up.
* **torn write** — a write interrupted mid-replace leaves a truncated
  record behind; the record's checksum no longer matches, so the next
  read quarantines it and recovers from the last good version.
* **corrupt write** — silent bit-rot on the record body, detected and
  handled the same way.

The model is attached to a :class:`repro.mercury.session_store.SessionStore`
*after* station boot (like sinks and workload planes), so warmed-station
templates, classic boot seeds, and every existing trace stay
byte-identical: a store without a fault model draws no random numbers
and emits no events.

Timing model: store operations are synchronous calls inside the
simulation, so a failed operation cannot advance the clock itself.
Instead it reports the wall time the client *would* have burned walking
the retry ladder (``StoreUnavailableError.waited``); callers account it
honestly — component startup work grows by exactly that much, and
strategy fallback decisions are delayed by it.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.obs import events as ev
from repro.types import Severity, SimTime


class StoreError(Exception):
    """Base class for session-store failures."""


class StoreUnavailableError(StoreError):
    """The store did not answer within the retry/backoff ladder.

    ``waited`` is the simulated seconds the caller burned on timeouts
    and backoff gaps before giving up; honest callers add it to their
    own latency accounting.
    """

    def __init__(self, op: str, component: str, waited: float) -> None:
        super().__init__(f"store unavailable during {op}({component!r})")
        self.op = op
        self.component = component
        self.waited = waited


class StoreFaultModel:
    """Injectable crash/hang/torn-write/corruption model for the store.

    All randomness comes from the kernel's named streams
    (``faults.store``), so campaigns stay seed-reproducible; all event
    emission goes through the kernel trace under the ``store`` source.
    """

    def __init__(
        self,
        kernel,
        *,
        op_timeout: float = 0.05,
        retry_backoff: Tuple[float, ...] = (0.05, 0.1, 0.2),
        torn_write_probability: float = 0.0,
        corrupt_write_probability: float = 0.0,
    ) -> None:
        if op_timeout <= 0.0:
            raise ValueError(f"op_timeout must be positive: {op_timeout!r}")
        if torn_write_probability + corrupt_write_probability > 1.0:
            raise ValueError("write corruption probabilities exceed 1")
        self.kernel = kernel
        self.op_timeout = op_timeout
        self.retry_backoff = tuple(retry_backoff)
        self.torn_write_probability = torn_write_probability
        self.corrupt_write_probability = corrupt_write_probability
        self._rng = kernel.rngs.stream("faults.store")
        self._down_until: SimTime = 0.0
        self._down_mode: Optional[str] = None
        self._outage_seq = 0
        #: (component, op) pairs already reported this outage — the
        #: timeout event is rate-limited to one per caller per outage so
        #: a chatty message log cannot flood the trace.
        self._reported: Set[Tuple[str, str]] = set()
        self.outages = 0
        self.ops_failed = 0
        self.writes_torn = 0
        self.writes_corrupted = 0

    # ------------------------------------------------------------------
    # outage windows (driven by chaos StoreOps or tests)
    # ------------------------------------------------------------------

    @property
    def available(self) -> bool:
        return self.kernel.now >= self._down_until

    @property
    def down_mode(self) -> Optional[str]:
        """``"crash"``/``"hang"`` while an outage window is open."""
        return None if self.available else self._down_mode

    def crash(self, duration: float) -> None:
        """The storelet dies; operations fail fast for ``duration``."""
        self._begin_outage("crash", duration)

    def hang(self, duration: float) -> None:
        """The storelet wedges; operations time out for ``duration``."""
        self._begin_outage("hang", duration)

    def _begin_outage(self, mode: str, duration: float) -> None:
        if duration <= 0.0:
            raise ValueError(f"outage duration must be positive: {duration!r}")
        now = self.kernel.now
        self._down_mode = mode
        self._down_until = max(self._down_until, now + duration)
        self._reported.clear()
        self._outage_seq += 1
        self.outages += 1
        self.kernel.trace.emit(
            "store",
            ev.STORE_CRASHED,
            severity=Severity.WARNING,
            mode=mode,
            duration=round(duration, 9),
        )
        self.kernel.schedule_after(
            self._down_until - now, self._end_outage, self._outage_seq
        )

    def _end_outage(self, seq: int) -> None:
        if seq != self._outage_seq or not self.available:
            return  # extended or superseded by a later window
        self._down_mode = None
        self._reported.clear()
        self.kernel.trace.emit("store", ev.STORE_RECOVERED)

    # ------------------------------------------------------------------
    # the per-op guard (called by SessionStore on every data operation)
    # ------------------------------------------------------------------

    def check(self, op: str, component: str) -> None:
        """Raise :class:`StoreUnavailableError` during an outage window.

        A crash fails fast (connection refused), so only the ladder's
        backoff gaps are burned; a hang costs the full per-op timeout on
        every attempt as well.
        """
        if self.available:
            return
        waited = sum(self.retry_backoff)
        if self._down_mode == "hang":
            waited += self.op_timeout * (len(self.retry_backoff) + 1)
        self.ops_failed += 1
        key = (component, op)
        if key not in self._reported:
            self._reported.add(key)
            self.kernel.trace.emit(
                "store",
                ev.STORE_OP_TIMEOUT,
                severity=Severity.WARNING,
                op=op,
                component=component,
                waited=round(waited, 9),
            )
        raise StoreUnavailableError(op, component, waited)

    # ------------------------------------------------------------------
    # write corruption
    # ------------------------------------------------------------------

    def write_outcome(self) -> str:
        """Draw the fate of one write: ``ok``, ``torn``, or ``corrupt``."""
        if self.torn_write_probability <= 0.0 and self.corrupt_write_probability <= 0.0:
            return "ok"
        roll = self._rng.random()
        if roll < self.torn_write_probability:
            self.writes_torn += 1
            return "torn"
        if roll < self.torn_write_probability + self.corrupt_write_probability:
            self.writes_corrupted += 1
            return "corrupt"
        return "ok"

    def garble(self, blob: str, mode: str) -> str:
        """Deterministically damage a serialized record body."""
        if not blob:
            return "\x00"
        if mode == "torn":
            return blob[: self._rng.randrange(len(blob))]
        pos = self._rng.randrange(len(blob))
        flip = "#" if blob[pos] != "#" else "!"
        return blob[:pos] + flip + blob[pos + 1 :]

    def emit_quarantine(self, component: str, record: str, recovered: bool) -> None:
        """Trace a checksum-failed record being quarantined."""
        self.kernel.trace.emit(
            "store",
            ev.STORE_RECORD_QUARANTINED,
            severity=Severity.WARNING,
            component=component,
            record=record,
            recovered=recovered,
        )

    def counters(self) -> dict:
        return {
            "outages": self.outages,
            "ops_failed": self.ops_failed,
            "writes_torn": self.writes_torn,
            "writes_corrupted": self.writes_corrupted,
        }
