"""Crash-only external session/checkpoint store for microreboot recovery.

"Microreboot — A Technique for Cheap Recovery" (PAPERS.md) requires that
important state live *outside* the rebooted component, in a dedicated
crash-only store, so a partial restart loses nothing.  This module models
that store for the Mercury station:

* **sessions** — the ``ses``/``str`` pair's established sync session.
  Externalised when the handshake completes; restored on a ``micro``
  restart (the component skips the resync and its peer keeps running);
  deliberately *dropped* on a cold restart, because discarding state is
  exactly how a cold restart cures corruption.
* **checkpoints** — small component-state snapshots (``fedr``'s tuned
  frequency, ``pbcom``'s negotiated link) restored on a ``replay``
  restart so startup work shrinks to the configured replay fraction.
* **message logs** — a bounded per-component log of inbound bus traffic
  (the bus-client tap), replayed after a ``replay`` restart reconnects.

The store is itself a restartable citizen.  Records are serialized to a
canonical JSON body with a CRC-32 checksum and written with
*atomic-replace* semantics: the previous good version is retained, so a
torn or corrupted write garbles only the in-flight record.  Reads
validate the checksum; a mismatch quarantines the bad record and
recovers the last good version instead of silently restoring garbage.
Every data operation runs behind a per-op timeout with a bounded
retry/backoff ladder: when the storelet is down or hung (see
:class:`repro.faults.store_faults.StoreFaultModel`), the operation
raises :class:`repro.faults.store_faults.StoreUnavailableError` carrying
the simulated seconds the ladder burned, and callers degrade to the
cold-restart path with honest latency and session-loss accounting.

Drops are *tombstones*: a client discarding its pointer always succeeds
(the storelet garbage-collects orphans on recovery), which is what keeps
cold restarts deadlock-free during a store outage.  ``mark_restored``/
``restored_at`` are client-side metadata, not store records.

Without a fault model attached the store draws no random numbers,
emits no events, and behaves exactly like the always-up storelet it
used to be — plain dicts, fork-safe, byte-identical traces.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List, Optional, Tuple

from repro.faults.store_faults import (
    StoreError,
    StoreFaultModel,
    StoreUnavailableError,
)
from repro.types import SimTime


def _encode(payload: dict) -> Tuple[str, int]:
    """Canonical record body and its checksum."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blob, zlib.crc32(blob.encode("utf-8"))


def _valid(version: Tuple[SimTime, str, int]) -> bool:
    return zlib.crc32(version[1].encode("utf-8")) == version[2]


class _Record:
    """One checksummed record: the current version plus the last good one.

    ``cur``/``prev`` are ``(saved_at, blob, checksum)`` triples.  The
    atomic replace keeps the previous *valid* version on every write, so
    a torn write is recoverable until the next successful one lands.
    """

    __slots__ = ("cur", "prev")

    def __init__(
        self,
        cur: Tuple[SimTime, str, int],
        prev: Optional[Tuple[SimTime, str, int]] = None,
    ) -> None:
        self.cur = cur
        self.prev = prev

    def __deepcopy__(self, memo) -> "_Record":
        # Versions are immutable tuples of scalars: a shallow copy is exact.
        return _Record(self.cur, self.prev)


class SessionStore:
    """External crash-only state store shared by a station's components."""

    def __init__(self, log_limit: int = 32) -> None:
        #: Bound on each component's replay log (the "bounded message-log
        #: replay" window).
        self.log_limit = log_limit
        self._sessions: Dict[str, _Record] = {}
        self._checkpoints: Dict[str, _Record] = {}
        self._logs: Dict[str, List[str]] = {}
        #: Supervisor-plane snapshots (the learning oracle's estimates),
        #: keyed by snapshot name; checksummed like every other record but
        #: deliberately outside the session/checkpoint counters so the
        #: strategy-comparison payloads stay untouched.
        self._meta: Dict[str, _Record] = {}
        #: The instant a component last restored its session, consulted by
        #: the resync coupling to spare the peer.
        self._restored_at: Dict[str, SimTime] = {}
        #: Optional failure model (attached post-boot by the chaos engine
        #: or tests); ``None`` means the legacy always-up storelet.
        self._faults: Optional[StoreFaultModel] = None
        # Counters for reports and the strategy comparison.
        self.sessions_saved = 0
        self.sessions_restored = 0
        self.sessions_lost = 0
        self.checkpoints_taken = 0
        self.checkpoints_restored = 0
        self.messages_logged = 0
        self.messages_replayed = 0
        self.records_quarantined = 0
        self.records_recovered = 0
        self.ops_timed_out = 0

    # ------------------------------------------------------------------
    # failure model
    # ------------------------------------------------------------------

    def attach_faults(self, model: StoreFaultModel) -> None:
        """Wire the store's failure model (chaos scenarios, tests)."""
        self._faults = model

    @property
    def faults(self) -> Optional[StoreFaultModel]:
        return self._faults

    def _guard(self, op: str, component: str) -> None:
        """Per-op timeout + retry ladder; raises when the store is down."""
        if self._faults is None:
            return
        try:
            self._faults.check(op, component)
        except StoreError:
            self.ops_timed_out += 1
            raise

    def probe(self) -> Tuple[bool, float]:
        """Availability probe for recovery strategies.

        Returns ``(ok, waited)`` where ``waited`` is the simulated time
        the retry/backoff ladder burned discovering an outage — the
        honest cost of choosing the fallback path.
        """
        if self._faults is None:
            return True, 0.0
        try:
            self._faults.check("probe", "*")
        except StoreUnavailableError as exc:
            self.ops_timed_out += 1
            return False, exc.waited
        return True, 0.0

    # ------------------------------------------------------------------
    # checksummed record plumbing
    # ------------------------------------------------------------------

    def _write(
        self, table: Dict[str, _Record], component: str, now: SimTime, payload: dict
    ) -> None:
        blob, crc = _encode(payload)
        if self._faults is not None:
            mode = self._faults.write_outcome()
            if mode != "ok":
                blob = self._faults.garble(blob, mode)
        old = table.get(component)
        prev = None
        if old is not None:
            prev = old.cur if _valid(old.cur) else old.prev
        table[component] = _Record((now, blob, crc), prev)

    def _read(
        self, table: Dict[str, _Record], component: str, kind: str
    ) -> Optional[Tuple[SimTime, str, int]]:
        """The validated current version, recovering from the last good one.

        A checksum mismatch quarantines the damaged version; if the
        previous good version survives it is promoted (and counted as
        recovered), otherwise the record is gone.
        """
        rec = table.get(component)
        if rec is None:
            return None
        if _valid(rec.cur):
            return rec.cur
        self.records_quarantined += 1
        recovered = rec.prev is not None and _valid(rec.prev)
        if self._faults is not None:
            self._faults.emit_quarantine(component, kind, recovered)
        if recovered:
            self.records_recovered += 1
            rec.cur, rec.prev = rec.prev, None
            return rec.cur
        del table[component]
        return None

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def save_session(self, component: str, now: SimTime, payload: dict) -> None:
        """Externalise ``component``'s session (atomic replace)."""
        self._guard("save_session", component)
        self._write(self._sessions, component, now, payload)
        self.sessions_saved += 1

    def load_session(self, component: str) -> Optional[dict]:
        """The externalised session, or ``None``."""
        self._guard("load_session", component)
        hit = self._read(self._sessions, component, "session")
        return json.loads(hit[1]) if hit is not None else None

    def session_age(self, component: str, now: SimTime) -> Optional[SimTime]:
        self._guard("session_age", component)
        hit = self._read(self._sessions, component, "session")
        return (now - hit[0]) if hit is not None else None

    def has_session(self, component: str) -> bool:
        self._guard("has_session", component)
        return self._read(self._sessions, component, "session") is not None

    def mark_restored(self, component: str, now: SimTime) -> None:
        """Record a successful session restore (resync-coupling evidence)."""
        self._restored_at[component] = now
        self.sessions_restored += 1

    def restored_at(self, component: str) -> Optional[SimTime]:
        return self._restored_at.get(component)

    def drop_session(self, component: str) -> bool:
        """Discard the session (cold restart); returns whether one existed.

        Drops are tombstones and always succeed, outage or not — a cold
        restart must never block on the store being up.
        """
        self._restored_at.pop(component, None)
        if self._sessions.pop(component, None) is not None:
            self.sessions_lost += 1
            return True
        return False

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def save_checkpoint(self, component: str, now: SimTime, payload: dict) -> None:
        self._guard("save_checkpoint", component)
        self._write(self._checkpoints, component, now, payload)
        self.checkpoints_taken += 1

    def load_checkpoint(self, component: str) -> Optional[dict]:
        self._guard("load_checkpoint", component)
        hit = self._read(self._checkpoints, component, "checkpoint")
        return json.loads(hit[1]) if hit is not None else None

    def checkpoint_age(self, component: str, now: SimTime) -> Optional[SimTime]:
        self._guard("checkpoint_age", component)
        hit = self._read(self._checkpoints, component, "checkpoint")
        return (now - hit[0]) if hit is not None else None

    def has_checkpoint(self, component: str) -> bool:
        self._guard("has_checkpoint", component)
        return self._read(self._checkpoints, component, "checkpoint") is not None

    def drop_checkpoint(self, component: str) -> bool:
        return self._checkpoints.pop(component, None) is not None

    # ------------------------------------------------------------------
    # supervisor-plane snapshots (crash-only oracle rebuild)
    # ------------------------------------------------------------------

    def save_snapshot(self, name: str, now: SimTime, payload: dict) -> None:
        """Persist a supervisor snapshot (e.g. the oracle's estimates)."""
        self._guard("save_snapshot", name)
        self._write(self._meta, name, now, payload)

    def load_snapshot(self, name: str) -> Optional[dict]:
        """The snapshot payload, or ``None`` (also on quarantine)."""
        self._guard("load_snapshot", name)
        hit = self._read(self._meta, name, "snapshot")
        return json.loads(hit[1]) if hit is not None else None

    # ------------------------------------------------------------------
    # message logs (the bus-client tap)
    # ------------------------------------------------------------------

    def log_message(self, component: str, raw: str) -> None:
        """Append one inbound wire message to the bounded replay log."""
        self._guard("log_message", component)
        log = self._logs.setdefault(component, [])
        log.append(raw)
        if len(log) > self.log_limit:
            del log[: len(log) - self.log_limit]
        self.messages_logged += 1

    def has_log(self, component: str) -> bool:
        self._guard("has_log", component)
        return bool(self._logs.get(component))

    def replay_log(self, component: str) -> List[str]:
        """The logged messages, oldest first (does not clear the log)."""
        self._guard("replay_log", component)
        entries = list(self._logs.get(component, ()))
        self.messages_replayed += len(entries)
        return entries

    def drop_log(self, component: str) -> bool:
        return bool(self._logs.pop(component, None))

    # ------------------------------------------------------------------
    # cold-restart semantics
    # ------------------------------------------------------------------

    def drop_all(self, component: str) -> bool:
        """Cold restart: discard every kind of externalised state.

        Returns whether a *session* was lost (the user-visible loss the
        strategy comparison counts).
        """
        lost = self.drop_session(component)
        self.drop_checkpoint(component)
        self.drop_log(component)
        return lost

    def counters(self) -> Dict[str, int]:
        """Counter snapshot for reports."""
        return {
            "sessions_saved": self.sessions_saved,
            "sessions_restored": self.sessions_restored,
            "sessions_lost": self.sessions_lost,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoints_restored": self.checkpoints_restored,
            "messages_logged": self.messages_logged,
            "messages_replayed": self.messages_replayed,
            "records_quarantined": self.records_quarantined,
            "records_recovered": self.records_recovered,
            "ops_timed_out": self.ops_timed_out,
        }
