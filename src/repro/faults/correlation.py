"""Correlated-failure mechanisms.

Two concrete correlation patterns from the paper, implemented as reusable
mechanisms (Mercury wires them to specific components):

* :class:`ResyncCoupling` — "although ses and str were built independently,
  they synchronize with each other at startup and, when either is restarted,
  the other will inevitably have to be restarted as well" (§4.3).  A restart
  of one side invalidates the sync session; a peer that lived through the
  whole episode crashes on the stale session and must itself restart.  A
  peer restarted in the same batch (or currently restarting) re-handshakes
  cleanly — that asymmetry is why group consolidation pays off.

* :class:`DisconnectAging` — "when fedr fails, its connection to pbcom is
  severed; due to bugs, pbcom ages every time it loses the connection and,
  at some point, the aging leads to its total failure" (§4.2).  Each
  provoking-component down event while the victim is running adds one unit
  of age; when age crosses a randomly drawn threshold, the victim fails.

* :class:`CorrelationGroup` — the N-member generalisation used by the
  chaos-campaign scenarios (`repro.chaos`): any member's down event fells
  the other running members shortly afterwards, modelling shared-fate
  failure domains (a common library, shared memory segment, power rail).
  The group fires once and then stays disarmed until *every* member is
  running again, which bounds the cascade.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.faults.failure import FailureDescriptor
from repro.faults.injector import FaultInjector
from repro.obs import events as ev
from repro.procmgr.process import SimProcess
from repro.types import SimTime


class ResyncCoupling:
    """Startup-resynchronisation coupling between two peer components."""

    def __init__(
        self,
        injector: FaultInjector,
        left: str,
        right: str,
        induced_delay: SimTime = 0.2,
        induce_probability: float = 1.0,
        freshness_window: SimTime = 5.0,
        session_store=None,
    ) -> None:
        """Couple components ``left`` and ``right``.

        ``induce_probability`` is the paper's ``f_{left,right}`` in spirit:
        the chance that a lone restart of one side actually crashes the other
        (Mercury observed ≈ 1).  ``induced_delay`` is the time between the
        restarted side coming up and the stale peer dying.

        ``freshness_window`` bounds the cascade: a peer that was itself
        (re)started within this window of the provoking failure holds a
        fresh sync session and survives the handshake.  Without it, a lone
        ses restart would crash str, whose lone restart would crash the
        just-restarted ses, forever — the real components stop after one
        induced round because the freshly restarted side is still waiting in
        its startup resynchronisation.
        """
        if left == right:
            raise ValueError("resync coupling requires two distinct components")
        if not 0.0 <= induce_probability <= 1.0:
            raise ValueError(f"induce_probability out of range: {induce_probability!r}")
        self.injector = injector
        self.manager = injector.manager
        self.kernel = injector.kernel
        self.left = left
        self.right = right
        self.induced_delay = induced_delay
        self.induce_probability = induce_probability
        self.freshness_window = freshness_window
        #: Crash-only session store (strategy-enabled stations only).  A
        #: side that *restored* its externalised session never announces a
        #: fresh one, so the peer's session is not invalidated.
        self._session_store = session_store
        #: Master switch; experiments may disable the mechanism to isolate
        #: a specific recovery path.
        self.enabled = True
        self._rng = self.kernel.rngs.stream(f"resync.{left}.{right}")
        self.induced_count = 0
        self.manager.subscribe(self._on_lifecycle)

    def peer_of(self, name: str) -> Optional[str]:
        """The coupled peer of ``name``, or None if not part of this coupling."""
        if name == self.left:
            return self.right
        if name == self.right:
            return self.left
        return None

    def _on_lifecycle(self, process: SimProcess, event: str) -> None:
        if not self.enabled or event != "ready":
            return
        peer_name = self.peer_of(process.name)
        if peer_name is None:
            return
        if peer_name in process.last_batch:
            return  # joint restart: clean mutual handshake
        if (
            self._session_store is not None
            and self._session_store.restored_at(process.name) == self.kernel.now
        ):
            # Microreboot: this side came back on its externalised session
            # and skipped the resync announce — the peer is unharmed.
            return
        peer = self.manager.maybe_get(peer_name)
        if peer is None or not peer.is_running:
            return  # peer is down or restarting: it will handshake when up
        # The peer survived this side's whole failure episode, so its sync
        # session is stale.  "Survived" means it has been up since before
        # this side went down.
        if process.last_down_at is None:
            return  # first-ever start; nothing to resynchronise
        if (
            peer.last_ready_at is not None
            and peer.last_ready_at >= process.last_down_at - self.freshness_window
        ):
            return  # peer's own session is fresh: clean handshake
        if self._rng.random() >= self.induce_probability:
            return
        provoking = process.last_failure
        induced_by = provoking.failure_id if provoking is not None else None
        self.kernel.schedule_after(
            self.induced_delay, self._induce, peer_name, process.name, induced_by
        )

    def _induce(self, victim: str, provoker: str, induced_by: Optional[int]) -> None:
        process = self.manager.get(victim)
        if not process.is_running:
            return  # already down for another reason
        self.induced_count += 1
        descriptor = FailureDescriptor(
            manifest_component=victim,
            cure_set=frozenset([victim]),
            injected_at=self.kernel.now,
            kind="induced-resync",
            induced_by=induced_by,
        )
        self.kernel.trace.emit(
            "faults",
            ev.FAILURE_INDUCED,
            component=victim,
            provoker=provoker,
            mechanism="resync",
        )
        self.injector.inject(descriptor)


class CorrelationGroup:
    """Shared-fate failure group: one member's crash fells the others.

    Where :class:`ResyncCoupling` models the paper's specific pairwise
    ses/str handshake, this mechanism models an arbitrary failure domain:
    when any member goes down (crash *or* supervised kill — a restart that
    bounces one member can take the others with it, which is exactly the
    fault-during-restart storm the chaos campaigns provoke), every other
    member that is still running is induced to fail ``induced_delay`` later
    with probability ``induce_probability`` each.

    Cascade bound: the group fires once per episode.  After firing it stays
    disarmed until **all** members are running simultaneously, so recovery
    restarts of the felled members cannot re-trigger the group against
    themselves, and two overlapping groups sharing a member chain at most
    once per group before both must observe a fully-healthy domain again.
    """

    def __init__(
        self,
        injector: FaultInjector,
        members,
        induce_probability: float = 1.0,
        induced_delay: SimTime = 0.3,
        kind: str = "induced-group",
    ) -> None:
        members = tuple(members)
        if len(set(members)) != len(members):
            raise ValueError(f"correlation group members must be distinct: {members!r}")
        if len(members) < 2:
            raise ValueError(
                f"correlation group needs at least two components, got {members!r}"
            )
        if not 0.0 <= induce_probability <= 1.0:
            raise ValueError(f"induce_probability out of range: {induce_probability!r}")
        self.injector = injector
        self.manager = injector.manager
        self.kernel = injector.kernel
        self.members = members
        self._member_set = frozenset(members)
        self.induce_probability = induce_probability
        self.induced_delay = induced_delay
        self.kind = kind
        #: Master switch; experiments may disable the mechanism to isolate
        #: a specific recovery path.
        self.enabled = True
        self.induced_count = 0
        self._armed = True
        self._rng = self.kernel.rngs.stream("group." + ".".join(members))
        self.manager.subscribe(self._on_lifecycle)

    def _all_members_running(self) -> bool:
        for name in self.members:
            process = self.manager.maybe_get(name)
            if process is None or not process.is_running:
                return False
        return True

    def rearm(self) -> None:
        """Re-arm after a disabled stretch, if the domain is healthy.

        While disabled the group ignores lifecycle events, so the "ready"
        that would normally re-arm it can slip by; callers toggling
        ``enabled`` around a drain phase call this to resynchronise.
        """
        if self._all_members_running():
            self._armed = True

    def _on_lifecycle(self, process: SimProcess, event: str) -> None:
        if not self.enabled or process.name not in self._member_set:
            return
        if event == "ready":
            if not self._armed and self._all_members_running():
                self._armed = True
            return
        if not event.startswith("down:") or not self._armed:
            return
        self._armed = False
        provoking = process.last_failure
        induced_by = provoking.failure_id if provoking is not None else None
        for peer in self.members:
            if peer == process.name:
                continue
            if self._rng.random() >= self.induce_probability:
                continue
            self.kernel.schedule_after(
                self.induced_delay, self._induce, peer, process.name, induced_by
            )

    def _induce(self, victim: str, provoker: str, induced_by: Optional[int]) -> None:
        if not self.enabled:
            return
        process = self.manager.maybe_get(victim)
        if process is None or not process.is_running:
            return  # already down (perhaps felled by an overlapping group)
        self.induced_count += 1
        descriptor = FailureDescriptor(
            manifest_component=victim,
            cure_set=frozenset([victim]),
            injected_at=self.kernel.now,
            kind=self.kind,
            induced_by=induced_by,
        )
        self.kernel.trace.emit(
            "faults",
            ev.FAILURE_INDUCED,
            component=victim,
            provoker=provoker,
            mechanism="group",
        )
        self.injector.inject(descriptor)


class DisconnectAging:
    """Aging of a victim component driven by a provoker's disconnects."""

    def __init__(
        self,
        injector: FaultInjector,
        provoker: str,
        victim: str,
        mean_failures_to_age_out: float = 4.0,
        fail_delay: SimTime = 0.5,
    ) -> None:
        """Each ``provoker`` down event ages ``victim`` by one unit.

        The age-out threshold is drawn geometrically with the given mean, so
        on average every ``mean_failures_to_age_out``-th provoker failure
        takes the victim down with it (eventually — after ``fail_delay``).
        """
        if provoker == victim:
            raise ValueError("aging requires distinct provoker and victim")
        if mean_failures_to_age_out < 1.0:
            raise ValueError("mean_failures_to_age_out must be >= 1")
        self.injector = injector
        self.manager = injector.manager
        self.kernel = injector.kernel
        self.provoker = provoker
        self.victim = victim
        self.mean_failures_to_age_out = mean_failures_to_age_out
        self.fail_delay = fail_delay
        self._rng = self.kernel.rngs.stream(f"aging.{provoker}.{victim}")
        #: Master switch; experiments may disable aging to isolate a
        #: specific recovery path.
        self.enabled = True
        self.age = 0
        self.aged_out_count = 0
        self._threshold = self._draw_threshold()
        #: Bumped whenever age resets; invalidates scheduled age-outs, so a
        #: rejuvenating restart really does cancel the pending crash.
        self._epoch = 0
        self.manager.subscribe(self._on_lifecycle)

    def _draw_threshold(self) -> int:
        # Uniform integer in [0.7m, 1.3m] (mean m).  Deliberately NOT
        # geometric: aging is damage *accumulation* ("pbcom ages every time
        # it loses the connection and, at some point, the aging leads to
        # its total failure"), so the hazard must rise with age — a
        # memoryless per-disconnect crash probability would make
        # rejuvenation useless by construction, since resetting the age
        # would not change the future crash rate.
        mean = self.mean_failures_to_age_out
        low = max(1, math.ceil(0.7 * mean))
        high = max(low, math.floor(1.3 * mean))
        return self._rng.randint(low, high)

    def _on_lifecycle(self, process: SimProcess, event: str) -> None:
        if not self.enabled:
            return
        if process.name == self.victim and event == "ready":
            # A restart rejuvenates the victim: age resets (this is the
            # §4.4 observation that a "free" restart is prophylactic), and
            # any already-scheduled age-out crash is cancelled.
            self.age = 0
            self._threshold = self._draw_threshold()
            self._epoch += 1
            return
        if process.name != self.provoker or not event.startswith("down:"):
            return
        victim = self.manager.maybe_get(self.victim)
        if victim is None or not victim.is_running:
            return
        self.age += 1
        self.kernel.trace.emit(
            "faults",
            ev.VICTIM_AGED,
            component=self.victim,
            provoker=self.provoker,
            age=self.age,
            threshold=self._threshold,
        )
        if self.age >= self._threshold:
            self.kernel.schedule_after(self.fail_delay, self._age_out, self._epoch)

    def _age_out(self, epoch: int) -> None:
        if not self.enabled or epoch != self._epoch:
            return  # the victim was restarted (rejuvenated) in the meantime
        victim = self.manager.get(self.victim)
        if not victim.is_running:
            return
        self.aged_out_count += 1
        self.age = 0
        self._threshold = self._draw_threshold()
        descriptor = FailureDescriptor(
            manifest_component=self.victim,
            cure_set=frozenset([self.victim]),
            injected_at=self.kernel.now,
            kind="aging",
        )
        self.kernel.trace.emit(
            "faults",
            ev.FAILURE_INDUCED,
            component=self.victim,
            provoker=self.provoker,
            mechanism="aging",
        )
        self.injector.inject(descriptor)
