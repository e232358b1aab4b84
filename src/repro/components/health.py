"""End-to-end probes: the active liveness check that unmasks zombies.

:class:`EndToEndProber` sends ``e2e-probe`` commands that must round-trip
through each component's *worker* path, not its liveness thread.  A *zombie*
(answers FD pings, drops real work) passes every ping forever but fails
probes — this is the mechanism that unmasks the fail-slow failure kinds in
:mod:`repro.faults.failure`.  The failure detector hosts the prober and
owns transport and policy.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, TYPE_CHECKING

from repro.components.base import E2E_PROBE_REPLY_VERB, E2E_PROBE_VERB
from repro.types import SimTime
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


def make_probe(sender: str, target: str, seq: int) -> CommandMessage:
    """Build one end-to-end probe command."""
    return CommandMessage(
        sender=sender, target=target, verb=E2E_PROBE_VERB, params={"seq": str(seq)}
    )


def probe_reply_info(message: Message) -> Optional[tuple]:
    """``(component, seq)`` when ``message`` is a probe reply, else None."""
    if not isinstance(message, CommandMessage) or message.verb != E2E_PROBE_REPLY_VERB:
        return None
    try:
        seq = int(message.params.get("seq", ""))
    except ValueError:
        return None
    return (message.sender, seq)


class EndToEndProber:
    """Periodic worker-path probes with per-component miss accounting.

    The prober owns the schedule and the bookkeeping; the host (FD) owns
    transport and policy.  Each round sends one probe per monitored
    component via ``send_fn``; a probe unanswered after ``timeout`` counts
    a miss, and ``misses_to_suspect`` consecutive misses fire
    ``on_suspect(component)``.  Any reply zeroes the miss run (and fires
    ``on_recovered`` if the component had crossed the threshold).

    The host supplies ``skip`` to exclude components it is not currently
    judging (suppressed during a restart, not yet warmed up, bus down);
    skipped components are also forgiven their outstanding probes, so a
    restart never inherits stale misses.
    """

    def __init__(
        self,
        kernel: "Kernel",
        components: Iterable[str],
        send_fn: Callable[[CommandMessage], bool],
        sender: str = "fd",
        period: SimTime = 2.0,
        timeout: SimTime = 0.5,
        misses_to_suspect: int = 2,
        on_suspect: Optional[Callable[[str], None]] = None,
        on_recovered: Optional[Callable[[str], None]] = None,
        skip: Optional[Callable[[str], bool]] = None,
    ) -> None:
        if timeout >= period:
            raise ValueError(
                f"probe timeout ({timeout}) must be below the period ({period}) "
                "so each round is judged before the next begins"
            )
        if misses_to_suspect < 1:
            raise ValueError("misses_to_suspect must be >= 1")
        self.kernel = kernel
        self.components = tuple(components)
        self.send_fn = send_fn
        self.sender = sender
        self.period = period
        self.timeout = timeout
        self.misses_to_suspect = misses_to_suspect
        self.on_suspect = on_suspect
        self.on_recovered = on_recovered
        self.skip = skip
        self._epoch = 0
        self._seq = 0
        self._outstanding: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self.probes_sent = 0
        self.probe_misses = 0

    def start(self) -> None:
        """Begin probing rounds (call from the host's ``on_start``)."""
        self._epoch += 1
        self._outstanding.clear()
        self._misses.clear()
        self.kernel.schedule_after(self.period, self._round, self._epoch)

    def stop(self) -> None:
        """Stop probing; in-flight judgements become no-ops."""
        self._epoch += 1

    def reset(self, component: str) -> None:
        """Forgive a component's probe history (e.g. after its restart)."""
        self._outstanding.pop(component, None)
        self._misses.pop(component, None)

    def on_reply(self, component: str, seq: int) -> None:
        """Feed one probe reply back into the accounting."""
        if self._outstanding.get(component) != seq:
            return  # stale reply from a previous round
        del self._outstanding[component]
        was_suspect = self._misses.get(component, 0) >= self.misses_to_suspect
        self._misses[component] = 0
        if was_suspect and self.on_recovered is not None:
            self.on_recovered(component)

    def _round(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        for component in self.components:
            if self.skip is not None and self.skip(component):
                self.reset(component)
                continue
            self._seq += 1
            seq = self._seq
            self._outstanding[component] = seq
            if self.send_fn(make_probe(self.sender, component, seq)):
                self.probes_sent += 1
                self.kernel.schedule_after(self.timeout, self._judge, component, seq, epoch)
            else:
                self._outstanding.pop(component, None)
        self.kernel.schedule_after(self.period, self._round, epoch)

    def _judge(self, component: str, seq: int, epoch: int) -> None:
        if epoch != self._epoch or self._outstanding.get(component) != seq:
            return
        del self._outstanding[component]
        if self.skip is not None and self.skip(component):
            return
        self.probe_misses += 1
        self._misses[component] = self._misses.get(component, 0) + 1
        if self._misses[component] == self.misses_to_suspect:
            if self.on_suspect is not None:
                self.on_suspect(component)
        elif (
            self._misses[component] > self.misses_to_suspect
            and (self._misses[component] - self.misses_to_suspect) % 3 == 0
            and self.on_suspect is not None
        ):
            # Periodic re-notification while the component stays probe-dead,
            # so the host can re-report if its first report was lost.
            self.on_suspect(component)
