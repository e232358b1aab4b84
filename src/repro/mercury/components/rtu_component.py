"""rtu — the radio tuner.

"rtu (radio tuner) tunes the radios during a satellite pass" (§2.1).  It
consumes ``tune`` commands from ses and forwards ``radio-set-freq`` commands
to the radio proxy (``fedrcom`` in the unsplit station, ``fedr`` after the
§4.2 split), which translates them into low-level radio commands.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.obs import events as ev
from repro.types import Severity, SimTime
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.process import SimProcess
    from repro.transport.network import Network


class RtuBehavior(BusAttachedBehavior):
    """The radio-tuner behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        bus_address: str = "mbus:7000",
        radio_proxy_name: str = "fedr",
        refresh_interval: float = 10.0,
    ) -> None:
        super().__init__(process, network, bus_address)
        self.radio_proxy_name = radio_proxy_name
        #: Re-assert the commanded frequency at least this often even when
        #: unchanged — the bus gives no delivery acknowledgement, so a
        #: forward sent while the radio proxy was down would otherwise be
        #: lost until the next frequency *change*.
        self.refresh_interval = refresh_interval
        self.tune_commands = 0
        self._last_frequency: float = 0.0
        self._last_forward_at: float = float("-inf")

    def on_message(self, message: Message) -> None:
        if not isinstance(message, CommandMessage) or message.verb != "tune":
            return
        try:
            frequency = float(message.params["frequency_hz"])
        except (KeyError, ValueError):
            self.trace(ev.BAD_TUNE_COMMAND, severity=Severity.WARNING)
            return
        text = self._take_tune(frequency, self.kernel.now)
        if text is not None and self.send(self._radio_set_freq(text)):
            self._forwarded(frequency, self.kernel.now)

    def _take_tune(self, frequency: float, at: SimTime) -> Optional[str]:
        """Count a tune arriving at ``at``: the frequency text to forward,
        or ``None`` when rtu drops it.  Retuning to the same frequency
        wastes the radio's settle time, so a change goes at once and an
        unchanged value only as a refresh.  ses's folded loop replays its
        skipped tunes through here at their own arrivals."""
        self.tune_commands += 1
        if (
            frequency == self._last_frequency
            and at - self._last_forward_at < self.refresh_interval
        ):
            return None
        return f"{frequency:.1f}"

    def _forwarded(self, frequency: float, at: SimTime) -> None:
        """The forward of a tune taken at ``at`` left for the radio proxy."""
        self._last_frequency = frequency
        self._last_forward_at = at

    def _radio_set_freq(self, text: str) -> CommandMessage:
        return CommandMessage(
            sender=self.name,
            target=self.radio_proxy_name,
            verb="radio-set-freq",
            params={"frequency_hz": text},
        )

    def on_start(self) -> None:
        super().on_start()
        self._last_frequency = 0.0
        self._last_forward_at = float("-inf")
