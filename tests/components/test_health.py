"""Tests for the end-to-end prober (zombie unmasking machinery)."""

import pytest

from repro.components.base import E2E_PROBE_REPLY_VERB
from repro.components.health import EndToEndProber, make_probe, probe_reply_info
from repro.xmlcmd.commands import CommandMessage


class FakeWire:
    """Captures outgoing probes; replies are scripted per component."""

    def __init__(self, answering):
        self.answering = set(answering)
        self.sent = []

    def send(self, message):
        self.sent.append(message)
        return True


def prober_on(kernel, wire, suspects, recovered, **kwargs):
    prober = EndToEndProber(
        kernel,
        ["rtu", "ses"],
        wire.send,
        period=2.0,
        timeout=0.5,
        misses_to_suspect=2,
        on_suspect=suspects.append,
        on_recovered=recovered.append,
        **kwargs,
    )
    prober.start()
    return prober


def pump(kernel, wire, prober, seconds):
    """Run the sim, answering probes for components on the 'wire'."""
    deadline = kernel.now + seconds
    while kernel.now < deadline:
        kernel.run(until=min(deadline, kernel.now + 0.25))
        for message in wire.sent:
            if message.target in wire.answering:
                prober.on_reply(message.target, int(message.params["seq"]))
        wire.sent.clear()


def test_prober_validates_timeout_inside_period(kernel):
    with pytest.raises(ValueError):
        EndToEndProber(kernel, ["rtu"], lambda m: True, period=1.0, timeout=1.5)
    with pytest.raises(ValueError):
        EndToEndProber(kernel, ["rtu"], lambda m: True, misses_to_suspect=0)


def test_prober_suspects_after_consecutive_misses(kernel):
    suspects, recovered = [], []
    wire = FakeWire(answering=["ses"])  # rtu never answers
    prober = prober_on(kernel, wire, suspects, recovered)
    pump(kernel, wire, prober, 7.0)
    assert suspects == ["rtu"]
    assert recovered == []


def test_prober_recovers_when_component_answers_again(kernel):
    suspects, recovered = [], []
    wire = FakeWire(answering=["ses"])
    prober = prober_on(kernel, wire, suspects, recovered)
    pump(kernel, wire, prober, 7.0)
    wire.answering.add("rtu")  # the zombie was restarted
    pump(kernel, wire, prober, 5.0)
    assert recovered == ["rtu"]
    assert prober.probe_misses >= 2


def test_prober_skip_forgives_outstanding_misses(kernel):
    suspects, recovered = [], []
    wire = FakeWire(answering=["ses"])
    skipped = {"rtu"}
    prober = prober_on(
        kernel, wire, suspects, recovered, skip=lambda c: c in skipped
    )
    pump(kernel, wire, prober, 10.0)
    assert suspects == []  # suppressed components are never judged


def test_stale_reply_ignored(kernel):
    suspects, recovered = [], []
    wire = FakeWire(answering=[])
    prober = prober_on(kernel, wire, suspects, recovered)
    kernel.run(until=kernel.now + 2.1)  # one round sent
    assert wire.sent
    stale_seq = int(wire.sent[0].params["seq"]) - 100
    prober.on_reply(wire.sent[0].target, stale_seq)  # must not zero misses
    pump(kernel, wire, prober, 5.0)
    assert set(suspects) == {"rtu", "ses"}


def test_probe_reply_info_round_trip():
    probe = make_probe("fd", "rtu", 17)
    reply = CommandMessage(
        sender="rtu", target="fd", verb=E2E_PROBE_REPLY_VERB,
        params={"seq": probe.params["seq"]},
    )
    assert probe_reply_info(reply) == ("rtu", 17)
    assert probe_reply_info(probe) is None  # a request is not a reply
    bad = CommandMessage(sender="rtu", target="fd",
                         verb=E2E_PROBE_REPLY_VERB, params={"seq": "nope"})
    assert probe_reply_info(bad) is None
