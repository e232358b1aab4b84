"""The event schema registry: every trace event kind, declared once.

Before this module existed, ~45 free-string ``kind`` values were scattered
through the detector, recoverer, process manager, fault injectors, bus, and
Mercury components, and every consumer (episode narratives, metrics,
reports) re-derived meaning from raw strings.  Here each kind is declared
exactly once as an :class:`EventSpec` — with its layer, expected payload
keys and an optional narrative formatter — and emit sites reference the
registered constant.  Which kinds mark which recovery phase is the
episode fold's business (:class:`repro.obs.spans.EpisodeTracker`):

>>> from repro.obs import events as ev
>>> ev.FAILURE_DETECTED
'failure_detected'
>>> ev.REGISTRY.get(ev.FAILURE_DETECTED).layer
'detection'

Validation is opt-in (:func:`set_validation`; the test suite turns it on
for every test): when enabled, :class:`~repro.sim.trace.Trace`
checks every emitted record against the registry — unknown kinds and
missing required payload keys raise :class:`ObsValidationError`.  When
disabled (the default) there is zero per-emit overhead beyond one
attribute check, preserving the hot-loop fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional

from repro.errors import SimulationError


class ObsValidationError(SimulationError):
    """An emitted event violated its registered schema."""


#: Formats a record's payload into a human narrative line (or None to skip).
NarrativeFn = Callable[[Mapping[str, Any]], Optional[str]]


@dataclass(frozen=True)
class EventSpec:
    """Schema for one event kind.

    Attributes
    ----------
    kind:
        The machine-readable kind string carried by trace records.
    layer:
        Owning subsystem (``"proc"``, ``"detection"``, ``"recovery"``,
        ``"faults"``, ``"bus"``, ``"net"``, ``"mercury"``, ``"hw"``,
        ``"passes"``).
    description:
        One-line human description, used by the catalogue docs and CLI.
    required:
        Payload keys that must be present (validation mode enforces).
    optional:
        Payload keys that may be present.  Extra keys beyond
        ``required | optional`` are rejected only when ``strict`` is set.
    narrative:
        Optional formatter turning a record payload into one line of
        ``repro explain``'s episode narrative.
    strict:
        When True, validation also rejects payload keys outside the
        declared schema (kinds with open-ended payloads leave this off).
    """

    kind: str
    layer: str
    description: str = ""
    required: FrozenSet[str] = frozenset()
    optional: FrozenSet[str] = frozenset()
    narrative: Optional[NarrativeFn] = field(default=None, compare=False)
    strict: bool = True


class EventRegistry:
    """All declared event kinds, with schema validation."""

    def __init__(self) -> None:
        self._specs: Dict[str, EventSpec] = {}

    def register(
        self,
        kind: str,
        layer: str,
        description: str = "",
        required: tuple = (),
        optional: tuple = (),
        narrative: Optional[NarrativeFn] = None,
        strict: bool = True,
    ) -> str:
        """Declare a kind; returns the kind string (used as the constant)."""
        if kind in self._specs:
            raise ObsValidationError(f"event kind {kind!r} declared twice")
        self._specs[kind] = EventSpec(
            kind=kind,
            layer=layer,
            description=description,
            required=frozenset(required),
            optional=frozenset(optional),
            narrative=narrative,
            strict=strict,
        )
        return kind

    def get(self, kind: str) -> EventSpec:
        """The spec for ``kind``; raises for unregistered kinds."""
        try:
            return self._specs[kind]
        except KeyError:
            raise ObsValidationError(f"unregistered event kind {kind!r}") from None

    def is_registered(self, kind: str) -> bool:
        """Whether ``kind`` has been declared."""
        return kind in self._specs

    def validate(self, kind: str, data: Mapping[str, Any]) -> None:
        """Check one emitted event against its declared schema."""
        spec = self.get(kind)
        missing = spec.required - data.keys()
        if missing:
            raise ObsValidationError(
                f"event {kind!r} missing required payload keys {sorted(missing)} "
                f"(got {sorted(data)})"
            )
        if spec.strict:
            extra = data.keys() - spec.required - spec.optional
            if extra:
                raise ObsValidationError(
                    f"event {kind!r} carries undeclared payload keys {sorted(extra)}"
                )

    def narrative_for(self, kind: str, data: Mapping[str, Any]) -> Optional[str]:
        """Human phrasing for a record, or None when the kind has none."""
        spec = self._specs.get(kind)
        if spec is None or spec.narrative is None:
            return None
        return spec.narrative(data)


#: The process-wide registry all repro subsystems declare into.
REGISTRY = EventRegistry()


# ----------------------------------------------------------------------
# validation mode (debug switch)
# ----------------------------------------------------------------------

_validation_enabled = False


def validation_enabled() -> bool:
    """Whether newly created traces validate events against the registry."""
    return _validation_enabled


def set_validation(enabled: bool) -> None:
    """Globally enable/disable schema validation for new traces."""
    global _validation_enabled
    _validation_enabled = bool(enabled)


# ----------------------------------------------------------------------
# narrative helpers (kept tiny; the phrasing is part of the declaration)
# ----------------------------------------------------------------------


def _components_list(data: Mapping[str, Any]) -> str:
    return ", ".join(data.get("components", ()))


# ----------------------------------------------------------------------
# declarations — process lifecycle (repro.procmgr)
# ----------------------------------------------------------------------

PROCESS_START = REGISTRY.register(
    "process_start", "proc",
    "A process began its startup work.",
    required=("name", "work"),
    narrative=lambda d: f"{d['name']} starting (work {d.get('work')}s)",
)
PROCESS_READY = REGISTRY.register(
    "process_ready", "proc",
    "A process finished starting and is functionally ready.",
    required=("name",),
    narrative=lambda d: f"{d['name']} functionally ready",
)
PROCESS_FAILED = REGISTRY.register(
    "process_failed", "proc",
    "A process died from a failure (SIGKILL-style).",
    required=("name", "signal", "was_starting"),
)
PROCESS_STOPPED = REGISTRY.register(
    "process_stopped", "proc",
    "A process was stopped deliberately (supervised restart).",
    required=("name", "signal", "was_starting"),
)
PROCESS_DEGRADED = REGISTRY.register(
    "process_degraded", "proc",
    "A running process entered a fail-slow mode: 'hang' (alive, answers "
    "nothing) or 'zombie' (answers pings, drops real work).",
    required=("name", "mode"), optional=("failure_id",),
    narrative=lambda d: f"{d['name']} degraded to {d.get('mode')} mode",
)

# ----------------------------------------------------------------------
# declarations — bus broker and bus-attached components
# ----------------------------------------------------------------------

BUS_LISTENING = REGISTRY.register(
    "bus_listening", "bus", "The broker opened its listen address.",
    required=("address",),
)
BUS_ATTACHED = REGISTRY.register(
    "bus_attached", "bus", "A component attached to the bus.",
    required=("client",),
)
BUS_DETACHED = REGISTRY.register(
    "bus_detached", "bus", "A component's bus connection closed.",
    required=("client",),
)
BUS_BAD_MESSAGE = REGISTRY.register(
    "bus_bad_message", "bus", "The broker received an unparsable message.",
    required=("error",),
)
BUS_UNROUTABLE = REGISTRY.register(
    "bus_unroutable", "bus", "A message targeted an unattached component.",
    required=("target",),
)
BUS_CONNECTED = REGISTRY.register(
    "bus_connected", "bus", "A component (re)connected to the bus.",
)
BUS_CONNECTION_LOST = REGISTRY.register(
    "bus_connection_lost", "bus", "A component lost its bus connection.",
)
BAD_MESSAGE = REGISTRY.register(
    "bad_message", "bus", "A component received an unparsable bus message.",
    required=("error",),
)

# ----------------------------------------------------------------------
# declarations — failure detection (FD and the abstract supervisor)
# ----------------------------------------------------------------------

CTL_CONNECTED = REGISTRY.register(
    "ctl_connected", "detection", "FD connected to REC's control address.",
)
SUPPRESSION_BEGIN = REGISTRY.register(
    "suppression_begin", "detection",
    "FD stopped judging components named in a restart order.",
    required=("components",),
)
SUPPRESSION_END = REGISTRY.register(
    "suppression_end", "detection",
    "FD resumed judging components after a restart completed (or after "
    "restarting a dead REC whose orders can no longer complete).",
    required=("components",), optional=("reason",),
)
COMPONENT_RECOVERED_OBSERVED = REGISTRY.register(
    "component_recovered_observed", "detection",
    "A suspected component answered a ping again.",
    required=("component",),
)
FAILURE_DETECTED = REGISTRY.register(
    "failure_detected", "detection",
    "FD's miss counter crossed the declaration threshold.",
    required=("component",),
)
DETECTION = REGISTRY.register(
    "detection", "detection",
    "The supervisor declared a component failed (canonical detect mark).",
    required=("component",),
    optional=("via",),
    narrative=lambda d: f"FD detected {d['component']}",
)
DETECTION_RETRACTED = REGISTRY.register(
    "detection_retracted", "detection",
    "A declared component answered before its restart order landed; the "
    "declaration was withdrawn (spurious-restart guard).",
    required=("component",), optional=("via",),
    narrative=lambda d: f"FD retracted its declaration of {d['component']}",
)
DETECTION_FALSE_POSITIVE = REGISTRY.register(
    "detection_false_positive", "detection",
    "FD declared a component that was in fact running and undegraded "
    "(ground-truth accounting; the detector itself cannot see this).",
    required=("component",), optional=("via",),
)
PARTITION_SUSPECTED = REGISTRY.register(
    "partition_suspected", "detection",
    "Every monitored component missed in one ping round; FD attributes "
    "the silence to the network, not the components.",
    required=("components",),
    narrative=lambda d: (
        f"FD suspects a partition (all of {_components_list(d)} silent)"
    ),
)
PARTITION_CLEARED = REGISTRY.register(
    "partition_cleared", "detection",
    "A ping reply arrived while a partition was suspected.",
    optional=("component",),
)
REC_RESTART = REGISTRY.register(
    "rec_restart", "detection",
    "FD restarted an unresponsive REC (mutual-recovery special case).",
    narrative=lambda d: "FD restarted unresponsive REC",
)
FD_RESTART = REGISTRY.register(
    "fd_restart", "recovery",
    "REC restarted an unresponsive FD (mutual-recovery special case).",
    narrative=lambda d: "REC restarted unresponsive FD",
)

# ----------------------------------------------------------------------
# declarations — recovery (REC / policy execution)
# ----------------------------------------------------------------------

REC_LISTENING = REGISTRY.register(
    "rec_listening", "recovery", "REC opened its control listen address.",
    required=("address",),
)
FAILURE_REPORTED = REGISTRY.register(
    "failure_reported", "recovery",
    "A failure report for a component reached REC.",
    required=("component",),
    narrative=lambda d: f"FD reported {d['component']} to REC",
)
DECISION_IGNORE = REGISTRY.register(
    "decision_ignore", "recovery",
    "The policy chose to ignore a report (duplicate/within observation).",
    required=("component",), optional=("reason",),
)
OPERATOR_ESCALATION = REGISTRY.register(
    "operator_escalation", "recovery",
    "Automated recovery gave up; a human operator is required.",
    required=("component",), optional=("reason",),
    narrative=lambda d: (
        f"OPERATOR ESCALATION for {d['component']}: {d.get('reason')}"
    ),
)
RESTART_ORDERED = REGISTRY.register(
    "restart_ordered", "recovery",
    "The supervisor ordered a restart of one cell's component group.",
    required=("cell", "components"),
    optional=("trigger", "procedure", "oracle_cell", "strategy"),
    narrative=lambda d: (
        f"restart ordered: {d['cell']} (components: {_components_list(d)}; "
        f"trigger: {d.get('trigger')})"
    ),
)
RESTART_REKICK = REGISTRY.register(
    "restart_rekick", "recovery",
    "The engine re-started a batch member that died before its restart step completed.",
    required=("components",),
    narrative=lambda d: f"re-kicked {_components_list(d)}, dead before its restart completed",
)
RESTART_COMPLETE = REGISTRY.register(
    "restart_complete", "recovery",
    "Every member of a restart batch has been functionally ready.",
    required=("components",), optional=("cell",),
    narrative=lambda d: f"restart complete: {d.get('cell')}",
)
EPISODE_CLOSED = REGISTRY.register(
    "episode_closed", "recovery",
    "The post-restart observation window expired with the cure holding.",
    required=("component",),
    narrative=lambda d: f"episode closed for {d['component']} (cure held)",
)
REPORT_RETRACTED = REGISTRY.register(
    "report_retracted", "recovery",
    "FD withdrew a queued failure report before REC acted on it.",
    required=("component",),
    narrative=lambda d: f"REC dropped the retracted report for {d['component']}",
)
PROACTIVE_RESTART = REGISTRY.register(
    "proactive_restart", "recovery",
    "A rejuvenation round restarted a cell prophylactically.",
    required=("cell",),
    narrative=lambda d: f"proactive (rejuvenation) restart of {d.get('cell')}",
)

# ----------------------------------------------------------------------
# declarations — recovery-strategy lifecycle (plan → execute → verify)
# ----------------------------------------------------------------------
# Emitted only by non-``restart`` strategies: the default strategy's
# trace stays bit-identical to the pre-registry recoverer.

STRATEGY_PLANNED = REGISTRY.register(
    "strategy_planned", "recovery",
    "A non-default recovery strategy planned its first step.",
    required=("cell", "strategy"),
    optional=("batch", "expecting", "trigger"),
    narrative=lambda d: (
        f"strategy {d['strategy']} planned for {d['cell']} "
        f"(expecting: {'+'.join(d.get('expecting', ()))})"
    ),
)
BISECT_PROBE = REGISTRY.register(
    "bisect_probe", "recovery",
    "The bisect ladder widened to its next probe set.",
    required=("cell", "components", "round"),
    narrative=lambda d: (
        f"bisect probe #{d['round']} on {d['cell']}: {_components_list(d)}"
    ),
)
STRATEGY_VERIFIED = REGISTRY.register(
    "strategy_verified", "recovery",
    "A non-default recovery strategy verified its action complete, with "
    "the action's time attributed to the plan/execute/verify phases.",
    required=("cell", "strategy"),
    optional=("plan_s", "execute_s", "verify_s", "rounds"),
    narrative=lambda d: (
        f"strategy {d['strategy']} verified on {d['cell']} "
        f"(execute {d.get('execute_s')}s, verify {d.get('verify_s')}s)"
    ),
)

# ----------------------------------------------------------------------
# declarations — fault injection and correlated-failure mechanisms
# ----------------------------------------------------------------------

FAILURE_INJECTED = REGISTRY.register(
    "failure_injected", "faults",
    "A failure was injected into its manifest component.",
    required=("component", "failure_id", "cure_set", "failure_kind"),
    narrative=lambda d: (
        f"failure injected in {d['component']} "
        f"(cure set: {'+'.join(d.get('cure_set', ()))})"
    ),
)
FAILURE_CURED = REGISTRY.register(
    "failure_cured", "faults",
    "A restart covering the minimal cure set completed; the failure is gone.",
    required=("component", "failure_id"), optional=("failure_kind",),
    narrative=lambda d: f"failure in {d['component']} cured",
)
FAILURE_REMANIFESTED = REGISTRY.register(
    "failure_remanifested", "faults",
    "An insufficient restart completed and the failure manifested again.",
    required=("component", "failure_id"),
    narrative=lambda d: (
        f"failure re-manifested in {d['component']} (restart did not cure)"
    ),
)
FAILURE_INDUCED = REGISTRY.register(
    "failure_induced", "faults",
    "A correlated mechanism (resync coupling, aging) induced a failure.",
    required=("component", "provoker", "mechanism"),
    narrative=lambda d: (
        f"induced failure in {d['component']} "
        f"(mechanism: {d.get('mechanism')}, provoker: {d.get('provoker')})"
    ),
)
VICTIM_AGED = REGISTRY.register(
    "victim_aged", "faults",
    "A provoker disconnect aged its victim by one unit.",
    required=("component", "provoker", "age", "threshold"),
)

# ----------------------------------------------------------------------
# declarations — network fault fabric (repro.transport)
# ----------------------------------------------------------------------

NET_LINK_DEGRADED = REGISTRY.register(
    "net_link_degraded", "net",
    "A link (or the all-links default) started dropping/delaying traffic.",
    required=("link",),
    optional=("drop", "spike_probability", "duplicate_probability", "duration"),
    narrative=lambda d: (
        f"network degraded on {d['link']} (drop {d.get('drop')})"
    ),
)
NET_LINK_RESTORED = REGISTRY.register(
    "net_link_restored", "net",
    "A degraded link returned to clean delivery.",
    required=("link",),
)
NET_PARTITION_BEGIN = REGISTRY.register(
    "net_partition_begin", "net",
    "A bidirectional partition cut one named link.",
    required=("link", "until"),
    narrative=lambda d: f"network partition on {d['link']}",
)
NET_PARTITION_END = REGISTRY.register(
    "net_partition_end", "net",
    "A partition healed (timed or manual).",
    required=("link",),
    narrative=lambda d: f"network partition on {d['link']} healed",
)

# ----------------------------------------------------------------------
# declarations — Mercury components
# ----------------------------------------------------------------------

PBCOM_LISTENING = REGISTRY.register(
    "pbcom_listening", "mercury", "pbcom opened its fedr-facing address.",
    required=("address",),
)
FEDR_CONNECTED = REGISTRY.register(
    "fedr_connected", "mercury", "fedr's connection reached pbcom.",
)
FEDR_DISCONNECTED = REGISTRY.register(
    "fedr_disconnected", "mercury", "fedr's connection to pbcom dropped.",
)
PBCOM_CONNECTED = REGISTRY.register(
    "pbcom_connected", "mercury", "fedr connected to pbcom.",
)
PBCOM_CONNECTION_LOST = REGISTRY.register(
    "pbcom_connection_lost", "mercury", "fedr lost its pbcom connection.",
)
BAD_RADIO_COMMAND = REGISTRY.register(
    "bad_radio_command", "mercury", "A malformed radio command arrived.",
    optional=("error", "raw"),
)
BAD_RADIO_SET_FREQ = REGISTRY.register(
    "bad_radio_set_freq", "mercury", "A malformed set-frequency command.",
)
BAD_TRACK_COMMAND = REGISTRY.register(
    "bad_track_command", "mercury", "A malformed tracking command.",
)
BAD_TUNE_COMMAND = REGISTRY.register(
    "bad_tune_command", "mercury", "A malformed tune command.",
)
POINTING_REJECTED = REGISTRY.register(
    "pointing_rejected", "mercury", "The antenna rejected a pointing order.",
    required=("error",),
)

# ----------------------------------------------------------------------
# declarations — crash-only session store (microreboot / checkpoint-replay)
# ----------------------------------------------------------------------
# Emitted only when a station runs with a session store attached; the
# classic restart-only configuration emits none of these.

SESSION_EXTERNALIZED = REGISTRY.register(
    "session_externalized", "mercury",
    "A component saved its established session into the crash-only store.",
    required=("component",), optional=("peer",),
    narrative=lambda d: f"{d['component']} externalized its session",
)
SESSION_RESTORED = REGISTRY.register(
    "session_restored", "mercury",
    "A micro-restarted component restored its session from the store, "
    "skipping the resync handshake.",
    required=("component",), optional=("age",),
    narrative=lambda d: f"{d['component']} restored its session (microreboot)",
)
SESSION_LOST = REGISTRY.register(
    "session_lost", "mercury",
    "A cold restart discarded a component's externalized session "
    "(user-visible loss; the strategy comparison counts these).",
    required=("component",), optional=("reason",),
    narrative=lambda d: f"{d['component']} lost its session (cold restart)",
)
CHECKPOINT_TAKEN = REGISTRY.register(
    "checkpoint_taken", "mercury",
    "A component checkpointed its state into the crash-only store.",
    required=("component",),
)
CHECKPOINT_RESTORED = REGISTRY.register(
    "checkpoint_restored", "mercury",
    "A replay-restarted component restored its last checkpoint.",
    required=("component",), optional=("age",),
    narrative=lambda d: f"{d['component']} restored its checkpoint (replay)",
)
REPLAY_WINDOW = REGISTRY.register(
    "replay_window", "mercury",
    "A replay-restarted component replayed its bounded inbound message log.",
    required=("component", "messages"),
    narrative=lambda d: (
        f"{d['component']} replayed {d['messages']} logged messages"
    ),
)

# ----------------------------------------------------------------------
# declarations — session-store failure model and the crash-only
# recovery plane (store outages, watchdog restarts, plan fencing)
# ----------------------------------------------------------------------
# Emitted only when a StoreFaultModel is attached or a supervisor is
# actually restarted; classic and healthy-store runs emit none of these.

STORE_CRASHED = REGISTRY.register(
    "store_crashed", "store",
    "The session storelet entered an outage window (crash or hang).",
    required=("mode", "duration"),
    narrative=lambda d: f"session store {d['mode']} for {d['duration']}s",
)
STORE_RECOVERED = REGISTRY.register(
    "store_recovered", "store",
    "The session storelet's outage window ended; operations succeed again.",
    narrative=lambda d: "session store recovered",
)
STORE_OP_TIMEOUT = REGISTRY.register(
    "store_op_timeout", "store",
    "A store operation exhausted its per-op timeout and retry/backoff "
    "ladder (rate-limited to one per caller+op per outage).",
    required=("op", "component", "waited"),
    narrative=lambda d: (
        f"store {d['op']} for {d['component']} timed out after {d['waited']}s"
    ),
)
STORE_RECORD_QUARANTINED = REGISTRY.register(
    "store_record_quarantined", "store",
    "A record failed checksum validation and was quarantined; when the "
    "last good version survives it is recovered in place.",
    required=("component", "record"), optional=("recovered",),
    narrative=lambda d: (
        f"store quarantined a corrupt {d['record']} record of {d['component']}"
    ),
)
STRATEGY_FALLBACK = REGISTRY.register(
    "strategy_fallback", "recovery",
    "A store-dependent recovery strategy found the store unavailable "
    "within the timeout ladder and fell back to a plain cold restart.",
    required=("cell", "strategy", "fallback"), optional=("reason", "waited"),
    narrative=lambda d: (
        f"{d['strategy']} fell back to {d['fallback']} for cell {d['cell']}"
    ),
)
SUPERVISOR_RESTARTED = REGISTRY.register(
    "supervisor_restarted", "recovery",
    "A restarted supervisor came back crash-only and rebuilt its view "
    "from the event stream and the store.",
    required=("supervisor", "generation"),
    optional=("reconciled", "dropped"),
    narrative=lambda d: (
        f"{d['supervisor']} restarted (generation {d['generation']})"
    ),
)
PLAN_FENCED = REGISTRY.register(
    "plan_fenced", "recovery",
    "A recovery-plan step authored before its supervisor's restart was "
    "fenced by the generation guard instead of executing.",
    required=("generation",), optional=("stale_generation", "cell"),
    narrative=lambda d: "a stale pre-crash recovery plan step was fenced",
)
ORACLE_REBUILT = REGISTRY.register(
    "oracle_rebuilt", "recovery",
    "A restarted supervisor rebuilt the learning oracle's estimates from "
    "the store (or started naive when the store was down).",
    required=("origin",), optional=("entries",),
    narrative=lambda d: f"oracle rebuilt from {d['origin']}",
)

# ----------------------------------------------------------------------
# declarations — simulated hardware and satellite passes
# ----------------------------------------------------------------------

PORT_ACQUIRED = REGISTRY.register(
    "port_acquired", "hw", "A component acquired the serial port.",
    required=("holder",),
)
PORT_RELEASED = REGISTRY.register(
    "port_released", "hw", "A component released the serial port.",
    required=("holder",),
)
RADIO_NEGOTIATED = REGISTRY.register(
    "negotiated", "hw", "The radio finished its negotiation phase.",
    required=("by",),
)
RADIO_TUNED = REGISTRY.register(
    "tuned", "hw", "The radio was tuned to a frequency.",
    required=("hz", "by"),
)
PASS_BEGIN = REGISTRY.register(
    "pass_begin", "passes", "A satellite pass window opened.",
    required=("satellite", "duration", "max_elevation"),
)
PASS_END = REGISTRY.register(
    "pass_end", "passes", "A satellite pass window closed (with accounting).",
    required=("satellite", "received_kb", "lost_kb", "link_broken"),
)

# ----------------------------------------------------------------------
# declarations — fleet-scale simulation (ground segment + station shells)
# ----------------------------------------------------------------------

GROUND_WAVE = REGISTRY.register(
    "ground_wave", "fleet",
    "The ground segment launched a correlated fault wave at one station group.",
    required=("wave_id", "group", "stations", "component", "failure_kind"),
    narrative=lambda d: (
        f"ground wave {d['wave_id']} hit group {d['group']} "
        f"({d['stations']} stations, {d['component']}/{d['failure_kind']})"
    ),
)
FLEET_DIRECTIVE = REGISTRY.register(
    "fleet_directive", "fleet",
    "A station applied a cross-fleet directive from the ground segment.",
    required=("directive", "src"),
    optional=("component", "failure_kind", "drop", "duration"),
    narrative=lambda d: f"fleet directive {d['directive']} from member {d['src']}",
)
FLEET_STATUS = REGISTRY.register(
    "fleet_status", "fleet",
    "The ground segment received a station status report.",
    required=("station", "component"),
    optional=("failure_id",),
    narrative=lambda d: (
        f"station {d['station']} reported {d['component']} recovered"
    ),
)

# ----------------------------------------------------------------------
# declarations — user-traffic plane (end-user effects)
# ----------------------------------------------------------------------

WORKLOAD_REQUEST_RETRIED = REGISTRY.register(
    "workload_request_retried", "workload",
    "A user request timed out client-side and was re-sent.",
    required=("req", "op", "attempt", "phase"),
    narrative=lambda d: (
        f"request {d['req']} ({d['op']}) retried "
        f"(attempt {d['attempt']}, phase {d['phase']})"
    ),
)
WORKLOAD_REQUEST_FAILED = REGISTRY.register(
    "workload_request_failed", "workload",
    "A user request exhausted its retries (user-visible error).",
    required=("req", "op", "attempts", "phase"),
    narrative=lambda d: (
        f"request {d['req']} ({d['op']}) failed after "
        f"{d['attempts']} attempts (phase {d['phase']})"
    ),
)
WORKLOAD_SESSION_ABANDONED = REGISTRY.register(
    "workload_session_abandoned", "workload",
    "A user session chain died on a failed request (session loss).",
    required=("session", "completed", "remaining"),
    narrative=lambda d: (
        f"session {d['session']} abandoned "
        f"({d['completed']} done, {d['remaining']} never issued)"
    ),
)
WORKLOAD_REPORT = REGISTRY.register(
    "workload_report", "workload",
    "End-of-run user-effects summary from the workload plane.",
    required=("offered", "ok", "failed", "abandoned", "sessions_lost"),
    narrative=lambda d: (
        f"workload: {d['ok']}/{d['offered']} served, "
        f"{d['failed']} failed, {d['sessions_lost']} sessions lost"
    ),
)
