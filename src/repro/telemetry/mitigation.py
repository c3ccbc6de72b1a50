"""Detect -> mitigate glue: alerts arming the platform's defenses.

The paper's attack playbook (section 4.3) is reactive: scoring filters
and firewall rules exist ahead of time, but the aggressive ones are
*enabled* when monitoring detects an anomaly. This module closes that
loop for the repro: a :class:`Mitigator` binds an alert name to a
concrete action, engaged on alert raise and stood down on clear.
:class:`RollbackArm` binds one to a safe-rollout zone rollback; the
staged filter and firewall mitigations live on the defense ladder
(:mod:`repro.control.defense`), which adds soak, hysteresis and a
collateral-damage guardrail around them.

Arming **changes simulation behaviour by design**, which is exactly
what the passive telemetry contract forbids by default. So
:func:`arm` refuses to attach unless the session was created with
``TelemetryConfig(arm_mitigations=True)``; experiments that want the
closed loop opt in explicitly, and every default run stays
byte-identical with telemetry on or off.
"""

from __future__ import annotations

from . import Telemetry
from .alerts import Alert


class Mitigator:
    """Binds one alert name to an engage/stand-down action pair."""

    #: Alert name this mitigator responds to (set by subclass/ctor).
    alert_name: str

    def __init__(self, alert_name: str) -> None:
        self.alert_name = alert_name
        self.engaged = 0
        self.stood_down = 0
        #: Whether the arm is currently engaged. Alert flapping (or a
        #: misbehaving caller) can deliver raise/clear edges out of
        #: step; the wiring below makes a second engage — and a
        #: stand-down with nothing engaged — a no-op rather than letting
        #: an arm double-apply or double-withdraw its action.
        self.active = False

    def engage(self, alert: Alert) -> None:
        raise NotImplementedError

    def stand_down(self, alert: Alert) -> None:
        raise NotImplementedError

    # -- wiring --------------------------------------------------------------

    def _on_raise(self, alert: Alert) -> None:
        if alert.name != self.alert_name or self.active:
            return
        self.active = True
        self.engaged += 1
        self.engage(alert)

    def _on_clear(self, alert: Alert) -> None:
        if alert.name != self.alert_name or not self.active:
            return
        self.active = False
        self.stood_down += 1
        self.stand_down(alert)


class RollbackArm(Mitigator):
    """Trigger a safe-rollout zone rollback while an alert is active.

    Binds an alert (e.g. a SERVFAIL-ratio or probe-failure detector) to
    :meth:`~repro.control.rollout.RolloutCoordinator.rollback_origin`
    for one origin: an in-flight canary release is rolled back, and
    with nothing in flight the last-known-good version is republished
    fleet-wide. Rollback is not reversible, so the alert clearing does
    nothing — re-promotion happens by publishing a fixed update through
    the train, never by automation.
    """

    def __init__(self, alert_name: str, coordinator, origin) -> None:
        super().__init__(alert_name)
        self.coordinator = coordinator
        self.origin = origin
        self.rollbacks_triggered = 0

    def engage(self, alert: Alert) -> None:
        if self.coordinator.rollback_origin(
                self.origin, reason=f"alert {alert.name!r} raised"):
            self.rollbacks_triggered += 1

    def stand_down(self, alert: Alert) -> None:
        """Deliberate no-op: a rollback cannot be un-rolled-back."""


def arm(telemetry: Telemetry, *mitigators: Mitigator) -> None:
    """Attach mitigators to a session's alert callbacks.

    Raises ``ValueError`` unless the session opted in with
    ``TelemetryConfig(arm_mitigations=True)`` — see the module
    docstring for why passive sessions must never mutate the sim.
    """
    if not telemetry.config.arm_mitigations:
        raise ValueError(
            "mitigation arming requires TelemetryConfig("
            "arm_mitigations=True); passive sessions must not mutate "
            "simulation state")
    for mitigator in mitigators:
        telemetry.alerts.on_raise.append(mitigator._on_raise)
        telemetry.alerts.on_clear.append(mitigator._on_clear)
