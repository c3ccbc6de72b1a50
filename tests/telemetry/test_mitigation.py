"""Alert-driven mitigation: explicit opt-in, engage/stand-down cycle."""

import pytest

from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.alerts import GaugeDetector
from repro.telemetry.mitigation import Mitigator, arm


class _RecordingMitigator(Mitigator):
    """Counts how often its action is applied and currently in force."""

    def __init__(self, alert_name: str) -> None:
        super().__init__(alert_name)
        self.applied = 0

    def engage(self, alert) -> None:
        self.applied += 1

    def stand_down(self, alert) -> None:
        self.applied -= 1


def _telemetry(opt_in):
    telemetry = Telemetry(TelemetryConfig(arm_mitigations=opt_in))
    telemetry.alerts.add(
        GaugeDetector("queue-depth", window=1.0, threshold=10.0,
                      clear_windows=1),
        "queue_depth")
    return telemetry


def _raise_then_clear(telemetry):
    telemetry.alerts.observe("queue_depth", 0.5, 50.0)   # breach
    telemetry.alerts.observe("queue_depth", 1.5, 0.0)    # calm
    telemetry.alerts.finalize(2.0)


class TestOptIn:
    def test_passive_session_refuses_arming(self):
        telemetry = _telemetry(opt_in=False)
        mitigator = _RecordingMitigator("queue-depth")
        with pytest.raises(ValueError):
            arm(telemetry, mitigator)
        # Refusal means no callbacks were attached either.
        assert telemetry.alerts.on_raise == []
        assert telemetry.alerts.on_clear == []

    def test_default_config_is_passive(self):
        assert Telemetry().config.arm_mitigations is False


class TestArm:
    def test_engaged_on_raise_stood_down_on_clear(self):
        telemetry = _telemetry(opt_in=True)
        mitigator = _RecordingMitigator("queue-depth")
        arm(telemetry, mitigator)

        telemetry.alerts.observe("queue_depth", 0.5, 50.0)
        telemetry.alerts.observe("queue_depth", 1.2, 50.0)  # close win 0
        assert mitigator.active and mitigator.applied == 1
        telemetry.alerts.observe("queue_depth", 2.5, 0.0)   # calm window
        telemetry.alerts.finalize(3.0)
        assert not mitigator.active and mitigator.applied == 0
        assert mitigator.engaged == 1
        assert mitigator.stood_down == 1

    def test_other_alerts_ignored(self):
        telemetry = _telemetry(opt_in=True)
        mitigator = _RecordingMitigator("nxdomain-ratio")
        arm(telemetry, mitigator)
        _raise_then_clear(telemetry)   # raises "queue-depth", not ours
        assert mitigator.engaged == 0
        assert mitigator.applied == 0


class TestReentrancy:
    """Out-of-step raise/clear edges must not double-apply an arm."""

    @staticmethod
    def alert(name="queue-depth"):
        from repro.telemetry.alerts import Alert, AlertSeverity
        return Alert(name=name, severity=AlertSeverity.WARNING, epoch=0,
                     raised_at=1.0, value=50.0, threshold=10.0,
                     message="test")

    def test_duplicate_raise_engages_once(self):
        mitigator = _RecordingMitigator("queue-depth")
        mitigator._on_raise(self.alert())
        mitigator._on_raise(self.alert())   # flapping detector, same arm
        assert mitigator.engaged == 1
        assert mitigator.active
        assert mitigator.applied == 1

    def test_clear_without_engage_is_noop(self):
        mitigator = _RecordingMitigator("queue-depth")
        mitigator._on_clear(self.alert())
        assert mitigator.stood_down == 0
        assert not mitigator.active
        assert mitigator.applied == 0

    def test_full_cycle_rearms(self):
        mitigator = _RecordingMitigator("queue-depth")
        for _ in range(2):
            mitigator._on_raise(self.alert())
            mitigator._on_clear(self.alert())
        assert (mitigator.engaged, mitigator.stood_down) == (2, 2)
        assert mitigator.applied == 0

    def test_duplicate_edges_apply_and_withdraw_once(self):
        mitigator = _RecordingMitigator("queue-depth")
        mitigator._on_raise(self.alert())
        mitigator._on_raise(self.alert())
        assert mitigator.applied == 1
        mitigator._on_clear(self.alert())
        mitigator._on_clear(self.alert())
        assert mitigator.applied == 0
        assert mitigator.stood_down == 1
