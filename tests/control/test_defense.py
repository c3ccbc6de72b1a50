"""Defense ladder: arming, escalation, hysteresis, unwind, guardrail.

The controller is driven end-to-end through a real event loop and the
real alert pipeline: a ``GaugeDetector`` on a synthetic ``attack`` feed
raises/clears exactly like the scorecard's QPS detector, while
recording rungs log every engage/disengage with its timestamp. All
schedules (feed observations, traffic pumps) are installed up front, so
at equal times they run before the controller's later-scheduled ticks —
the timings asserted below are exact, not approximate.
"""

from types import SimpleNamespace

import pytest

from repro.control.defense import (
    DefenseController,
    DefenseParams,
    DefenseRung,
    FilterInsertRung,
    FirewallRuleRung,
    GuardrailParams,
)
from repro.dnscore import RType, name
from repro.filters.base import ScoringPipeline
from repro.netsim import EventLoop
from repro.server.firewall import QoDFirewall
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.alerts import GaugeDetector


class RecordingRung(DefenseRung):
    """A rung that logs transitions instead of mutating anything."""

    def __init__(self, name, log, **kwargs):
        super().__init__(name, **kwargs)
        self.log = log

    def engage(self, now):
        self.log.append((now, self.name, "engage"))

    def disengage(self, now):
        self.log.append((now, self.name, "disengage"))


class FakeMachine:
    """Records degraded-mode transitions the controller pushes at it."""

    def __init__(self):
        self.modes = []

    def enter_degraded(self, rung_label):
        self.modes.append(("enter", rung_label))

    def exit_degraded(self):
        self.modes.append(("exit",))


def make_params(**overrides):
    defaults = dict(check_period=1.0, for_ticks=2, clear_ticks=2,
                    soak_seconds=3.0,
                    guardrail=GuardrailParams(margin=0.25, min_samples=4))
    defaults.update(overrides)
    return DefenseParams(**defaults)


def make_session(n_rungs=3, *, params=None, estimator=None, machines=(),
                 ladder=None, log=None):
    loop = EventLoop()
    telemetry = Telemetry(TelemetryConfig(arm_mitigations=True))
    telemetry.alerts.add(
        GaugeDetector("attack-qps", window=1.0, threshold=10.0,
                      for_windows=1, clear_windows=1),
        "attack")
    if log is None:
        log = []
    if ladder is None:
        ladder = [RecordingRung(f"rung-{i}", log) for i in range(n_rungs)]
    controller = DefenseController(
        loop, ladder, params=params or make_params(),
        estimator=estimator, machines=machines).arm(telemetry)
    return loop, telemetry, controller, log


def feed(loop, telemetry, value_fn, until, period=0.5):
    """Schedule alert-feed observations every ``period`` seconds."""
    steps = int(round(until / period))
    for i in range(1, steps + 1):
        t = i * period
        loop.call_at(t, telemetry.alerts.observe, "attack", t,
                     value_fn(t))


def attack_between(start, end):
    """A feed that breaches the detector on [start, end)."""
    return lambda t: 50.0 if start <= t < end else 0.0


def engages(log):
    return [(t, rung) for t, rung, action in log if action == "engage"]


def disengages(log):
    return [(t, rung) for t, rung, action in log if action == "disengage"]


class TestArming:
    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            DefenseController(EventLoop(), [])

    def test_passive_session_refuses_arming(self):
        loop = EventLoop()
        telemetry = Telemetry(TelemetryConfig(arm_mitigations=False))
        controller = DefenseController(loop, [RecordingRung("r", [])])
        with pytest.raises(ValueError):
            controller.arm(telemetry)
        # Refusal means no callbacks were attached either.
        assert telemetry.alerts.on_raise == []
        assert telemetry.alerts.on_clear == []

    def test_arm_is_idempotent(self):
        loop, telemetry, controller, _ = make_session()
        controller.arm(telemetry)
        assert len(telemetry.alerts.on_raise) == 1
        assert len(telemetry.alerts.on_clear) == 1

    def test_quiet_armed_run_schedules_nothing(self):
        # The byte-identity contract: an armed controller must not
        # perturb the loop until the first alert raise.
        loop, telemetry, controller, log = make_session()
        assert loop.pending == 0
        loop.run_until(60.0)
        assert controller.level == 0
        assert controller.transitions == []
        assert log == []


class TestEscalation:
    def test_climbs_one_rung_per_soak_in_order(self):
        loop, telemetry, controller, log = make_session(3)
        feed(loop, telemetry, attack_between(0.0, 12.0), until=20.0)
        loop.run_until(25.0)
        # Raise at t=1.0; for_ticks=2 ticks later the first rung
        # engages, then one rung per 3 s soak.
        assert engages(log) == [(3.0, "rung-0"), (6.0, "rung-1"),
                                (9.0, "rung-2")]
        assert controller.max_level == 3

    def test_engage_waits_for_ticks(self):
        loop, telemetry, controller, log = make_session(
            1, params=make_params(for_ticks=4))
        feed(loop, telemetry, attack_between(0.0, 12.0), until=20.0)
        loop.run_until(25.0)
        assert engages(log)[0] == (5.0, "rung-0")

    def test_transition_levels_recorded(self):
        loop, telemetry, controller, _ = make_session(2)
        feed(loop, telemetry, attack_between(0.0, 8.0), until=16.0)
        loop.run_until(25.0)
        assert [(t.action, t.level) for t in controller.transitions] == [
            ("engage", 1), ("engage", 2),
            ("disengage", 1), ("disengage", 0)]


class TestUnwind:
    def test_unwinds_in_reverse_after_clear(self):
        loop, telemetry, controller, log = make_session(3)
        feed(loop, telemetry, attack_between(0.0, 12.0), until=20.0)
        loop.run_until(25.0)
        # Alert clears at t=13; clear_ticks=2 calm ticks per rung,
        # mildest rung last.
        assert disengages(log) == [(14.0, "rung-2"), (16.0, "rung-1"),
                                   (18.0, "rung-0")]
        assert controller.level == 0
        assert controller.unwound_at() == 18.0
        # Ticking stops once fully unwound: nothing left pending after
        # the feed runs out.
        loop.run_until(60.0)
        assert loop.pending == 0

    def test_brief_dip_does_not_unwind(self):
        # The detector clears during a one-window lull, but
        # clear_ticks=2 keeps the engaged rungs in place until the
        # attack genuinely stops.
        def value(t):
            if 5.0 <= t < 6.0:
                return 0.0
            return 50.0 if t < 12.0 else 0.0

        loop, telemetry, controller, log = make_session(2)
        feed(loop, telemetry, value, until=20.0)
        loop.run_until(25.0)
        down = disengages(log)
        assert all(t > 12.0 for t, _ in down)
        # Each rung engaged exactly once: no flapping through the dip.
        up = engages(log)
        assert sorted(rung for _, rung in up) == ["rung-0", "rung-1"]
        assert controller.level == 0


class TestGuardrail:
    @staticmethod
    def wire_traffic(loop, counters, answered_until, until, period=0.5):
        """Pump known-resolver counters: 2 received (and, while
        healthy, 2 answered) per pump."""
        def pump():
            counters["received"] += 2
            if counters["healthy"] and loop.now < answered_until:
                counters["answered"] += 2

        steps = int(round(until / period))
        for i in range(1, steps + 1):
            loop.call_at(i * period, pump)

    def make_guarded(self, ladder_names, counters, **rung_kwargs):
        log = []
        ladder = []
        for rung_name in ladder_names:
            kwargs = dict(rung_kwargs.get(rung_name, {}))
            ladder.append(RecordingRung(rung_name, log, **kwargs))

        def estimator():
            return counters["received"], counters["answered"]

        loop, telemetry, controller, _ = make_session(
            ladder=ladder, log=log, estimator=estimator)
        return loop, telemetry, controller, log, ladder

    def test_lossy_rung_reverted_and_latched(self):
        counters = {"received": 0, "answered": 0, "healthy": True}
        loop, telemetry, controller, log, ladder = self.make_guarded(
            ["bad-rung", "good-rung"], counters,
            **{"bad-rung": dict(cool_off_seconds=30.0)})

        bad = ladder[0]
        orig_engage, orig_disengage = bad.engage, bad.disengage

        def lossy_engage(now):
            counters["healthy"] = False
            orig_engage(now)

        def lossy_disengage(now):
            counters["healthy"] = True
            orig_disengage(now)

        bad.engage = lossy_engage
        bad.disengage = lossy_disengage

        self.wire_traffic(loop, counters, answered_until=1e9, until=20.0)
        feed(loop, telemetry, attack_between(0.0, 12.0), until=20.0)
        loop.run_until(25.0)

        # bad-rung engaged at 3.0; one tick of 100% known-resolver loss
        # (vs attack_loss 0) reverts it and latches it for 30 s.
        assert controller.reverts == 1
        assert controller.latched_until == {0: 34.0}
        reverts = [t for t in controller.transitions
                   if t.action == "revert"]
        assert [(t.time, t.rung) for t in reverts] == [(4.0, "bad-rung")]
        assert "latched 30s" in reverts[0].detail
        # The ladder climbs past the latched rung to good-rung and
        # never re-tries bad-rung (latched beyond the attack's end).
        assert engages(log) == [(3.0, "bad-rung"), (5.0, "good-rung")]
        assert controller.unwound_at() == 14.0
        assert controller.attack_loss is None

    def test_attack_loss_is_tolerated(self):
        # The attack itself sheds every known-resolver answer before
        # any rung engages; a rung causing the *same* loss is within
        # the relative guardrail and must not be blamed.
        counters = {"received": 0, "answered": 0, "healthy": True}
        loop, telemetry, controller, log, _ = self.make_guarded(
            ["rung-0", "rung-1"], counters)
        self.wire_traffic(loop, counters, answered_until=1.0, until=20.0)
        feed(loop, telemetry, attack_between(0.0, 12.0), until=20.0)
        loop.run_until(25.0)
        assert controller.reverts == 0
        assert controller.max_level == 2
        assert [t for t in controller.transitions
                if t.action == "revert"] == []

    def test_rebaseline_after_empty_revert(self):
        # Attack damage begins with the first engage, so rung-0 is
        # (unavoidably) blamed and reverted, emptying the ladder
        # mid-attack. The baseline must be re-measured there: rung-1
        # then engages under 100% ambient loss and survives. Without
        # the re-baseline it would be judged against a stale healthy
        # sample and falsely reverted too.
        counters = {"received": 0, "answered": 0, "healthy": True}
        loop, telemetry, controller, log, _ = self.make_guarded(
            ["rung-0", "rung-1"], counters)
        self.wire_traffic(loop, counters, answered_until=3.25, until=20.0)
        feed(loop, telemetry, attack_between(0.0, 12.0), until=20.0)
        loop.run_until(25.0)
        assert [(t.time, t.rung) for t in controller.transitions
                if t.action == "revert"] == [(4.0, "rung-0")]
        # rung-1 engages after the revert and holds until the attack
        # clears — its 100% loss matched the re-measured attack loss.
        # (The guardrail revert at 4.0 also shows as a rung disengage.)
        assert engages(log) == [(3.0, "rung-0"), (5.0, "rung-1")]
        assert disengages(log) == [(4.0, "rung-0"), (14.0, "rung-1")]
        assert controller.unwound_at() == 14.0

    def test_too_few_samples_defers_judgement(self):
        loop, telemetry, controller, log = make_session(
            2, estimator=lambda: (2, 0))
        feed(loop, telemetry, attack_between(0.0, 10.0), until=16.0)
        loop.run_until(25.0)
        # Two known-resolver queries ever: below min_samples, so the
        # guardrail never judges and the ladder climbs normally.
        assert controller.reverts == 0
        assert controller.max_level == 2


class TestDegradedWiring:
    def test_machines_track_ladder_top(self):
        machine = FakeMachine()
        loop, telemetry, controller, _ = make_session(
            2, machines=[machine])
        feed(loop, telemetry, attack_between(0.0, 8.0), until=16.0)
        loop.run_until(25.0)
        # Degraded attribution follows the top of the stack; exit only
        # at level 0.
        assert machine.modes == [("enter", "rung-0"), ("enter", "rung-1"),
                                 ("enter", "rung-0"), ("exit",)]


class TestConcreteRungs:
    """The filter and firewall rungs apply and withdraw their action."""

    def test_filter_inserted_on_engage_removed_on_disengage(self):
        machines = [SimpleNamespace(pipeline=ScoringPipeline())
                    for _ in range(2)]
        rung = FilterInsertRung(machines, lambda machine: object())
        # reprolint: disable-next=ROB002 -- the rung itself under test
        rung.engage(1.0)
        assert all(len(m.pipeline.filters) == 1 for m in machines)
        rung.disengage(2.0)
        assert all(m.pipeline.filters == [] for m in machines)

    def test_firewall_rule_installed_and_withdrawn(self):
        machines = [SimpleNamespace(firewall=QoDFirewall(t_qod=300.0))
                    for _ in range(2)]
        qname = name("attack.victim.example")
        rung = FirewallRuleRung(machines, qname, RType.A)
        # reprolint: disable-next=ROB002 -- the rung itself under test
        rung.engage(1.0)
        assert all(m.firewall.should_drop(qname, RType.A, 1.1)
                   for m in machines)
        rung.disengage(2.0)
        assert not any(m.firewall.should_drop(qname, RType.A, 2.1)
                       for m in machines)
        assert all(m.firewall.active_rules(2.1) == 0 for m in machines)
