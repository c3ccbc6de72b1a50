"""Platform resilience scorecard: chaos campaigns vs. SLO targets.

The paper's core claim is not a figure but a property: "Akamai DNS
[...] serves as a life line" and must hold answers available through
"failures of infrastructure", "network partitions that disconnect
subsets of [the] platform from the rest of the Internet", and
operational faults — via the resiliency ladder of section 4.2 (anycast
failover, self-suspension with quorum, staleness checks, input-delayed
machines).

This experiment grades that property directly. Each standard campaign
injects one failure mode (plus one combined "everything at once"
campaign) into a freshly built 24-cloud deployment while an SLO probe
issues steady legitimate queries; the scorecard rows compare measured
worst-window availability and post-clear time-to-recovery against the
targets each resilience mechanism implies. Runs are pure functions of
the seed: rerunning with the same seed reproduces every fault edge,
probe, and scorecard digit bit-for-bit.

Campaigns live in one registry (:data:`REGISTRY`): each family is a
tuple of :class:`Entry` — a name, a builder ``(deployment, seed) ->
Campaign``, and the ordered check functions that grade it. A check
that needs a measurement rig (the rollout train, the defense ladder,
the gray prober) declares its :class:`Harness` with :func:`needs`; a
campaign runs with exactly the harnesses its checks need.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable

from ..analysis.report import ExperimentResult
from ..chaos import (
    Campaign,
    ChaosEngine,
    FaultKind,
    FaultSpec,
    Schedule,
    SLOProbe,
    SLOReport,
)
from ..control.defense import (
    DefenseController,
    DefenseParams,
    FilterInsertRung,
    FirewallRuleRung,
    GuardrailParams,
    QueueTightenRung,
    TrafficEngRung,
    known_resolver_estimator,
)
from ..control.rollout import RolloutParams, RolloutPhase
from ..dnscore.name import name
from ..dnscore.rrtypes import RCode, RType
from ..filters.ratelimit import RateLimitFilter
from ..netsim.builder import InternetParams
from ..platform.deployment import AkamaiDNSDeployment, DeploymentParams
from ..platform.traffic_eng import AttackSituation, TrafficEngineer
from ..server.machine import MachineConfig
from ..telemetry import (
    AlertSeverity,
    RateDetector,
    RatioDetector,
    Telemetry,
    TelemetryConfig,
)
from ..telemetry import state as _telemetry_state

PROBE_ZONE = "slozone.net"
#: Zone a chaos-campaign flood pretends to resolve: provisioned (so the
#: attack is the paper's pseudo-random-subdomain class — real zone,
#: nonexistent names) but never probed, so a firewall rung targeting it
#: has zero probe collateral.
VICTIM_ZONE = "victim.net"
#: The defense ladder's driving signal: a QPS-spike detector on the
#: fleet's ``query_received`` feed, which fires *before* any shedding —
#: so the alert persists while mitigations hold and clears only when
#: the flood actually stops.
ATTACK_QPS_ALERT = "attack-qps"
#: Soak of the deliberately over-broad firewall rung in the guardrail
#: campaign; the auto-revert must land within it.
OVERBLOCK_SOAK = 8.0
WARMUP = 20.0              # healthy baseline before the first fault
COOLDOWN = 30.0            # post-campaign window so recovery is observable
#: Canary soak window of the rollout campaigns. Long enough that the
#: full detect->rollback->redeliver chain (worst-case CDN delivery of
#: the corrupt zone ~20s + one gate window + worst-case delivery of the
#: rollback ~20s) completes *within* the soak, which is what the
#: blast-radius SLO asserts.
ROLLOUT_SOAK = 45.0
#: Escalation levels the defense ladder must reach under sustained attack.
DEFENSE_MIN_CLIMB = 3
#: Known-resolver availability floor from the first rung engaging to
#: the attack ending.
DEFENSE_FLOOR = 0.60
#: Budget from the flood stopping to the ladder back at level 0.
DEFENSE_UNWIND_SECONDS = 30.0
#: Fleet availability floor over the gray-fault window when correlated
#: gray faults exceed the suspension budget (degraded-but-serving beats
#: dark).
GRAY_FLOOR = 0.50


@dataclass(slots=True)
class ScorecardParams:
    """Scale knobs; defaults match the paper-scale 24-cloud platform."""

    seed: int = 42
    internet: InternetParams = field(
        default_factory=lambda: InternetParams(n_tier1=5, n_tier2=16,
                                               n_stub=48))
    n_pops: int = 24
    deployed_clouds: int = 24
    machines_per_pop: int = 2
    pops_per_cloud: int = 2
    n_edge_servers: int = 24
    probe_period: float = 0.25
    probe_window: float = 5.0
    answer_deadline: float = 2.0
    #: Recovery budget every campaign must meet (availability targets
    #: are per-campaign check parameters).
    max_recovery_seconds: float = 25.0
    #: Budget from first fault injection to the telemetry pipeline's
    #: probe-failure alert, for campaigns that expect a visible dip.
    #: Measured from *injection*, so it includes fault-propagation time
    #: (a corrupted zone publishing to the fleet) and the stretch where
    #: the resiliency ladder still absorbs the fault invisibly (the
    #: combined storm's crash loops are masked by the input-delayed
    #: machine until its PoP is partitioned too) — not just the
    #: detector's window latency.
    max_detection_seconds: float = 30.0

    @classmethod
    def fast(cls, seed: int = 42) -> "ScorecardParams":
        """Shrunk platform for smoke runs (``--fast``, ``make chaos``)."""
        return cls(seed=seed,
                   internet=InternetParams(n_tier1=4, n_tier2=10,
                                           n_stub=30),
                   n_pops=8, deployed_clouds=8, machines_per_pop=1,
                   n_edge_servers=8, probe_period=0.5)


# -- harnesses ---------------------------------------------------------------


class Harness:
    """A measurement rig that a check can need.

    Class attributes are the rig's deployment settings:
    ``machine_config`` and ``deployment_params`` override
    :class:`MachineConfig` and :class:`DeploymentParams` fields,
    ``enterprises`` are provisioned before the deployment settles, and
    ``arms_mitigations`` lets the rig mutate sim state through the
    telemetry session. An instance, built as ``cls(deployment,
    telemetry, entry, campaign)``, wires the rig onto the settled
    deployment, takes its measurements, and is stored on the
    :class:`CampaignOutcome` field called ``name``.
    """

    name: str
    machine_config: dict = {}
    deployment_params: dict = {}
    enterprises: tuple[tuple[str, str], ...] = ()
    arms_mitigations = False

    def collect(self, engine: ChaosEngine) -> None:
        """Take the measurements that need the campaign's fault log."""


class RolloutTrain(Harness):
    """The safe-rollout train with a blast recorder on every machine.

    Canary cohort, health gate and ``ROLLOUT_SOAK`` soak are wired in,
    and every machine validates zone updates before install. A "wrong
    answer" is a response to a concrete name strictly under the probe
    zone (the wildcard guarantees every such A query a NOERROR answer
    from a healthy zone) that is NXDOMAIN, SERVFAIL, or empty.
    ``blast`` keeps the *first* wrong-answer time per machine: its keys
    are the campaign's blast radius.
    """

    name = "rollout"
    machine_config = {"zone_guard_enabled": True}
    deployment_params = {"rollout_enabled": True,
                         "rollout": RolloutParams(soak_seconds=ROLLOUT_SOAK,
                                                  check_period=1.0)}

    def __init__(self, deployment: AkamaiDNSDeployment,
                 telemetry: Telemetry, entry: Entry,
                 campaign: Campaign) -> None:
        self.train = deployment.rollout
        self.blast: dict[str, float] = {}
        self._apex = name(PROBE_ZONE)
        self._loop = deployment.loop
        for machine in deployment.machines():
            machine.engine.response_observers.append(
                lambda query, response, mid=machine.machine_id:
                self._observe(mid, query, response))

    def _observe(self, machine_id, query, response) -> None:
        if machine_id in self.blast or not query.questions:
            return
        question = query.questions[0]
        if (question.qtype is not RType.A
                or question.qname == self._apex
                or not question.qname.is_subdomain_of(self._apex)):
            return
        answered = response.rcode is RCode.NOERROR and bool(response.answers)
        if not answered:
            self.blast[machine_id] = self._loop.now

    @property
    def canary_ids(self) -> set[str]:
        return {machine.machine_id for machine in self.train.canaries}

    def rollback_seconds(self) -> float | None:
        """Corrupt publish to the last canary installing the rollback.

        None when no rollback happened.
        """
        origin = str(name(PROBE_ZONE))
        rolled = [r.published_at for r in self.train.releases
                  if r.phase is RolloutPhase.ROLLED_BACK
                  and str(r.origin) == origin]
        installs = [t for machine in self.train.canaries
                    for t, action, zone, _serial in machine.zone_install_log
                    if action == "rollback" and zone == origin]
        if rolled and installs:
            return max(installs) - min(rolled)
        return None


def _overblock_firewall(machines) -> FirewallRuleRung:
    """Deliberate collateral: a rung that firewalls the probe zone."""
    return FirewallRuleRung(machines, name(f"x.{PROBE_ZONE}"), RType.A,
                            name="overblock-firewall",
                            soak_seconds=OVERBLOCK_SOAK,
                            cool_off_seconds=300.0)


class DefenseLadder(Harness):
    """The closed-loop defense ladder (control.defense).

    Machines are deliberately under-provisioned (a few hundred qps of
    compute, a short queue) so a chaos-campaign flood genuinely
    saturates them, and the flood's victim zone is provisioned so the
    attack is the paper's pseudo-random-subdomain class.

    Wired after ``settle`` so warm-up traffic never feeds the attack
    detector. The ladder is mildest-first: tighten penalty-queue bands,
    insert per-source rate limiting, firewall the flooded zone's shape,
    and finally withdraw a fraction of peering links at the attacked
    cloud's first PoP (Figure 9 action III). The campaign's own
    ``Entry.rungs`` go below all of them.
    """

    name = "defense"
    machine_config = {"compute_capacity_qps": 150.0,
                      "io_capacity_qps": 3_000.0, "queue_depth": 500}
    enterprises = (("victim-enterprise", VICTIM_ZONE),)
    arms_mitigations = True

    def __init__(self, deployment: AkamaiDNSDeployment,
                 telemetry: Telemetry, entry: Entry,
                 campaign: Campaign) -> None:
        machines = deployment.machines()
        for machine in machines:
            machine.known_sources.add("slo-resolver")
        telemetry.alerts.add(
            RateDetector(ATTACK_QPS_ALERT, window=1.0, threshold=120.0,
                         for_windows=2, clear_windows=2,
                         severity=AlertSeverity.CRITICAL), "qps")
        spec = next(f for f in campaign.faults
                    if f.kind is FaultKind.ATTACK_FLOOD)
        cloud = next(c for c in deployment.clouds
                     if c.prefix == spec.target)
        pop_router = deployment.cloud_pops[cloud.index][0]
        engineer = TrafficEngineer(deployment.network, cloud.prefix)
        te_plan = engineer.plan(
            AttackSituation(resolvers_dosed=True,
                            peering_links_congested=False,
                            compute_saturated=True,
                            can_spread_attack=False),
            pop_router_id=pop_router,
            attack_peers=deployment.network.topology.bgp_neighbors(
                pop_router),
            fraction=0.34)
        ladder: list = [
            QueueTightenRung(machines, factor=0.5),
            FilterInsertRung(machines, lambda machine: RateLimitFilter(),
                             name="rate-limit"),
            FirewallRuleRung(machines, name(f"x.{VICTIM_ZONE}"), RType.A,
                             name="victim-firewall"),
            TrafficEngRung(engineer, te_plan),
        ]
        ladder[:0] = [make(machines) for make in entry.rungs]
        self.controller = DefenseController(
            deployment.loop, ladder, alert_name=ATTACK_QPS_ALERT,
            params=DefenseParams(guardrail=GuardrailParams(
                margin=0.25, min_samples=4)),
            estimator=known_resolver_estimator(machines),
            machines=machines)
        self.controller.arm(telemetry)
        self._alerts = telemetry.alerts
        #: Seconds from the first flood inject to the attack-qps alert.
        self.attack_detect_seconds: float | None = None
        #: When the last flood cleared (loop-absolute seconds).
        self.attack_end: float | None = None

    def collect(self, engine: ChaosEngine) -> None:
        injects = [e.time for e in engine.events
                   if e.action == "inject"
                   and e.spec.kind is FaultKind.ATTACK_FLOOD]
        clears = [e.time for e in engine.clears()
                  if e.spec.kind is FaultKind.ATTACK_FLOOD]
        if clears:
            self.attack_end = max(clears)
        if injects:
            alert = self._alerts.first_raise_after(min(injects),
                                                   name=ATTACK_QPS_ALERT)
            if alert is not None:
                self.attack_detect_seconds = alert.raised_at - min(injects)

    @property
    def engaged_at(self) -> float | None:
        """When the first rung engaged (loop-absolute seconds)."""
        return next((t.time for t in self.controller.transitions
                     if t.action == "engage"), None)

    @property
    def revert_after(self) -> float | None:
        """Engage-to-revert delta of the first guardrail-reverted rung."""
        transitions = self.controller.transitions
        for i, transition in enumerate(transitions):
            if transition.action != "revert":
                continue
            prior = [p for p in transitions[:i]
                     if p.rung == transition.rung and p.action == "engage"]
            return transition.time - prior[-1].time if prior else None
        return None


class GrayProber(Harness):
    """The external gray-failure prober (control.grayfail).

    Enabled after settle so the baseline before the first fault is
    already under differential audit. At the instant the prober
    convicts a machine, ``self_healthy`` snapshots what the machine's
    *own* monitoring suite says. A green self-report there is the
    gray-failure property itself: internal probes blind, external
    evidence damning.
    """

    name = "gray"

    def __init__(self, deployment: AkamaiDNSDeployment,
                 telemetry: Telemetry, entry: Entry,
                 campaign: Campaign) -> None:
        self.prober = deployment.enable_grayfail()
        agents = {d.machine.machine_id: d.agent
                  for d in deployment.regular_deployments()}
        self.self_healthy: dict[str, bool] = {}

        def snapshot_self_view(machine_id: str) -> None:
            agent = agents.get(machine_id)
            if agent is not None and machine_id not in self.self_healthy:
                self.self_healthy[machine_id] = agent.run_suite().healthy

        self.prober.on_convict.append(snapshot_self_view)
        #: Seconds from the first gray inject to the first conviction.
        self.ttd_seconds: float | None = None
        #: (first inject, last clear) across the campaign's gray faults.
        self.window: tuple[float, float] | None = None

    def collect(self, engine: ChaosEngine) -> None:
        injects = [e.time for e in engine.events
                   if e.action == "inject"
                   and e.spec.kind.value.startswith("gray_")]
        clears = [e.time for e in engine.clears()
                  if e.spec.kind.value.startswith("gray_")]
        if injects and clears:
            self.window = (min(injects), max(clears))
        if injects:
            convicted_at = [t for t, _, verdict in self.prober.timeline
                            if verdict == "convicted"
                            and t >= min(injects)]
            if convicted_at:
                self.ttd_seconds = min(convicted_at) - min(injects)


def build_deployment(params: ScorecardParams,
                     *harnesses: type[Harness]) -> AkamaiDNSDeployment:
    """A fresh platform with the probe zone (wildcard answers) live.

    Each harness's deployment settings apply; :func:`run_campaign`
    wires the harnesses once the campaign is built.
    """
    machine: dict = {}
    settings: dict = {}
    for harness in harnesses:
        machine.update(harness.machine_config)
        settings.update(harness.deployment_params)
    deployment = AkamaiDNSDeployment(DeploymentParams(
        seed=params.seed, internet=params.internet,
        n_pops=params.n_pops, deployed_clouds=params.deployed_clouds,
        machines_per_pop=params.machines_per_pop,
        pops_per_cloud=params.pops_per_cloud,
        n_edge_servers=params.n_edge_servers,
        filters_enabled=False,
        machine_config=MachineConfig(**machine),
        **settings))
    deployment.provision_enterprise(
        "slo-enterprise", PROBE_ZONE, "* IN A 203.0.113.53\n")
    for harness in harnesses:
        for enterprise, zone in harness.enterprises:
            deployment.provision_enterprise(enterprise, zone)
    deployment.settle(30)
    return deployment


@dataclass(slots=True)
class CampaignOutcome:
    """One campaign's measured resilience."""

    campaign: Campaign
    report: SLOReport
    recoveries: list[tuple[str, float, float | None]]  # (fault, clear, ttr)
    fault_log: str
    #: Seconds from the first fault injection to the telemetry
    #: pipeline's probe-failure alert; None when no alert fired (the
    #: resiliency ladder absorbed the fault below the SLO surface).
    detection_seconds: float | None = None
    #: One field per harness, named after it; None unless one of the
    #: campaign's checks needs that harness.
    rollout: RolloutTrain | None = None
    defense: DefenseLadder | None = None
    gray: GrayProber | None = None

    @property
    def worst_recovery(self) -> float | None:
        """Slowest measured recovery; None if the campaign never recovers.

        Mid-campaign clears can be masked by faults still active (their
        TTR is None because recovery was impossible, not slow) — only
        the *final* clear decides whether the platform came back.
        """
        if not self.recoveries:
            return 0.0
        final = max(self.recoveries, key=lambda r: r[1])
        if final[2] is None:
            return None
        measured = [ttr for _, _, ttr in self.recoveries if ttr is not None]
        return max(measured)


# -- registry entries and checks ---------------------------------------------

#: ``check(params, outcome, result)`` appends metrics and ``compare``
#: rows for the properties it grades.
Check = Callable[[ScorecardParams, CampaignOutcome, ExperimentResult], None]


def needs(harness: type[Harness]) -> Callable[[Check], Check]:
    """Declare that a check reads ``harness``'s measurements."""
    def tag(check: Check) -> Check:
        check.harness = harness
        return check
    return tag


@dataclass(frozen=True, slots=True)
class Entry:
    """One registered campaign: name, builder, ordered checks."""

    name: str
    build: Callable[[AkamaiDNSDeployment, int], Campaign]
    checks: tuple[Check, ...]
    #: ``make(machines) -> rung`` factories this campaign puts below
    #: the defense ladder's standard rungs.
    rungs: tuple[Callable, ...] = ()

    @property
    def harnesses(self) -> tuple[type[Harness], ...]:
        """The harnesses the checks need, in first-use order."""
        tagged = (getattr(check, "harness", None) for check in self.checks)
        return tuple(h for h in dict.fromkeys(tagged) if h is not None)


def run_campaign(params: ScorecardParams, entry: Entry) -> CampaignOutcome:
    """One campaign on one fresh deployment, probe running throughout.

    The campaign is built from the deployment it runs on, which carries
    the settings of every harness its checks need. A campaign-local
    telemetry session watches the probe's failure feed with a
    :class:`RatioDetector`, so the scorecard can report not only whether
    the platform degraded but how quickly the observability pipeline
    *noticed* (time-to-detection). The session is passive unless a
    harness arms mitigations.
    """
    harnesses = entry.harnesses
    telemetry = Telemetry(TelemetryConfig(
        seed=params.seed, trace_sample_rate=0.0,
        arm_mitigations=any(h.arms_mitigations for h in harnesses)))
    # Fires when a detector window's failure ratio crosses 25% — i.e.
    # availability dips below 75%, well under any campaign's healthy
    # baseline but above the worst dips the SLO targets tolerate.
    detector = RatioDetector("probe-failure",
                             window=params.probe_window,
                             threshold=0.25, min_count=2)
    telemetry.alerts.add(detector, "probe.fail")
    with _telemetry_state.session(telemetry):
        deployment = build_deployment(params, *harnesses)
        campaign = entry.build(deployment, params.seed)
        rigs = [harness(deployment, telemetry, entry, campaign)
                for harness in harnesses]
        resolver = deployment.add_resolver("slo-resolver")
        probe = SLOProbe(deployment.loop, resolver, PROBE_ZONE,
                         period=params.probe_period,
                         window=params.probe_window,
                         answer_deadline=params.answer_deadline)
        probe.start()
        engine = ChaosEngine(deployment)
        engine.run(campaign)
        deployment.run_until(deployment.loop.now + COOLDOWN)
        probe.stop()
        deployment.run_until(deployment.loop.now + 5.0)
        telemetry.finalize()

    report = probe.report()
    recoveries = []
    injects = [e.time for e in engine.events if e.action == "inject"]
    for event in engine.clears():
        # Attribute recovery only up to the next *inject*: failures
        # after a fresh fault lands are that fault's doing.
        later = [t for t in injects if t > event.time]
        horizon = min(later) if later else None
        ttr = report.time_to_recovery(event.time, until=horizon)
        recoveries.append((event.spec.describe(), event.time, ttr))
    detection = None
    if injects:
        first_inject = min(injects)
        alert = telemetry.alerts.first_raise_after(
            first_inject, name="probe-failure")
        if alert is not None:
            detection = alert.raised_at - first_inject

    outcome = CampaignOutcome(campaign=campaign, report=report,
                              recoveries=recoveries,
                              fault_log=engine.describe_log(),
                              detection_seconds=detection)
    for rig in rigs:
        rig.collect(engine)
        setattr(outcome, rig.name, rig)
    return outcome


# Each entry lists its checks in row order: availability, recovery,
# blast/rollback, reject, defense, gray, then time to detection. Checks
# name their metrics and rows without the campaign; :func:`run_unit`
# prefixes them.


def _availability_row(result: ExperimentResult, outcome: CampaignOutcome,
                      min_overall: float, min_worst_window: float,
                      target: str, *, dip_seen: bool = True) -> None:
    report = outcome.report
    result.compare(
        "availability through the campaign", target,
        f"{report.overall_availability:.1%} "
        f"(worst window {report.worst_window_availability:.0%})",
        report.overall_availability >= min_overall
        and report.worst_window_availability >= min_worst_window
        and report.availability_between(0.0, WARMUP) == 1.0
        and dip_seen)


def availability(min_overall: float = 0.97,
                 min_worst_window: float = 0.50) -> Check:
    """Availability targets hold, on a perfect pre-fault baseline."""
    def check(params, outcome, result):
        _availability_row(result, outcome, min_overall, min_worst_window,
                          f">= {min_overall:.0%}")
    return check


def visible_dip(min_overall: float, min_worst_window: float) -> Check:
    """As :func:`availability`, and the probe must *see* the degradation.

    A perfect score here would mean the measurement is blind, not that
    the platform is invincible.
    """
    def check(params, outcome, result):
        _availability_row(
            result, outcome, min_overall, min_worst_window,
            f">= {min_overall:.0%}, with a visible dip",
            dip_seen=outcome.report.worst_window_availability < 1.0)
    return check


def recovery(params, outcome, result) -> None:
    """Full availability within the recovery budget once faults clear."""
    worst_ttr = outcome.worst_recovery
    final_clear = max((t for _, t, _ in outcome.recoveries), default=0.0)
    recovered = outcome.report.availability_between(
        final_clear + (worst_ttr or 0.0) + 1.0, float("inf"))
    result.compare(
        "full recovery after faults clear",
        f"100% within {params.max_recovery_seconds:.0f}s",
        ("never recovered" if worst_ttr is None else
         f"TTR {worst_ttr:.1f}s, then {recovered:.0%}"),
        worst_ttr is not None
        and worst_ttr <= params.max_recovery_seconds
        and recovered == 1.0)


def _rollback_row(result: ExperimentResult, outcome: CampaignOutcome,
                  row: str, target: str) -> None:
    rollback_s = outcome.rollout.rollback_seconds()
    if rollback_s is not None:
        result.metrics["rollback_s"] = rollback_s
    result.compare(
        row, target,
        ("no rollback happened" if rollback_s is None
         else f"rollback complete after {rollback_s:.1f}s"),
        rollback_s is not None and rollback_s <= ROLLOUT_SOAK)


@needs(RolloutTrain)
def blast_contained(params, outcome, result) -> None:
    """No machine outside the canary cohort ever serves a wrong answer.

    At least one canary must (proving the corruption actually landed),
    and the automatic rollback must complete within the soak window.
    """
    canaries = outcome.rollout.canary_ids
    hit = set(outcome.rollout.blast)
    escaped = sorted(hit - canaries)
    result.metrics["blast_machines"] = float(len(hit))
    result.metrics["blast_escaped"] = float(len(escaped))
    result.compare(
        "blast radius confined to the canary cohort",
        f"wrong answers only from canaries "
        f"(cohort of {len(canaries)}), and at least one",
        (f"{len(hit)} machine(s) served wrong answers, "
         f"{len(escaped)} outside the cohort"
         + (f": {', '.join(escaped)}" if escaped else "")),
        bool(hit) and not escaped)
    _rollback_row(result, outcome,
                  "automatic rollback within the soak window",
                  f"last canary rolled back <= {ROLLOUT_SOAK:.0f}s after "
                  f"the corrupt publish")


@needs(RolloutTrain)
def bogus_release_contained(params, outcome, result) -> None:
    """A release that passes validation but goes bogus while soaking.

    The canary health gate must trip and the rollback must land within
    the soak window, while the data plane — every non-validating client
    — never sees a wrong answer or a dip.
    """
    _rollback_row(result, outcome,
                  "bogus release rolled back within the soak window",
                  f"canary health gate trips and the rollback lands "
                  f"<= {ROLLOUT_SOAK:.0f}s after the bogus publish")
    blast = outcome.rollout.blast
    escaped = sorted(set(blast) - outcome.rollout.canary_ids)
    overall = outcome.report.overall_availability
    result.compare(
        "containment invisible to non-validating clients",
        "zero wrong answers fleet-wide, availability ~100%",
        (f"{len(blast)} machine(s) served wrong answers "
         f"({len(escaped)} outside the cohort), availability "
         f"{overall:.1%}"),
        not blast and overall >= 0.99)


def rejects(count: int) -> Check:
    """Exactly ``count`` releases rejected up front, no wrong answers."""
    @needs(RolloutTrain)
    def check(params, outcome, result):
        rejections = outcome.rollout.train.rejections
        blast = outcome.rollout.blast
        result.metrics["rejections"] = float(rejections)
        result.compare(
            "validator rejects every bad release up front",
            f"{count} rejected, zero wrong answers served",
            (f"{rejections} rejected, "
             f"{len(blast)} machine(s) served wrong answers"),
            rejections == count and not blast)
    return check


@needs(DefenseLadder)
def ladder_contains_attack(params, outcome, result) -> None:
    """Detection, climb, the legitimate-availability floor while
    mitigations hold, and the full symmetric unwind after the attack."""
    defense = outcome.defense
    controller = defense.controller
    result.metrics["defense_max_level"] = float(controller.max_level)
    result.metrics["defense_reverts"] = float(controller.reverts)
    attack_ttd = defense.attack_detect_seconds
    if attack_ttd is not None:
        result.metrics["attack_ttd_s"] = attack_ttd
    result.compare(
        "attack detected on the qps surface",
        f"{ATTACK_QPS_ALERT} alert within "
        f"{params.max_detection_seconds:.0f}s of the first flood",
        "no alert" if attack_ttd is None else f"TTD {attack_ttd:.1f}s",
        attack_ttd is not None
        and attack_ttd <= params.max_detection_seconds)
    result.compare(
        "ladder climbs under sustained attack",
        f">= {DEFENSE_MIN_CLIMB} rungs engaged",
        f"max level {controller.max_level}",
        controller.max_level >= DEFENSE_MIN_CLIMB)
    floor = None
    if defense.engaged_at is not None and defense.attack_end is not None:
        floor = outcome.report.availability_between(defense.engaged_at,
                                                    defense.attack_end)
        result.metrics["mitigation_availability"] = floor
    result.compare(
        "legitimate availability floor while mitigating",
        f">= {DEFENSE_FLOOR:.0%} from first rung to attack end",
        "ladder never engaged" if floor is None else f"{floor:.1%}",
        floor is not None and floor >= DEFENSE_FLOOR)
    unwind_s = None
    unwound_at = controller.unwound_at()
    if unwound_at is not None and defense.attack_end is not None:
        unwind_s = unwound_at - defense.attack_end
        result.metrics["unwind_s"] = unwind_s
    result.compare(
        "every mitigation unwinds after the attack",
        f"ladder back to level 0 <= {DEFENSE_UNWIND_SECONDS:.0f}s "
        f"after the flood stops",
        (f"still at level {controller.level}" if controller.level
         else ("never engaged" if unwind_s is None
               else f"unwound {unwind_s:.1f}s after the attack ended")),
        controller.level == 0
        and unwind_s is not None
        and unwind_s <= DEFENSE_UNWIND_SECONDS)


@needs(DefenseLadder)
def guardrail_reverts(params, outcome, result) -> None:
    """The collateral-damage guardrail auto-reverts and latches the
    campaign's over-blocking rung within its soak window."""
    reverts = outcome.defense.controller.reverts
    revert_after = outcome.defense.revert_after
    if revert_after is not None:
        result.metrics["revert_after_s"] = revert_after
    result.compare(
        "guardrail reverts the over-blocking rung",
        f"auto-revert + latch within its {OVERBLOCK_SOAK:.0f}s "
        f"soak window",
        ("no revert happened" if revert_after is None
         else f"{reverts} revert(s), first "
              f"{revert_after:.1f}s after engage"),
        reverts >= 1
        and revert_after is not None
        and revert_after <= OVERBLOCK_SOAK)


def _gray_counters(outcome: CampaignOutcome,
                   result: ExperimentResult) -> tuple[str, bool]:
    """Record the prober's counters; return (verdicts, fleet healthy)."""
    gray = outcome.gray
    prober = gray.prober
    result.metrics["gray_convictions"] = float(prober.convictions)
    result.metrics["gray_suspensions"] = float(prober.suspensions)
    result.metrics["gray_denials"] = float(prober.denials)
    result.metrics["gray_rejoins"] = float(prober.rejoins)
    if gray.ttd_seconds is not None:
        result.metrics["gray_ttd_s"] = gray.ttd_seconds
    if prober.detections:
        result.metrics["gray_evidence_to_conviction_s"] = max(
            latency for _, latency in prober.detections)
    verdicts = prober.verdict_counts()
    return (", ".join(f"{count} {verdict}"
                      for verdict, count in sorted(verdicts.items())),
            set(verdicts) <= {"healthy"})


@needs(GrayProber)
def gray_machine_convicted(params, outcome, result) -> None:
    """Conviction through the suspension quorum, self-monitor blindness,
    detection latency, and probationary rejoin."""
    verdict_text, healthy_fleet = _gray_counters(outcome, result)
    prober = outcome.gray.prober
    result.compare(
        "gray machine convicted and quorum-suspended",
        "conviction routed through the suspension quorum",
        f"{prober.convictions} conviction(s), "
        f"{prober.suspensions} quorum-granted suspension(s)",
        prober.convictions >= 1 and prober.suspensions >= 1)
    blind = outcome.gray.self_healthy
    result.compare(
        "self-monitoring stays blind (gray property)",
        "machine's own health suite green at conviction time",
        (f"{sum(blind.values())}/{len(blind)} convicted "
         f"machine(s) self-reported healthy" if blind
         else "no conviction recorded"),
        bool(blind) and all(blind.values()))
    gray_ttd = outcome.gray.ttd_seconds
    result.compare(
        "external prober detects within budget",
        f"conviction <= {params.max_detection_seconds:.0f}s after inject",
        "never convicted" if gray_ttd is None else f"TTD {gray_ttd:.1f}s",
        gray_ttd is not None
        and gray_ttd <= params.max_detection_seconds)
    result.compare(
        "probationary rejoin after the fault clears",
        ">= 1 rejoin, fleet back to all-healthy verdicts",
        f"{prober.rejoins} rejoin(s), final verdicts: {verdict_text}",
        prober.rejoins >= 1 and healthy_fleet)


@needs(GrayProber)
def quorum_guard_holds(params, outcome, result) -> None:
    """Correlated gray faults beyond the suspension budget must NOT
    mass-suspend: suspensions stay within budget, at least one request
    is denied, and the fleet degrades but keeps serving."""
    verdict_text, healthy_fleet = _gray_counters(outcome, result)
    prober = outcome.gray.prober
    budget = prober.coordinator.max_concurrent
    result.compare(
        "quorum refuses to mass-suspend",
        f"suspensions <= budget of {budget}, >= 1 denial",
        f"{prober.convictions} convicted, {prober.suspensions} suspended, "
        f"{prober.denials} denied",
        0 < prober.suspensions <= budget and prober.denials >= 1)
    floor = None
    if outcome.gray.window is not None:
        floor = outcome.report.availability_between(*outcome.gray.window)
        result.metrics["gray_window_availability"] = floor
    result.compare(
        "degraded but serving through the gray storm",
        f">= {GRAY_FLOOR:.0%} availability over the fault window",
        "no gray fault window" if floor is None else f"{floor:.1%}",
        floor is not None and floor >= GRAY_FLOOR)
    result.compare(
        "fleet heals after the faults clear",
        "all verdicts healthy, suspended machines rejoined",
        f"final verdicts: {verdict_text}; {prober.rejoins} rejoined",
        healthy_fleet and prober.rejoins >= 1)


def detects_degradation(params, outcome, result) -> None:
    """Client-visible degradation is operator-visible too, and quickly."""
    ttd = outcome.detection_seconds
    result.compare(
        "telemetry detects the degradation",
        f"alert within {params.max_detection_seconds:.0f}s of first fault",
        "no alert" if ttd is None else f"TTD {ttd:.1f}s",
        ttd is not None and ttd <= params.max_detection_seconds)


def time_to_detection(params, outcome, result) -> None:
    """Informational: absorbed faults should stay below the SLO alert
    surface, but an early alert here is noisy, not wrong."""
    ttd = outcome.detection_seconds
    result.compare(
        "time to detection (informational)",
        "absorbed faults need not alert",
        "no alert (fault absorbed)" if ttd is None else f"TTD {ttd:.1f}s",
        True)


# -- campaign builders -------------------------------------------------------
#
# Targets are chosen deterministically from the deployment (first PoPs,
# one whole cloud's PoP set), so every campaign is part of the seed.


def _slo_zone_cloud(deployment: AkamaiDNSDeployment):
    """The probed enterprise's first assigned cloud, and its delegation."""
    delegation = deployment.assigner.assign("slo-enterprise")
    return next(c for c in delegation if c in deployment.clouds), delegation


def _pop_loss(deployment, seed) -> Campaign:
    return Campaign(
        "pop-loss", duration=70.0, seed=seed,
        description="one PoP partitioned off the Internet; anycast "
                    "reroutes to surviving PoPs",
        faults=[FaultSpec(FaultKind.PARTITION, sorted(deployment.pops)[0],
                          Schedule.once(WARMUP, 25.0))])


def _machine_attrition(deployment, seed) -> Campaign:
    pops = sorted(deployment.pops)
    return Campaign(
        "machine-attrition", duration=80.0, seed=seed,
        description="machines crash across two PoPs; restart timers and "
                    "quorum-bounded suspension recover",
        faults=[FaultSpec(FaultKind.MACHINE_CRASH, pops[0],
                          Schedule.once(WARMUP, 20.0)),
                FaultSpec(FaultKind.MACHINE_CRASH, pops[1],
                          Schedule.once(WARMUP + 10.0, 20.0))])


def _metadata_freeze(deployment, seed) -> Campaign:
    return Campaign(
        "metadata-freeze", duration=80.0, seed=seed,
        description="publisher-side metadata freeze; staleness clocks "
                    "run but answers keep flowing",
        faults=[FaultSpec(FaultKind.METADATA_FREEZE, "platform",
                          Schedule.once(WARMUP, 30.0))])


def _bgp_churn(deployment, seed) -> Campaign:
    pops = sorted(deployment.pops)
    return Campaign(
        "bgp-churn", duration=80.0, seed=seed,
        description="control-plane resets and a degraded uplink while the "
                    "data plane stays up",
        faults=[FaultSpec(FaultKind.BGP_RESET, pops[2],
                          Schedule.periodic(WARMUP, 15.0, 6.0, 2)),
                FaultSpec(FaultKind.LINK_DEGRADE, pops[1], severity=0.3,
                          schedule=Schedule.once(WARMUP + 5.0, 25.0))])


def _zone_corruption(deployment, seed) -> Campaign:
    return Campaign(
        "zone-corruption", duration=80.0, seed=seed,
        description="truncated zone transfer installs cleanly, serves "
                    "NXDOMAIN invisibly to SOA probes, then "
                    "republication restores contents",
        faults=[FaultSpec(FaultKind.ZONE_CORRUPTION, PROBE_ZONE,
                          Schedule.once(WARMUP, 25.0))])


def _combined_storm(deployment, seed) -> Campaign:
    pops = sorted(deployment.pops)
    # Every PoP advertising the probed enterprise's first assigned
    # cloud: taking all of them out at once defeats anycast failover
    # *within* the cloud and forces the resolver to fail over *across*
    # clouds — the visible-degradation case.
    cloud, _ = _slo_zone_cloud(deployment)
    cloud_pops = deployment.cloud_pops[cloud.index]
    faults = [FaultSpec(FaultKind.CRASH_LOOP, pop_id,
                        Schedule.once(WARMUP, 35.0))
              for pop_id in cloud_pops]
    # The cloud's first PoP hosts its input-delayed machine — the
    # machine that would otherwise keep the cloud answering through the
    # crash loop (section 4.2.3 working as designed). Partitioning that
    # PoP darkens the whole cloud, so the dip becomes client-visible.
    faults += [
        FaultSpec(FaultKind.PARTITION, cloud_pops[0],
                  Schedule.once(WARMUP + 4.0, 30.0)),
        FaultSpec(FaultKind.PUBSUB_PARTITION, pops[1],
                  Schedule.once(WARMUP + 5.0, 35.0)),
        FaultSpec(FaultKind.LINK_FLAP, pops[2],
                  Schedule.periodic(WARMUP + 2.0, 12.0, 5.0, 3)),
        FaultSpec(FaultKind.SLOW_IO, pops[0], severity=0.5,
                  schedule=Schedule.once(WARMUP + 8.0, 30.0)),
    ]
    return Campaign(
        "combined-storm", duration=110.0, seed=seed, faults=faults,
        description="crash loops across a whole cloud, its input-delayed "
                    "refuge partitioned, pubsub partition + link flaps on "
                    "top: graceful degradation, then full recovery")


def _defense_ladder(deployment, seed) -> Campaign:
    prefix = _slo_zone_cloud(deployment)[0].prefix
    return Campaign(
        "defense-ladder", duration=110.0, seed=seed,
        description="escalating random-subdomain flood at the probe "
                    "zone's cloud; the defense ladder detects, climbs "
                    "rung by rung, contains the attack, then fully "
                    "unwinds",
        faults=[FaultSpec(FaultKind.ATTACK_FLOOD, prefix,
                          Schedule.once(WARMUP, 30.0), severity=250.0,
                          note=VICTIM_ZONE),
                FaultSpec(FaultKind.ATTACK_FLOOD, prefix,
                          Schedule.once(WARMUP + 30.0, 30.0),
                          severity=500.0, note=VICTIM_ZONE)])


def _defense_guardrail(deployment, seed) -> Campaign:
    # A cloud *outside* the probe zone's delegation: attacking it leaves
    # legitimate traffic untouched (attack damage ~0), so an over-broad
    # mitigation is the only thing shedding good traffic — the cleanest
    # possible guardrail trip.
    slo_zone_cloud, delegation = _slo_zone_cloud(deployment)
    offside_cloud = next((c for c in deployment.clouds
                          if c not in delegation), slo_zone_cloud)
    return Campaign(
        "defense-guardrail", duration=90.0, seed=seed,
        description="flood at a cloud outside the probe zone's "
                    "delegation; a deliberately over-broad firewall rung "
                    "sheds good traffic and the collateral-damage "
                    "guardrail reverts and latches it, then the safe "
                    "rungs climb",
        faults=[FaultSpec(FaultKind.ATTACK_FLOOD, offside_cloud.prefix,
                          Schedule.once(WARMUP, 40.0), severity=300.0,
                          note=VICTIM_ZONE)])


def _rollout_containment(deployment, seed) -> Campaign:
    # "renamed" keeps the SOA/NS apex intact and bumps the serial, so
    # the validator passes it — only the canary health gate stands
    # between it and the fleet. That is the blast-radius case.
    return Campaign(
        "rollout-containment", duration=90.0, seed=seed,
        description="semantically valid but content-corrupt zone rides "
                    "the rollout train; canary probes trip the health "
                    "gate and the rollback lands before the fleet ever "
                    "sees it",
        faults=[FaultSpec(FaultKind.BAD_ZONE_PUBLISH, PROBE_ZONE,
                          Schedule.once(WARMUP, 55.0), note="renamed")])


def _rollout_validation(deployment, seed) -> Campaign:
    return Campaign(
        "rollout-validation", duration=70.0, seed=seed,
        description="regressive, truncated and SOA-less zone updates are "
                    "all rejected by the validator before a single "
                    "machine sees them",
        faults=[FaultSpec(FaultKind.BAD_ZONE_PUBLISH, PROBE_ZONE,
                          Schedule.once(WARMUP + offset, 8.0), note=note)
                for offset, note in ((0.0, "regressive"),
                                     (12.0, "truncated"),
                                     (24.0, "missing-soa"))])


def _dnssec_expiry_rollback(deployment, seed) -> Campaign:
    # Validity (severity) must leave room for gate detection plus
    # worst-case rollback delivery inside the ROLLOUT_SOAK window.
    return Campaign(
        "dnssec-expiry-rollback", duration=90.0, seed=seed,
        description="a correctly signed zone whose RRSIGs lapse mid-soak "
                    "rides the rollout train; canary probes go bogus, "
                    "the health gate trips, and the rollback lands "
                    "inside the soak window with zero client-visible "
                    "damage",
        faults=[FaultSpec(FaultKind.SIGNATURE_EXPIRY, PROBE_ZONE,
                          Schedule.once(WARMUP, 8.0), severity=15.0)])


def _dnssec_key_mismatch_reject(deployment, seed) -> Campaign:
    return Campaign(
        "dnssec-key-mismatch-reject", duration=70.0, seed=seed,
        description="a zone signed by keys its DNSKEY RRset does not "
                    "publish is rejected by the validator before any "
                    "canary serves it",
        faults=[FaultSpec(FaultKind.KEY_MISMATCH, PROBE_ZONE,
                          Schedule.once(WARMUP, 8.0))])


def _gray_machine_ids(deployment) -> list[str]:
    return sorted(d.machine.machine_id
                  for d in deployment.regular_deployments())


def _gray_corruption(deployment, seed) -> Campaign:
    return Campaign(
        "gray-corruption", duration=95.0, seed=seed,
        description="one machine silently strips every answer section "
                    "while its own health probes stay green; the external "
                    "prober convicts it by differential comparison, the "
                    "quorum suspends it, and probation rejoins it after "
                    "the fault clears",
        faults=[FaultSpec(FaultKind.GRAY_CORRUPT,
                          _gray_machine_ids(deployment)[0],
                          Schedule.once(WARMUP, 35.0))])


def _gray_quorum_guard(deployment, seed) -> Campaign:
    machine_ids = _gray_machine_ids(deployment)
    budget = deployment.coordinator.max_concurrent
    # More gray machines than the coordinator will ever suspend at
    # once, but still a strict minority of the probed fleet (the
    # majority-answer reference needs honest peers to out-vote liars).
    correlated = min(budget + 2, (len(machine_ids) - 1) // 2)
    return Campaign(
        "gray-quorum-guard", duration=100.0, seed=seed,
        description=f"{correlated} machines go gray at once — beyond the "
                    f"suspension budget of {budget}; the quorum refuses "
                    "to mass-suspend and the fleet degrades but keeps "
                    "serving",
        faults=[FaultSpec(FaultKind.GRAY_CORRUPT, machine_id,
                          Schedule.once(WARMUP, 40.0))
                for machine_id in machine_ids[:correlated]])


_ABSORBED = (availability(), recovery, time_to_detection)

#: Campaign families. ``standard`` is the default scorecard; the others
#: are opt-in (``--dnssec``, ``--gray``) and kept out of it so its output
#: stays byte-identical whether or not those subsystems are exercised.
#:
#: * ``dnssec`` brackets the two ways a key rollover goes wrong:
#:   statically detectable (zone signed by unpublished keys — the
#:   validator must reject it before any machine sees it), and
#:   dynamically detectable only (signatures valid at publish, lapsing
#:   mid-soak — the canary health gate is the only line of defense).
#: * ``gray`` brackets the two gray-fault modes that matter: a single
#:   machine silently corrupting answers while its own health probes
#:   stay green (only external differential probing can see it), and
#:   correlated gray faults on *more* machines than the suspension
#:   budget allows (a degraded platform that answers beats a "clean"
#:   one that is dark — section 4.2.2's capacity bound).
REGISTRY: dict[str, tuple[Entry, ...]] = {
    "standard": (
        Entry("pop-loss", _pop_loss, _ABSORBED),
        Entry("machine-attrition", _machine_attrition, _ABSORBED),
        Entry("metadata-freeze", _metadata_freeze, _ABSORBED),
        Entry("bgp-churn", _bgp_churn, _ABSORBED),
        Entry("zone-corruption", _zone_corruption,
              (visible_dip(0.55, 0.0), recovery, detects_degradation)),
        Entry("combined-storm", _combined_storm,
              (visible_dip(0.80, 0.30), recovery, detects_degradation)),
        Entry("defense-ladder", _defense_ladder,
              (availability(0.70, 0.0), recovery, ladder_contains_attack,
               time_to_detection)),
        Entry("defense-guardrail", _defense_guardrail,
              (visible_dip(0.80, 0.0), recovery, ladder_contains_attack,
               guardrail_reverts, detects_degradation),
              rungs=(_overblock_firewall,)),
        Entry("rollout-containment", _rollout_containment,
              (availability(0.55, 0.0), recovery, blast_contained,
               time_to_detection)),
        Entry("rollout-validation", _rollout_validation,
              (availability(), recovery, rejects(3), time_to_detection)),
    ),
    "dnssec": (
        Entry("dnssec-expiry-rollback", _dnssec_expiry_rollback,
              (availability(), recovery, bogus_release_contained,
               time_to_detection)),
        Entry("dnssec-key-mismatch-reject", _dnssec_key_mismatch_reject,
              (availability(), recovery, rejects(1), time_to_detection)),
    ),
    "gray": (
        Entry("gray-corruption", _gray_corruption,
              (availability(0.70, 0.0), recovery, gray_machine_convicted,
               time_to_detection)),
        Entry("gray-quorum-guard", _gray_quorum_guard,
              (availability(0.55, 0.0), recovery, quorum_guard_holds,
               time_to_detection)),
    ),
}


# -- scoring -----------------------------------------------------------------

_TITLE = "Platform resilience scorecard (section 4.2 failure modes)"


def unit_count(family: str = "standard") -> int:
    """Number of independent campaign work units in a family.

    The suite is the same at every scale, so this builds nothing.
    """
    return len(REGISTRY[family])


def run_unit(params: ScorecardParams, index: int, verbose: bool = False,
             family: str = "standard") -> ExperimentResult:
    """Run one campaign of a family and grade it with its checks.

    Campaigns share nothing (each builds a new deployment from the same
    seed), so units may run in separate processes; :func:`assemble`
    concatenates the fragments in suite order to reproduce the serial
    result exactly.
    """
    entry = REGISTRY[family][index]
    outcome = run_campaign(params, entry)
    campaign = outcome.campaign
    report = outcome.report
    if verbose:
        print(f"-- {campaign.name}: {campaign.description}",
              file=sys.stderr)
        print(outcome.fault_log, file=sys.stderr)
        if outcome.defense is not None:
            for line in outcome.defense.controller.timeline():
                print(line, file=sys.stderr)

    result = ExperimentResult("resilience", _TITLE)
    result.metrics["availability"] = report.overall_availability
    result.metrics["worst_window"] = report.worst_window_availability
    result.metrics["servfails"] = float(report.total_servfails)
    result.metrics["timeouts"] = float(report.total_timeouts)
    if outcome.worst_recovery is not None:
        result.metrics["worst_ttr_s"] = outcome.worst_recovery
    if outcome.detection_seconds is not None:
        result.metrics["ttd_s"] = outcome.detection_seconds
    for check in entry.checks:
        check(params, outcome, result)
    result.metrics = {f"{campaign.name}.{key}": value
                      for key, value in result.metrics.items()}
    for row in result.comparisons:
        row.metric = f"{campaign.name}: {row.metric}"
    return result


def assemble(fragments: list[ExperimentResult]) -> ExperimentResult:
    """Merge per-campaign fragments (in suite order) into one result."""
    result = ExperimentResult("resilience", _TITLE)
    for fragment in fragments:
        result.series.update(fragment.series)
        result.metrics.update(fragment.metrics)
        result.comparisons.extend(fragment.comparisons)
    return result


def run(params: ScorecardParams | None = None, family: str = "standard",
        verbose: bool = False, only: str | None = None) -> ExperimentResult:
    """Run one campaign family and emit the pass/fail scorecard.

    ``only`` restricts the family to campaigns whose name contains the
    given substring (``SystemExit`` if nothing matches).
    """
    params = params or ScorecardParams()
    indices = [i for i, entry in enumerate(REGISTRY[family])
               if only is None or only in entry.name]
    if not indices:
        raise SystemExit(f"no campaign matches {only!r}")
    return assemble([run_unit(params, i, verbose, family) for i in indices])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="shrunk platform for smoke runs")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--verbose", action="store_true",
                        help="print per-campaign fault logs to stderr")
    parser.add_argument("--campaign", default=None, metavar="SUBSTR",
                        help="run only campaigns whose name contains "
                             "this substring")
    family = parser.add_mutually_exclusive_group()
    family.add_argument("--dnssec", dest="family", action="store_const",
                        const="dnssec",
                        help="run the opt-in DNSSEC rollover-containment "
                             "suite instead of the standard one")
    family.add_argument("--gray", dest="family", action="store_const",
                        const="gray",
                        help="run the opt-in gray-failure detection "
                             "suite instead of the standard one")
    parser.set_defaults(family="standard")
    args = parser.parse_args(argv)
    params = ScorecardParams.fast(args.seed) if args.fast \
        else ScorecardParams(seed=args.seed)
    result = run(params, family=args.family, verbose=args.verbose,
                 only=args.campaign)
    print(result.render())
    return 0 if result.all_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
