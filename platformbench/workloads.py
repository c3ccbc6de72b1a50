"""The benchmark's workloads, built only from the platform's public API.

A platform workload runs in *rounds*. One round builds a fresh world
(timed as set-up), replays the seed's pre-generated inputs through it
in simulated time (timed as the measured phase), and then checks every
operation against the ground truth the benchmark holds. Rounds of one
run replay the same inputs, so each must reproduce the same outcome
digest.

``figures-fast`` is the one workload that is not a platform world: it
runs the experiment runner's fast suite in-process and times each
label from outside.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.chaos import Campaign, ChaosEngine, FaultKind, FaultSpec, Schedule
from repro.control.defense import (
    DefenseController,
    DefenseParams,
    FilterInsertRung,
    FirewallRuleRung,
    GuardrailParams,
    QueueTightenRung,
    TrafficEngRung,
    known_resolver_estimator,
)
from repro.control.pubsub import CDN_CHANNEL
from repro.control.rollout import Release, RolloutParams, RolloutPhase
from repro.dnscore import RCode, RType, make_query, make_rrset
from repro.dnscore.name import Name, name
from repro.dnscore.rdata import A
from repro.dnscore.zone import Zone
from repro.dnssec import KeyRing, ZoneSigner
from repro.filters.ratelimit import RateLimitFilter
from repro.netsim.builder import attach_host
from repro.netsim.packet import Datagram
from repro.platform.deployment import AkamaiDNSDeployment, DeploymentParams
from repro.platform.traffic_eng import AttackSituation, TrafficEngineer
from repro.resolver.resolver import ResolutionResult
from repro.server.machine import MachineConfig, MachineState, QueryEnvelope
from repro.telemetry import (
    AlertSeverity,
    RateDetector,
    Telemetry,
    TelemetryConfig,
    standard_detectors,
)
from repro.telemetry import state as telemetry_state

from . import calibrate
from . import traffic as gen
from .oracle import Ledger
from .tracing import sum_counters

#: Simulated seconds per measured-phase step (the ``netsim.step_ms``
#: sample unit).
STEP = 1.0
#: Simulated seconds after the last arrival, covering the resolvers'
#: 30 s resolution deadline so every operation ends inside the round.
DRAIN = 32.0
SETTLE = 30.0
#: Seed of the simulated Internet and platform: the system under test
#: stays the same for every workload seed, which varies only the inputs
#: (zones, names, resolver skew, arrivals, flood, updates, faults).
WORLD_SEED = 42
ATTACK_QPS_ALERT = "attack-qps"


def now() -> float:
    return time.perf_counter()


def resolver_address(index: int) -> str:
    return f"100.64.{index // 250}.{index % 250 + 1}"


@dataclass(slots=True)
class RoundResult:
    """What one round measured and what its outcomes were."""

    setup_s: float
    #: Wall time of the measured phase's own work (scheduling the inputs
    #: plus every step), without the calibration chunks between steps.
    measured_s: float
    ops: int
    ledger: Ledger
    counts: dict[str, int]
    steps_s: list[float]
    #: Host-speed factor of set-up and of each step (see calibrate.py).
    setup_scale: float = 1.0
    step_scales: list[float] = field(default_factory=list)
    shape: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def digest(self) -> str:
        return self.ledger.digest(self.counts)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- shared platform plumbing ---------------------------------------------


def provision(deployment: AkamaiDNSDeployment,
              zones: list[gen.ZoneSpec]) -> None:
    for zone in zones:
        deployment.provision_enterprise(
            f"bench-{zone.origin}", zone.origin, zone.body(),
            cdn_hostnames=[zone.cdn_hostname] if zone.cdn else None)


def drive(deployment: AkamaiDNSDeployment, last_arrival: float,
          results: list, steps: list[float], scales: list[float]) -> None:
    """Advance simulated time one ``STEP`` at a time, until every read
    has completed after the last arrival (or ``DRAIN`` simulated seconds
    past it). Records each step's wall time, and the host-speed factor
    from the calibration chunks on either side of it."""
    loop = deployment.loop
    end = last_arrival + DRAIN
    before = calibrate.scale(1)
    while loop.now < end:
        started = now()
        loop.run_until(min(loop.now + STEP, end))
        steps.append(now() - started)
        after = calibrate.scale(1)
        scales.append((before + after) / 2)
        before = after
        if loop.now >= last_arrival and None not in results:
            return


def schedule_reads(deployment: AkamaiDNSDeployment, resolvers: list,
                   reads: list[gen.Read], qnames: list[Name],
                   results: list[ResolutionResult | None]) -> float:
    """Queue every read at its due time; returns the phase's base time."""
    loop = deployment.loop
    base = loop.now

    def issue(index: int) -> None:
        def done(result: ResolutionResult) -> None:
            results[index] = result
        resolvers[reads[index].resolver].resolve(qnames[index], RType.A,
                                                 done)

    for index, read in enumerate(reads):
        loop.call_at(base + read.at, issue, index)
    return base


def world_instances(deployment: AkamaiDNSDeployment, resolvers: list,
                    *extra: tuple[str, object]) -> list[tuple[str, object]]:
    """The counter-keeping objects of one world, as ``(kind, object)``
    pairs for :func:`tracing.sum_counters`."""
    machines = deployment.machines()
    instances = [("EventLoop", deployment.loop),
                 ("Network", deployment.network),
                 ("MetadataBus", deployment.bus)]
    instances += [("BGPSpeaker", s)
                  for s in deployment.network.speakers().values()]
    instances += [("PoP", p) for p in deployment.pops.values()]
    instances += [("NameserverMachine", m) for m in machines]
    instances += [("AuthoritativeEngine", m.engine) for m in machines]
    instances += [("AuthoritativeEngine", h.machine.engine)
                  for h in deployment.lowlevel_hosts.values()]
    instances += [("MonitoringAgent", d.agent)
                  for d in deployment.deployments]
    if deployment.rollout is not None:
        instances.append(("RolloutCoordinator", deployment.rollout))
    instances += [("RecursiveResolver", r) for r in resolvers]
    return instances + list(extra)


def finish_round(deployment, resolvers, ledger: Ledger,
                 setup: tuple[float, float], schedule_s: float, ops: int,
                 steps: list[float], scales: list[float],
                 *extra: tuple[str, object]) -> RoundResult:
    """Collect a round's counts; ``setup`` is (wall seconds, host-speed
    factor) and ``schedule_s`` the wall time spent queueing inputs."""
    counts = sum_counters(world_instances(deployment, resolvers, *extra))
    return RoundResult(setup[0], schedule_s + sum(steps), ops, ledger,
                       counts, steps, setup_scale=setup[1],
                       step_scales=scales)


@dataclass
class PlatformWorkload:
    """Inputs generated once per run, replayed by every round.

    ``deployment_params`` and ``machine_config`` are keyword overrides
    for ``DeploymentParams`` and ``MachineConfig`` (the smoke-test scale
    and the sensitivity record use them).
    """

    seed: int
    deployment_params: dict = field(default_factory=dict)

    def generate(self) -> gen.Traffic:
        raise NotImplementedError

    def prepare(self) -> None:
        self.traffic = self.generate()
        self.qnames = [name(r.qname) for r in self.traffic.reads]

    def shape(self) -> dict[str, float]:
        return gen.shape_report(self.traffic)


# -- resolver-mix -----------------------------------------------------------


@dataclass
class ResolverMix(PlatformWorkload):
    """Steady-state serving through every layer, in wire mode."""

    scale: gen.MixScale = field(default_factory=gen.MixScale)
    machine_config: dict = field(
        default_factory=lambda: dict(wire_responses=True))

    def generate(self) -> gen.Traffic:
        return gen.resolver_mix(self.seed, self.scale)

    def run_round(self) -> RoundResult:
        sampler = calibrate.Sampler().start()
        started = now()
        deployment = AkamaiDNSDeployment(DeploymentParams(
            seed=WORLD_SEED,
            machine_config=MachineConfig(**self.machine_config),
            **self.deployment_params))
        provision(deployment, self.traffic.zones)
        deployment.settle(SETTLE)
        resolvers = [deployment.add_resolver(resolver_address(i))
                     for i in range(self.traffic.n_resolvers)]
        setup_wall = now() - started
        sampler.stop()
        setup = (setup_wall - sampler.spent, sampler.factor)

        reads = self.traffic.reads
        results: list[ResolutionResult | None] = [None] * len(reads)
        steps: list[float] = []
        scales: list[float] = []
        gc.collect()
        started = now()
        base = schedule_reads(deployment, resolvers, reads, self.qnames,
                              results)
        schedule_s = now() - started
        drive(deployment, base + self.scale.duration, results, steps, scales)

        ledger = Ledger(edges=frozenset(deployment.edge_addresses))
        ledger.check_reads(self.traffic, results)
        return finish_round(deployment, resolvers, ledger, setup,
                            schedule_s, len(reads), steps, scales)


# -- nxdomain-flood -------------------------------------------------------------


class FloodSink:
    """Endpoint of one flood source host: records response rcodes."""

    def __init__(self) -> None:
        self.rcodes: list[RCode] = []

    def handle_datagram(self, dgram: Datagram) -> None:
        self.rcodes.append(dgram.payload.message.rcode)


def arm_defense(deployment: AkamaiDNSDeployment, telemetry: Telemetry,
                victim: Name, cloud) -> DefenseController:
    """The scorecard's defense-ladder arming, rebuilt from public parts:
    tighten queues, insert rate limiting, firewall the flooded zone's
    shape, then traffic-engineer the attacked cloud's first PoP."""
    machines = deployment.machines()
    telemetry.alerts.add(
        RateDetector(ATTACK_QPS_ALERT, window=1.0, threshold=120.0,
                     for_windows=2, clear_windows=2,
                     severity=AlertSeverity.CRITICAL), "qps")
    pop_router = deployment.cloud_pops[cloud.index][0]
    engineer = TrafficEngineer(deployment.network, cloud.prefix)
    plan = engineer.plan(
        AttackSituation(resolvers_dosed=True, peering_links_congested=False,
                        compute_saturated=True, can_spread_attack=False),
        pop_router_id=pop_router,
        attack_peers=deployment.network.topology.bgp_neighbors(pop_router),
        fraction=0.34)
    ladder = [
        QueueTightenRung(machines, factor=0.5),
        FilterInsertRung(machines, lambda machine: RateLimitFilter(),
                         name="rate-limit"),
        FirewallRuleRung(machines, victim.prepend("x"), RType.A,
                         name="victim-firewall"),
        TrafficEngRung(engineer, plan),
    ]
    controller = DefenseController(
        deployment.loop, ladder, alert_name=ATTACK_QPS_ALERT,
        params=DefenseParams(guardrail=GuardrailParams(margin=0.25,
                                                       min_samples=4)),
        estimator=known_resolver_estimator(machines), machines=machines)
    return controller.arm(telemetry)


@dataclass
class NxdomainFlood(PlatformWorkload):
    """Per-packet admission, scoring and shedding under a flood."""

    scale: gen.FloodScale = field(default_factory=gen.FloodScale)
    machine_config: dict = field(default_factory=lambda: dict(
        compute_capacity_qps=150.0, io_capacity_qps=3_000.0,
        queue_depth=500))

    def generate(self) -> gen.Traffic:
        return gen.nxdomain_flood(self.seed, self.scale)

    def run_round(self) -> RoundResult:
        telemetry = Telemetry(TelemetryConfig(
            seed=self.seed, trace_sample_rate=0.0, arm_mitigations=True))
        standard_detectors(telemetry.alerts)
        telemetry_state.activate(telemetry)
        try:
            return self._round(telemetry)
        finally:
            telemetry_state.deactivate()

    def _round(self, telemetry: Telemetry) -> RoundResult:
        sampler = calibrate.Sampler().start()
        started = now()
        deployment = AkamaiDNSDeployment(DeploymentParams(
            seed=WORLD_SEED,
            machine_config=MachineConfig(**self.machine_config),
            **self.deployment_params))
        victim_spec = self.traffic.zones[0]
        provision(deployment, self.traffic.zones)
        victim = name(victim_spec.origin)
        delegation = deployment.assigner.assign(f"bench-{victim_spec.origin}")
        cloud = next(c for c in delegation if c in deployment.clouds)
        deployment.settle(SETTLE)
        resolvers = [deployment.add_resolver(resolver_address(i))
                     for i in range(self.traffic.n_resolvers)]
        for machine in deployment.machines():
            machine.known_sources.update(r.host_id for r in resolvers)
        stubs = sorted(deployment.internet.stubs)
        place = random.Random(f"{self.seed}:flood-sources")
        sources, sinks = [], []
        for k in range(self.traffic.n_flood_sources):
            host = attach_host(deployment.internet, place,
                               host_id=f"198.18.{k // 250}.{k % 250 + 1}",
                               attach_to=stubs[k % len(stubs)])
            sink = FloodSink()
            deployment.network.attach_endpoint(host, sink)
            sources.append(host)
            sinks.append(sink)
        controller = arm_defense(deployment, telemetry, victim, cloud)
        setup_wall = now() - started
        sampler.stop()
        setup = (setup_wall - sampler.spent, sampler.factor)

        reads = self.traffic.reads
        results: list[ResolutionResult | None] = [None] * len(reads)
        steps: list[float] = []
        scales: list[float] = []
        flood = self.traffic.flood
        send = deployment.network.send
        target = cloud.prefix

        def fire(index: int) -> None:
            packet = flood[index]
            query = make_query(packet.msg_id, victim.prepend(packet.label),
                               RType.A)
            send(Datagram(src=sources[packet.source], dst=target,
                          payload=QueryEnvelope(query, is_attack=True),
                          src_port=packet.src_port))

        gc.collect()
        started = now()
        base = schedule_reads(deployment, resolvers, reads, self.qnames,
                              results)
        loop = deployment.loop
        for index, packet in enumerate(flood):
            loop.call_at(base + packet.at, fire, index)
        schedule_s = now() - started
        drive(deployment, base + self.scale.mix.duration, results, steps,
              scales)

        ledger = Ledger(edges=frozenset(deployment.edge_addresses))
        ledger.check_reads(self.traffic, results)
        ledger.check_flood([rc for sink in sinks for rc in sink.rcodes])
        result = finish_round(deployment, resolvers, ledger, setup,
                              schedule_s, len(reads) + len(flood), steps,
                              scales, ("DefenseController", controller))
        catchment = [m for m in deployment.machines()
                     if m.metrics.attack_received > 0]
        compute = sum(m.config.compute_capacity_qps for m in catchment)
        io = sum(m.config.io_capacity_qps for m in catchment)
        result.shape = {
            "catchment_machines": float(len(catchment)),
            "flood_over_compute": self.traffic.flood_rate / max(compute, 1.0),
            "flood_over_io": self.traffic.flood_rate / max(io, 1.0),
        }
        return result


# -- zone-churn -------------------------------------------------------------------


def updated_copy(zone: Zone, changes: tuple[tuple[int, str], ...],
                 hosts: list[gen.Host]) -> Zone:
    """Serial-bumped copy of ``zone`` with some hosts re-addressed.

    DNSSEC records are carried over so an incremental re-sign can keep
    the signatures of unchanged RRsets.
    """
    fresh = Zone(zone.origin)
    soa = zone.soa
    rdata = soa.records[0].rdata
    fresh.add_rrset(make_rrset(soa.name, RType.SOA, soa.ttl,
                               [replace(rdata, serial=rdata.serial + 1)]))
    changed = {zone.origin.prepend(hosts[h].label): (hosts[h].ttl, address)
               for h, address in changes}
    for rrset in zone.iter_rrsets():
        if rrset.rtype is RType.SOA:
            continue
        if rrset.rtype is RType.A and rrset.name in changed:
            ttl, address = changed[rrset.name]
            fresh.add_rrset(make_rrset(rrset.name, RType.A, ttl,
                                       [A(address)]))
            continue
        fresh.add_rrset(rrset)
    return fresh


@dataclass
class ZoneChurn(PlatformWorkload):
    """Writes beside reads: rollout, re-signing, BGP churn, monitoring."""

    scale: gen.ChurnScale = field(default_factory=gen.ChurnScale)
    machine_config: dict = field(
        default_factory=lambda: dict(zone_guard_enabled=True))

    def generate(self) -> gen.Traffic:
        return gen.zone_churn(self.seed, self.scale)

    def run_round(self) -> RoundResult:
        traffic = self.traffic
        sampler = calibrate.Sampler().start()
        started = now()
        deployment = AkamaiDNSDeployment(DeploymentParams(
            seed=WORLD_SEED, rollout_enabled=True,
            rollout=RolloutParams(soak_seconds=20.0, check_period=1.0),
            machine_config=MachineConfig(**self.machine_config),
            **self.deployment_params))
        provision(deployment, traffic.zones)
        signers: dict[int, ZoneSigner] = {}
        current: dict[int, Zone] = {}
        for spec in traffic.zones:
            zone = deployment.enterprise_zones[name(spec.origin)]
            current[spec.index] = zone
            if spec.signed:
                signer = ZoneSigner(KeyRing(self.seed, zone.origin))
                signer.sign(zone, deployment.loop.now)
                signers[spec.index] = signer
        deployment.settle(SETTLE)
        resolvers = [deployment.add_resolver(resolver_address(i))
                     for i in range(traffic.n_resolvers)]
        for index in traffic.validating:
            resolvers[index].validate_dnssec = True
        campaign = self._campaign(deployment)
        chaos = ChaosEngine(deployment)
        setup_wall = now() - started
        sampler.stop()
        setup = (setup_wall - sampler.spent, sampler.factor)

        reads = traffic.reads
        results: list[ResolutionResult | None] = [None] * len(reads)
        steps: list[float] = []
        scales: list[float] = []
        ledger = Ledger(edges=frozenset(deployment.edge_addresses))
        ledger.start_versions(traffic)
        sign_stats = [0, 0, 0]
        released: list[tuple[gen.Update, float, Release]] = []
        loop = deployment.loop

        def publish(index: int) -> None:
            update = traffic.updates[index]
            spec = traffic.zones[update.zone]
            fresh = updated_copy(current[update.zone], update.changes,
                                 spec.hosts)
            signer = signers.get(update.zone)
            if signer is not None:
                stats = signer.resign(fresh, loop.now)
                sign_stats[0] += 1
                sign_stats[1] += stats.signatures_created
                sign_stats[2] += stats.signatures_reused
            current[update.zone] = fresh
            ledger.publish(update, loop.now - base)
            released.append((update, loop.now - base,
                             deployment.publish_zone_update(fresh)))

        gc.collect()
        started = now()
        base = schedule_reads(deployment, resolvers, reads, self.qnames,
                              results)
        for index, update in enumerate(traffic.updates):
            loop.call_at(base + update.at, publish, index)
        chaos.arm(campaign)
        schedule_s = now() - started
        drive(deployment, base + self.scale.mix.duration, results, steps,
              scales)

        ledger.check_reads(traffic, results)
        # A promotion reaches the fleet over the CDN channel within its
        # largest delivery delay; only those that had the time count.
        delivered_by = loop.now - deployment.bus.profiles[
            CDN_CHANNEL].max_delay
        promoted_at: dict[int, float] = {}
        for update, at, release in released:
            if (release.phase is RolloutPhase.PROMOTED
                    and release.decided_at <= delivered_by):
                promoted_at[update.zone] = at
        ledger.check_installed(traffic, promoted_at, [
            m for m in deployment.machines()
            if m.state is not MachineState.CRASHED
            and not m.config.input_delayed])
        result = finish_round(deployment, resolvers, ledger, setup,
                              schedule_s, len(reads), steps, scales)
        result.counts["dnssec.resigns"] = sign_stats[0]
        result.counts["dnssec.signatures_created"] = sign_stats[1]
        result.counts["dnssec.signatures_reused"] = sign_stats[2]
        result.counts["chaos.fault_edges"] = len(chaos.events)
        return result

    def _campaign(self, deployment: AkamaiDNSDeployment) -> Campaign:
        pops = sorted(deployment.pops)
        kinds = {"machine_crash": FaultKind.MACHINE_CRASH,
                 "partition": FaultKind.PARTITION,
                 "link_flap": FaultKind.LINK_FLAP}
        campaign = Campaign("zone-churn", duration=self.scale.mix.duration
                            + DRAIN, seed=self.seed)
        for fault in self.traffic.faults:
            campaign.add(FaultSpec(kinds[fault.kind],
                                   pops[fault.target % len(pops)],
                                   Schedule.once(fault.at, fault.duration)))
        return campaign


# -- figures-fast -----------------------------------------------------------------


def import_seconds(repo: Path, samples: int) -> list[tuple[float, float]]:
    """Wall time to import the experiment runner in fresh interpreters,
    each with the host-speed factor measured in that interpreter on
    either side of the import."""
    code = ("import time\n"
            "from platformbench import calibrate\n"
            "before = calibrate.scale(5)\n"
            "t = time.perf_counter()\n"
            "import repro.experiments.runner\n"
            "t = time.perf_counter() - t\n"
            "print(t, (before + calibrate.scale(5)) / 2)\n")
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, cwd=repo, check=True,
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join([str(repo / "src"),
                                                 str(repo)])))
        seconds, factor = proc.stdout.split()[-2:]
        out.append((float(seconds), float(factor)))
    return out


@dataclass
class FiguresFast:
    """``run_all(fast=True, jobs=1)``, one runner label per operation."""

    repo: Path
    import_samples: int = 5
    #: Runner labels to run; None runs the whole suite in figure order.
    only: tuple[str, ...] | None = None

    def run(self, after_label=None) -> dict:
        from repro.analysis.report import render_results
        from repro.experiments import parallel
        from repro.experiments.runner import run_all

        setup = import_seconds(self.repo, self.import_samples)
        labels = list(self.only or parallel.JOB_ORDER)
        results, per_label, scales = [], {}, {}
        for label in labels:
            with calibrate.Sampler() as sampler:
                t0 = now()
                results.extend(run_all(fast=True, jobs=1, only=[label],
                                       verbose=False))
                per_label[label] = now() - t0
            per_label[label] -= sampler.spent
            scales[label] = sampler.factor
            if after_label is not None:
                after_label()
        rss = peak_rss_mb()
        text = render_results(results)
        rows = [row for result in results for row in result.comparisons]
        gc.collect()
        return {
            "setup_samples": setup, "per_label": per_label,
            "label_scales": scales, "labels": labels,
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "label_sha256": {r.experiment_id: hashlib.sha256(
                render_results([r]).encode()).hexdigest() for r in results},
            "rows_checked": len(rows),
            "rows_missed": sum(1 for row in rows if not row.holds),
            "peak_rss_mb": rss,
        }
