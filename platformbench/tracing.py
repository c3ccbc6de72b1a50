"""Benchmark-side span tracing of each layer's public entry points.

Only the traced run installs these wrappers, and each one sits at the
attribute its callers look up: methods on their class, module-level
functions in the namespace of the module that imported them. A span
records its name, wall start and end, and its enclosing wrapped span;
spans under one event-loop dispatch share a dispatch id. Spans stay in
memory (up to :data:`MAX_KEPT` of them) and are written out when the run
ends.

Self time is a span's duration minus the time its child spans cover.
Counts are not measured by the wrappers: they are the public counters
the program keeps, read by :func:`sum_counters`, the one mapping from
metric name to counter. A platform round passes it its world's objects
(``workloads.world_instances``). A figures-fast pass builds its worlds
inside the experiments, so there the ``__init__`` of each
counter-keeping class is wrapped only to remember the instances, and
:meth:`Tracer.harvest` reads them. Resolver timeouts and TCP retries
live on each resolution's result, so the wrapper of
``RecursiveResolver.resolve`` tallies them from the result it hands
back, on every workload.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

#: Spans kept for the written trace; aggregates always cover every span.
MAX_KEPT = 200_000

_LOOP = "netsim.loop"

#: (module, class or None, attribute, span name). ``None`` as class
#: wraps a module-level function in that module's namespace.
SPAN_SITES = [
    ("repro.netsim.clock", "EventLoop", "run_until", _LOOP),
    ("repro.netsim.network", "Network", "send", "netsim.send"),
    ("repro.netsim.bgp", "BGPSpeaker", "receive_update", "netsim.bgp"),
    ("repro.netsim.bgp", "BGPSpeaker", "originate", "netsim.bgp"),
    ("repro.netsim.bgp", "BGPSpeaker", "withdraw_origin", "netsim.bgp"),
    ("repro.netsim.bgp", "BGPSpeaker", "session_down", "netsim.bgp"),
    ("repro.netsim.bgp", "BGPSpeaker", "session_up", "netsim.bgp"),
    ("repro.server.machine", "NameserverMachine", "receive_query",
     "server.receive"),
    ("repro.server.machine", "NameserverMachine", "install_zone",
     "server.install_zone"),
    ("repro.server.engine", "AuthoritativeEngine", "respond",
     "server.engine.respond"),
    ("repro.server.monitoring", "MonitoringAgent", "run_check",
     "server.monitoring"),
    ("repro.filters.base", "ScoringPipeline", "score", "filters.score"),
    ("repro.dnscore.message", "Message", "to_wire", "dnscore.to_wire"),
    ("repro.dnscore.message", "Message", "from_wire", "dnscore.from_wire"),
    ("repro.resolver.resolver", "RecursiveResolver", "resolve",
     "resolver.resolve"),
    ("repro.resolver.resolver", "RecursiveResolver", "handle_datagram",
     "resolver.handle"),
    ("repro.dnssec.sign", "ZoneSigner", "sign", "dnssec.sign"),
    ("repro.dnssec.sign", "ZoneSigner", "resign", "dnssec.sign"),
    ("repro.resolver.resolver", None, "verify_message", "dnssec.verify"),
    ("repro.experiments.fig10_nxdomain", None, "verify_message",
     "dnssec.verify"),
    ("repro.control.rollout", "RolloutCoordinator", "publish",
     "control.rollout.publish"),
    ("repro.workload.arrivals", None, "bursty_counts",
     "workload.bursty_counts"),
    ("repro.experiments.fig3_per_resolver", None, "bursty_counts",
     "workload.bursty_counts"),
    ("repro.workload.population", "ResolverPopulation", "__init__",
     "workload.population"),
    ("repro.workload.population", "ResolverPopulation", "advance_week",
     "workload.population"),
    ("repro.workload.population", "ZonePopularity", "__init__",
     "workload.population"),
    ("repro.workload.population", "ZonePopularity", "sample",
     "workload.population"),
]

#: Every hook method the simulator calls on an active telemetry session.
TELEMETRY_HOOKS = [
    "query_received", "query_answered", "query_dropped", "queue_enqueued",
    "queue_served", "filter_scored", "qod_event", "agent_check",
    "machine_lifecycle", "machine_stale", "zone_update", "rollout_event",
    "defense_transition", "gray_verdict", "gray_detection",
    "resolution_started", "resolution_finished", "dnssec_signed",
    "dnssec_validation", "dnssec_rollover", "zone_response",
    "probe_outcome",
]

#: Classes whose instances' public counters are harvested.
INSTANCE_SITES = [
    ("repro.netsim.clock", "EventLoop"),
    ("repro.netsim.network", "Network"),
    ("repro.netsim.bgp", "BGPSpeaker"),
    ("repro.server.pop", "PoP"),
    ("repro.server.machine", "NameserverMachine"),
    ("repro.server.engine", "AuthoritativeEngine"),
    ("repro.server.monitoring", "MonitoringAgent"),
    ("repro.control.pubsub", "MetadataBus"),
    ("repro.control.rollout", "RolloutCoordinator"),
    ("repro.control.defense", "DefenseController"),
    ("repro.resolver.resolver", "RecursiveResolver"),
]


def _counters(kind: str, obj) -> dict[str, int]:
    """Public counters of one instance, by benchmark metric name."""
    if kind == "EventLoop":
        return {"netsim.events": obj.events_processed}
    if kind == "Network":
        return {"netsim.delivered": obj.stats.delivered,
                "netsim.dropped": obj.stats.dropped(),
                "netsim.route_epoch": obj.route_epoch}
    if kind == "BGPSpeaker":
        return {"netsim.bgp.updates": obj.updates_sent}
    if kind == "PoP":
        return {"server.pop.forwarded": obj.queries_forwarded,
                "server.pop.dropped": obj.dropped_ingress
                + obj.dropped_no_machine}
    if kind == "NameserverMachine":
        m = obj.metrics
        return {"server.machine.received": m.received,
                "server.machine.answered": m.answered,
                "server.machine.shed": m.dropped_io + m.dropped_queue
                + m.dropped_firewall + m.dropped_not_running,
                "server.machine.attack_received": m.attack_received,
                "server.queue.dropped_full": obj.queues.stats.dropped_full,
                "server.queue.discarded": obj.queues.stats.discarded_s_max,
                "server.install_zone.installs": m.zone_installs}
    if kind == "AuthoritativeEngine":
        return {"server.engine.respond.answered": obj.queries_answered,
                "server.engine.nxdomain": obj.nxdomain_count,
                "server.engine.plan_cache_wipes": obj.plan_cache_wipes}
    if kind == "MonitoringAgent":
        return {"server.monitoring.checks": obj.metrics.checks_run}
    if kind == "MetadataBus":
        return {"control.bus.published": obj.published,
                "control.bus.stale_dropped": obj.stale_deliveries_dropped}
    if kind == "RolloutCoordinator":
        return {"control.rollout.promotions": obj.promotions,
                "control.rollout.rollbacks": obj.rollbacks}
    if kind == "DefenseController":
        return {"control.defense.transitions": len(obj.transitions)}
    if kind == "RecursiveResolver":
        return {"resolver.resolutions": obj.resolutions_started,
                "resolver.auth_queries": sum(obj.queries_by_server.values()),
                "resolver.cache.hits": obj.cache.hits,
                "resolver.cache.misses": obj.cache.misses,
                "dnssec.validations_ok": obj.validations_ok}
    return {}


def sum_counters(instances) -> dict[str, int]:
    """The public counters of ``(kind, instance)`` pairs, summed by
    metric name."""
    totals: dict[str, int] = defaultdict(int)
    for kind, obj in instances:
        for key, value in _counters(kind, obj).items():
            totals[key] += value
    return dict(totals)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.kept: list[tuple] = []
        self.spans = 0
        self.dispatches = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.respond_us: list[float] = []
        self.wire_bytes = 0
        self.sigs_created = 0
        self.sigs_reused = 0
        self.timeouts = 0
        self.tcp_retries = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.instances: list[tuple[str, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, span_name: str, fn):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if parent is None or parent[0] == _LOOP:
                tracer.dispatches += 1
                dispatch = tracer.dispatches
            else:
                dispatch = parent[4]
            index = tracer.spans
            tracer.spans += 1
            frame = [span_name, perf(), 0.0, index, dispatch]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                tracer.calls[span_name] += 1
                tracer.self_s[span_name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if span_name == "server.engine.respond":
                    tracer.respond_us.append(duration * 1e6)
                if len(tracer.kept) < MAX_KEPT:
                    tracer.kept.append((
                        index, span_name, frame[1], end,
                        parent[3] if parent is not None else -1, dispatch))
            if span_name == "dnscore.to_wire":
                tracer.wire_bytes += len(result)
            elif span_name == "dnssec.sign":
                tracer.sigs_created += result.signatures_created
                tracer.sigs_reused += result.signatures_reused
            return result

        return traced

    def _tally_results(self, resolve):
        """``resolve`` with its callback wrapped to tally the timeouts
        and TCP retries of the result it receives."""
        tracer = self

        @functools.wraps(resolve)
        def tallied(resolver, qname, qtype, callback):
            def done(result):
                tracer.timeouts += result.timeouts
                tracer.tcp_retries += result.tcp_retries
                callback(result)
            return resolve(resolver, qname, qtype, done)
        return tallied

    def install(self, *, register_instances: bool) -> None:
        """Wrap every site; :meth:`uninstall` restores the originals.

        ``register_instances`` also wraps the ``__init__`` of each
        counter-keeping class, for :meth:`harvest`.
        """
        for module_name, class_name, attr, span_name in SPAN_SITES:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr] if class_name else \
                getattr(owner, attr)
            self._restore.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span(span_name,
                                                 original.__func__))
            elif span_name == "resolver.resolve":
                wrapped = self._span(span_name,
                                     self._tally_results(original))
            else:
                wrapped = self._span(span_name, original)
            setattr(owner, attr, wrapped)
        from repro.telemetry import Telemetry
        for hook in TELEMETRY_HOOKS:
            original = Telemetry.__dict__[hook]
            self._restore.append((Telemetry, hook, original))
            setattr(Telemetry, hook, self._span("telemetry.hooks", original))
        if not register_instances:
            return
        for module_name, class_name in INSTANCE_SITES:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__["__init__"]
            self._restore.append((cls, "__init__", original))
            setattr(cls, "__init__", self._register(class_name, original))

    def _register(self, kind: str, init):
        instances = self.instances

        @functools.wraps(init)
        def registered(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append((kind, obj))
        return registered

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def harvest(self) -> None:
        """Add the counters of every remembered instance, then forget
        them (so finished worlds can be freed)."""
        for key, value in sum_counters(self.instances).items():
            self.counts[key] += value
        self.instances.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, counts: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics: the spans' self times and call counts, and
        the program's ``counts`` (from :func:`sum_counters`)."""
        c, s = self.calls, self.self_s
        hits = counts.get("resolver.cache.hits", 0)
        lookups = hits + counts.get("resolver.cache.misses", 0)
        signatures = self.sigs_created + self.sigs_reused
        out = {
            "netsim.loop.self_s": s[_LOOP],
            "netsim.send.calls": c["netsim.send"],
            "netsim.send.self_s": s["netsim.send"],
            "netsim.bgp.self_s": s["netsim.bgp"],
            "server.receive.self_s": s["server.receive"],
            "server.engine.respond.calls": c["server.engine.respond"],
            "server.engine.respond.self_s": s["server.engine.respond"],
            "server.engine.respond.p50_us": _quantile(self.respond_us, 0.5),
            "server.engine.respond.p99_us": _quantile(self.respond_us,
                                                      0.99),
            "server.monitoring.self_s": s["server.monitoring"],
            "server.install_zone.calls": c["server.install_zone"],
            "server.install_zone.self_s": s["server.install_zone"],
            "filters.score.calls": c["filters.score"],
            "filters.score.self_s": s["filters.score"],
            "dnscore.to_wire.calls": c["dnscore.to_wire"],
            "dnscore.to_wire.self_s": s["dnscore.to_wire"],
            "dnscore.wire_bytes": self.wire_bytes,
            "dnscore.from_wire.calls": c["dnscore.from_wire"],
            "dnscore.from_wire.self_s": s["dnscore.from_wire"],
            "resolver.resolve.self_s": s["resolver.resolve"],
            "resolver.timeouts": self.timeouts,
            "resolver.tcp_retries": self.tcp_retries,
            "resolver.handle.self_s": s["resolver.handle"],
            "resolver.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "resolver.cache.lookups": lookups,
            "dnssec.sign.calls": c["dnssec.sign"],
            "dnssec.sign.self_s": s["dnssec.sign"],
            "dnssec.verify.self_s": s["dnssec.verify"],
            "dnssec.signatures": signatures,
            "dnssec.sig_reuse_ratio": (self.sigs_reused / signatures
                                       if signatures else 0.0),
            "control.rollout.publish.self_s": s["control.rollout.publish"],
            "telemetry.hooks.calls": c["telemetry.hooks"],
            "telemetry.hooks.self_s": s["telemetry.hooks"],
            "workload.bursty_counts.self_s": s["workload.bursty_counts"],
            "workload.population.self_s": s["workload.population"],
            "trace.spans": self.spans,
        }
        for key in ("netsim.events", "netsim.delivered", "netsim.dropped",
                    "netsim.route_epoch", "netsim.bgp.updates",
                    "server.pop.forwarded", "server.pop.dropped",
                    "server.machine.received", "server.machine.answered",
                    "server.machine.shed", "server.queue.dropped_full",
                    "server.queue.discarded", "server.engine.nxdomain",
                    "server.engine.plan_cache_wipes",
                    "server.monitoring.checks", "control.bus.published",
                    "control.bus.stale_dropped",
                    "control.rollout.promotions",
                    "control.rollout.rollbacks",
                    "control.defense.transitions", "resolver.resolutions",
                    "resolver.auth_queries"):
            out[key] = counts.get(key, 0)
        return out

    def write(self, path: Path) -> None:
        """The kept spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"spans": self.spans,
                                     "kept": len(self.kept)}) + "\n")
            for index, span_name, start, end, parent, dispatch in self.kept:
                handle.write(json.dumps(
                    [index, span_name, round(start, 9), round(end, 9),
                     parent, dispatch]) + "\n")


def step_stats(steps: list[float]) -> dict[str, float]:
    ms = [s * 1e3 for s in steps]
    return {"netsim.step_ms.p50": statistics.median(ms) if ms else 0.0,
            "netsim.step_ms.p99": _quantile(ms, 0.99),
            "netsim.step.samples": len(ms)}
