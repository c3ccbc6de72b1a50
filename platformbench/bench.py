"""Run one workload, check it, and print its metrics.

Usage (from the repository root)::

    python3 platformbench/run.py --workload resolver-mix --seed 42 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones. The process exits 1 when any
operation disagrees with ground truth, when rounds of one seed disagree
with each other, when the default seed's digest differs from the
recorded one in ``expected.json``, or when the generated traffic leaves
its stated bands.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from pathlib import Path

from . import traffic as gen
from . import workloads
from .tracing import Tracer, step_stats

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
EXPECTED = HERE / "expected.json"
TRACE_OUT = REPO / ".platformbench-out"
DEFAULT_SEED = 42
#: Rounds per run at least: set-up time is the median of these.
MIN_ROUNDS = 3
#: Stop adding rounds past this much wall time, whatever --seconds says.
MAX_WALL_S = 140.0

WORKLOADS = ("resolver-mix", "nxdomain-flood", "zone-churn", "figures-fast")
EXPERIMENT_LABELS = ("fig1", "fig2", "fig3", "fig4", "fig8", "fig9",
                     "fig10", "fig10-signed", "fig11", "fig12", "taxonomy",
                     "anycast-quality", "enduser", "resilience", "text")

#: The figures-fast labels of the smoke-test scale (the quickest ones).
TINY_LABELS = ("fig1", "fig9", "anycast-quality")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit (the BENCHMARK.json
    ``per_layer`` list is exactly this)."""
    units: dict[str, str] = {}
    for key in PER_LAYER_COUNTS:
        units[key] = "count"
    for key in PER_LAYER_SECONDS:
        units[key] = "s"
    units.update({
        "netsim.step_ms.p50": "ms", "netsim.step_ms.p99": "ms",
        "server.engine.respond.p50_us": "us",
        "server.engine.respond.p99_us": "us",
        "resolver.cache.hit_ratio": "ratio",
        "dnssec.sig_reuse_ratio": "ratio",
        "dnscore.wire_bytes": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    for label in EXPERIMENT_LABELS:
        units[f"experiments.{label}_s"] = "s"
    return units


PER_LAYER_COUNTS = (
    "netsim.events", "netsim.step.samples", "netsim.send.calls",
    "netsim.delivered", "netsim.dropped", "netsim.route_epoch",
    "netsim.bgp.updates", "server.pop.forwarded", "server.pop.dropped",
    "server.machine.received", "server.machine.answered",
    "server.machine.shed", "server.queue.dropped_full",
    "server.queue.discarded", "server.engine.respond.calls",
    "server.engine.nxdomain", "server.engine.plan_cache_wipes",
    "server.monitoring.checks", "server.install_zone.calls",
    "filters.score.calls", "dnscore.to_wire.calls",
    "dnscore.from_wire.calls", "resolver.tcp_retries",
    "resolver.resolutions", "resolver.auth_queries",
    "resolver.cache.lookups", "resolver.timeouts", "dnssec.sign.calls",
    "dnssec.signatures", "control.bus.published",
    "control.bus.stale_dropped", "control.rollout.promotions",
    "control.rollout.rollbacks", "control.defense.transitions",
    "telemetry.hooks.calls", "trace.spans",
)
PER_LAYER_SECONDS = (
    "netsim.loop.self_s", "netsim.send.self_s", "netsim.bgp.self_s",
    "server.receive.self_s", "server.engine.respond.self_s",
    "server.monitoring.self_s", "server.install_zone.self_s",
    "filters.score.self_s", "dnscore.to_wire.self_s",
    "dnscore.from_wire.self_s", "resolver.resolve.self_s",
    "resolver.handle.self_s", "dnssec.sign.self_s", "dnssec.verify.self_s",
    "control.rollout.publish.self_s", "telemetry.hooks.self_s",
    "workload.bursty_counts.self_s", "workload.population.self_s",
)


def tiny_workload(workload: str, seed: int):
    """A seconds-long smoke-test scale of a platform workload."""
    from repro.netsim.builder import InternetParams
    small = dict(internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=20),
                 n_pops=8, deployed_clouds=8, machines_per_pop=1,
                 pops_per_cloud=2, n_edge_servers=4)
    if workload == "resolver-mix":
        return workloads.ResolverMix(seed, small, scale=gen.MixScale(
            n_zones=20, head_hosts=60, tail_hosts=6, n_resolvers=20,
            rate=40.0, duration=5.0))
    if workload == "nxdomain-flood":
        return workloads.NxdomainFlood(seed, small, scale=gen.FloodScale(
            mix=gen.MixScale(n_zones=5, head_hosts=20, tail_hosts=10,
                             n_resolvers=6, rate=10.0, duration=6.0,
                             zone_head_share=0.5, cdn_every=0),
            flood_rate=600.0, flood_duration=3.0, n_sources=4))
    return workloads.ZoneChurn(seed, small, scale=gen.ChurnScale(
        mix=gen.MixScale(n_zones=4, head_hosts=20, tail_hosts=20,
                         n_resolvers=6, rate=5.0, duration=40.0,
                         cdn_every=0, signed_every=2),
        churned=2, update_period=6.0))


def make_workload(workload: str, seed: int, scale: str):
    if scale == "tiny":
        return tiny_workload(workload, seed)
    return {"resolver-mix": workloads.ResolverMix,
            "nxdomain-flood": workloads.NxdomainFlood,
            "zone-churn": workloads.ZoneChurn}[workload](seed)


def load_expected() -> dict:
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {}


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))


def log(message: str) -> None:
    print(message, flush=True)


def host_profile() -> dict[str, str]:
    """Recorded with every run and every recording, never enforced."""
    import os
    import platform
    return {"cpus": str(os.cpu_count()),
            "python": platform.python_version(),
            "machine": platform.machine()}


# -- platform workloads ---------------------------------------------------------


def run_platform(args) -> int:
    bench = make_workload(args.workload, args.seed, args.scale)
    bench.prepare()
    shape = bench.shape()
    log(f"[traffic] {args.workload} seed={args.seed} " + " ".join(
        f"{k}={v:.4f}" if v % 1 else f"{k}={int(v)}"
        for k, v in shape.items()))
    problems = (gen.check_bands(args.workload, shape)
                if args.scale == "full" else [])

    run_started = time.perf_counter()
    rounds: list[workloads.RoundResult] = []
    while (len(rounds) < MIN_ROUNDS
           or sum(r.measured_s for r in rounds) < args.seconds):
        result = bench.run_round()
        if not rounds:
            result.peak_rss_mb = workloads.peak_rss_mb()
        rounds.append(result)
        log(f"[round {len(rounds)}] setup={result.setup_s:.4f}s "
            f"measured={result.measured_s:.4f}s ops={result.ops} "
            f"failed={result.ledger.failed} digest={result.digest[:16]}")
        gc.collect()
        if time.perf_counter() - run_started > MAX_WALL_S:
            break
    first = rounds[0]
    if args.scale == "full":
        problems += gen.check_bands(args.workload, first.shape)
    if first.shape:
        log("[catchment] " + " ".join(f"{k}={v:.4f}"
                                      for k, v in first.shape.items()))
    if first.ledger.flood_wrong:
        problems.append(f"{first.ledger.flood_wrong} flood packets got an "
                        "answer other than NXDOMAIN")
    if any(r.digest != first.digest for r in rounds):
        problems.append("rounds of one seed produced different digests")
    expected = load_expected().get(args.workload)
    if (args.scale == "full" and expected
            and expected.get("seed") == args.seed
            and expected.get("digest") != first.digest):
        problems.append(f"digest {first.digest} differs from the recorded "
                        f"{expected.get('digest')} for seed {args.seed}")
    for message in first.ledger.problems:
        log(f"[wrong] {message}")
    attempted = first.ledger.attempted
    failed = first.ledger.failed
    log(f"[outcome] digest={first.digest} failed_frac="
        f"{failed / max(1, attempted):.6f} (fraction) attempted={attempted}")
    log("[counts] " + json.dumps(first.counts, sort_keys=True))

    if args.record and args.scale == "full":
        data = load_expected()
        data[args.workload] = {"seed": args.seed, "digest": first.digest,
                               "counts": first.counts, "shape": shape,
                               "host": host_profile()}
        EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True)
                            + "\n")

    ops_per_s = first.ops / measured_median(rounds)
    setup_s = scaled_median((r.setup_s, r.setup_scale) for r in rounds)
    log(f"[e2e] ops_per_s={ops_per_s:.2f} ops/s setup_s={setup_s:.4f} s "
        f"peak_rss_mb={first.peak_rss_mb:.1f} MiB rounds={len(rounds)} "
        f"(reference host; wall: ops_per_s="
        f"{first.ops / statistics.median(r.measured_s for r in rounds):.2f}"
        f" setup_s={statistics.median(r.setup_s for r in rounds):.4f}, "
        f"host speed {statistics.median(k for r in rounds for k in r.step_scales):.3f}"
        f"x reference)")
    correct = failed == 0 and not problems
    for message in problems:
        log(f"[problem] {message}")

    if not args.trace:
        metrics = {"ops_per_s": (ops_per_s, "ops/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (first.peak_rss_mb, "MiB")}
    else:
        tracer = Tracer()
        tracer.install(register_instances=False)
        try:
            traced = bench.run_round()
        finally:
            tracer.uninstall()
        if traced.digest != first.digest:
            correct = False
            log("[problem] the traced round's digest differs: tracing "
                "changed behaviour")
        TRACE_OUT.mkdir(exist_ok=True)
        tracer.write(TRACE_OUT / f"{args.workload}-seed{args.seed}"
                     ".spans.jsonl.gz")
        values = tracer.metrics(traced.counts)
        values.update(step_stats([s for r in rounds for s in r.steps_s]))
        values["trace.overhead_ratio"] = (scaled_seconds(traced)
                                          / measured_median(rounds))
        metrics = layer_metrics(values)
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def scaled_seconds(round_: workloads.RoundResult) -> float:
    """One round's measured time rescaled to the reference host."""
    steps = sum(s * k for s, k in zip(round_.steps_s, round_.step_scales))
    outside = round_.measured_s - sum(round_.steps_s)
    return steps + outside * statistics.median(round_.step_scales)


def measured_median(rounds: list[workloads.RoundResult]) -> float:
    """The measured phase's time on the reference host, as the sum of
    per-step medians.

    Each step's wall time is first rescaled by the host-speed factor
    measured on either side of it (calibrate.py). Every round of one
    seed replays the same simulated steps, so step ``i`` is the same
    work in each round; taking each step's median over the rounds
    before summing keeps a burst of host noise that hits one round's
    step from moving the result.
    """
    steps = zip(*([s * k for s, k in zip(r.steps_s, r.step_scales)]
                  for r in rounds))
    outside = statistics.median(
        (r.measured_s - sum(r.steps_s)) * statistics.median(r.step_scales)
        for r in rounds)
    return outside + sum(statistics.median(step) for step in steps)


def scaled_median(samples) -> float:
    """Median of (wall seconds, host-speed factor) pairs, rescaled."""
    return statistics.median(seconds * k for seconds, k in samples)


def layer_metrics(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Order and unit the per-layer values; absent layers read 0."""
    return {key: (values.get(key, 0), unit)
            for key, unit in per_layer_units().items()}


# -- figures-fast -----------------------------------------------------------------


def figures_seconds(outcome: dict) -> float:
    """A figures-fast pass's time on the reference host: each label's
    wall time rescaled by the host-speed factor around it."""
    return sum(seconds * outcome["label_scales"][label]
               for label, seconds in outcome["per_label"].items())


def run_figures(args) -> int:
    bench = workloads.FiguresFast(
        REPO, only=TINY_LABELS if args.scale == "tiny" else None)
    outcome = bench.run()
    expected = load_expected().get("figures-fast", {})
    recorded = expected.get("label_sha256", {})
    wrong = [label for label, sha in outcome["label_sha256"].items()
             if recorded and recorded.get(label) != sha]
    problems = [f"label {label} output differs from the recorded one"
                for label in wrong]
    if (recorded and args.scale == "full"
            and expected.get("report_sha256") != outcome["report_sha256"]):
        problems.append("report differs from the recorded runner output")
    attempted = len(outcome["labels"])
    log("[labels] " + " ".join(f"{k}={v:.3f}s"
                               for k, v in outcome["per_label"].items()))
    log(f"[outcome] report_sha256={outcome['report_sha256']} "
        f"shape_rows_missed={outcome['rows_missed']}/"
        f"{outcome['rows_checked']} failed_frac="
        f"{len(wrong) / attempted:.6f} (fraction)")
    if args.record and args.scale == "full":
        data = load_expected()
        data["figures-fast"] = {k: outcome[k] for k in (
            "report_sha256", "label_sha256", "rows_checked", "rows_missed")}
        data["figures-fast"]["host"] = host_profile()
        EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True)
                            + "\n")
    for message in problems:
        log(f"[problem] {message}")
    correct = not problems
    measured = figures_seconds(outcome)
    ops_per_s = attempted / measured
    setup_s = scaled_median(outcome["setup_samples"])
    log(f"[e2e] ops_per_s={ops_per_s:.4f} ops/s setup_s={setup_s:.4f} s "
        f"peak_rss_mb={outcome['peak_rss_mb']:.1f} MiB")
    if not args.trace:
        metrics = {"ops_per_s": (ops_per_s, "ops/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (outcome["peak_rss_mb"], "MiB")}
    else:
        tracer = Tracer()
        tracer.install(register_instances=True)
        try:
            traced = bench.run(after_label=tracer.harvest)
        finally:
            tracer.uninstall()
        if traced["report_sha256"] != outcome["report_sha256"]:
            correct = False
            log("[problem] the traced pass's report differs: tracing "
                "changed behaviour")
        TRACE_OUT.mkdir(exist_ok=True)
        tracer.write(TRACE_OUT / "figures-fast.spans.jsonl.gz")
        values = tracer.metrics(tracer.counts)
        for label, seconds in outcome["per_label"].items():
            values[f"experiments.{label}_s"] = seconds
        values["trace.overhead_ratio"] = figures_seconds(traced) / measured
        metrics = layer_metrics(values)
    emit(correct, attempted, len(wrong), metrics)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured wall time to accumulate over rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test scale (no bands, no "
                             "recorded digest)")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's digest and counts to "
                             "expected.json")
    args = parser.parse_args(argv)
    log("[host] " + " ".join(f"{k}={v}" for k, v in host_profile().items()))
    if args.workload == "figures-fast":
        return run_figures(args)
    return run_platform(args)
