"""Sensitivity record: does each workload exercise the mechanisms it claims?

Flips one existing switch at a time from the benchmark's own code and
compares ``ops_per_s`` with the switch in its normal position:

* ``Network.route_cache_default`` (anycast route cache, on normally);
* ``AuthoritativeEngine.response_plan_cache_default`` (response plan
  cache, on normally);
* ``MachineConfig.wire_responses`` (wire codec; on in resolver-mix,
  off elsewhere).

The predicted direction of ``ops_per_s`` with the switch flipped is
written down in :data:`PREDICTIONS` before anything is measured. The
script alternates normal and flipped rounds, takes each side's median,
and writes the predicted and observed directions to ``SENSITIVITY.md``
next to this file, mismatches included as they are.

Usage, from the repository root::

    python3 platformbench/sensitivity.py [--rounds 3] [--seed 42]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "SENSITIVITY.md"

#: Relative change in ops_per_s below which a flip counts as "no change".
THRESHOLD = 0.05

SWITCHES = ("route_cache", "plan_cache", "wire")

#: Predicted direction of ops_per_s when the switch is flipped, with
#: the reason. "-" slower, "+" faster, "0" within THRESHOLD.
PREDICTIONS = {
    "resolver-mix": {
        "route_cache": ("-", "every query and answer walks the hops"),
        "plan_cache": ("-", "popular names lose their cached plans"),
        "wire": ("+", "wire off drops the codec, ~39% of the workload"),
    },
    "nxdomain-flood": {
        "route_cache": ("-", "every flood packet walks the hops"),
        "plan_cache": ("-", "NXDOMAINs lose the negative plan, but only "
                            "answered packets pay"),
        "wire": ("0", "wire on: compute caps answers at a few hundred/s"),
    },
    "zone-churn": {
        "route_cache": ("0", "BGP churn keeps flushing the cache"),
        "plan_cache": ("0", "updates invalidate most plans anyway"),
        "wire": ("-", "wire on: every authoritative answer is encoded "
                      "and decoded"),
    },
    "figures-fast": {
        "route_cache": ("-", "fig8/fig10/resilience forward many packets"),
        "plan_cache": ("-", "fig10 floods lean on negative plans"),
        "wire": ("n/a", "experiments build their own MachineConfigs"),
    },
}


def direction(ratio: float) -> str:
    if ratio > 1.0 + THRESHOLD:
        return "+"
    if ratio < 1.0 - THRESHOLD:
        return "-"
    return "0"


class Flip:
    """Context manager putting one switch in its flipped position."""

    def __init__(self, switch: str, bench) -> None:
        self.switch = switch
        self.bench = bench

    def __enter__(self):
        from repro.netsim.network import Network
        from repro.server.engine import AuthoritativeEngine
        if self.switch == "route_cache":
            Network.route_cache_default = False
        elif self.switch == "plan_cache":
            AuthoritativeEngine.response_plan_cache_default = False
        else:
            config = self.bench.machine_config
            config["wire_responses"] = not config.get("wire_responses",
                                                      False)
        return self

    def __exit__(self, *exc) -> None:
        from repro.netsim.network import Network
        from repro.server.engine import AuthoritativeEngine
        if self.switch == "route_cache":
            Network.route_cache_default = True
        elif self.switch == "plan_cache":
            AuthoritativeEngine.response_plan_cache_default = True
        else:
            config = self.bench.machine_config
            config["wire_responses"] = not config["wire_responses"]


def platform_rows(workload: str, seed: int, rounds: int) -> list[dict]:
    from platformbench.bench import make_workload, measured_median
    bench = make_workload(workload, seed, "full")
    bench.prepare()
    rows = []
    for switch in SWITCHES:
        sides: dict[bool, list] = {False: [], True: []}
        for _ in range(rounds):
            for flip in (False, True):
                if flip:
                    with Flip(switch, bench):
                        result = bench.run_round()
                else:
                    result = bench.run_round()
                gc.collect()
                sides[flip].append(result)
        normal = [sides[False][0].ops / measured_median(sides[False])]
        flipped = [sides[True][0].ops / measured_median(sides[True])]
        outcomes = {tuple(r.ledger.outcomes) for r in sides[False]
                    + sides[True]}
        same = len(outcomes) == 1 and not any(
            r.ledger.failed for r in sides[False] + sides[True])
        rows.append(row(workload, switch, normal, flipped, same, rounds))
        print(rows[-1], flush=True)
    return rows


def figures_rows(rounds: int) -> list[dict]:
    from platformbench.bench import figures_seconds
    from platformbench.workloads import FiguresFast
    bench = FiguresFast(ROOT, import_samples=1)
    rows = []
    for switch in SWITCHES[:2]:
        normal, flipped, reports = [], [], set()
        for _ in range(rounds):
            for flip in (False, True):
                if flip:
                    with Flip(switch, bench):
                        outcome = bench.run()
                else:
                    outcome = bench.run()
                reports.add(outcome["report_sha256"])
                (flipped if flip else normal).append(
                    len(outcome["labels"]) / figures_seconds(outcome))
        rows.append(row("figures-fast", switch, normal, flipped,
                        len(reports) == 1, rounds))
        print(rows[-1], flush=True)
    predicted, why = PREDICTIONS["figures-fast"]["wire"]
    rows.append({"workload": "figures-fast", "switch": "wire",
                 "predicted": predicted, "why": why, "observed": "n/a",
                 "ratio": float("nan"), "rounds": 0, "same": True})
    return rows


def row(workload: str, switch: str, normal: list[float],
        flipped: list[float], same: bool, rounds: int) -> dict:
    ratio = statistics.median(flipped) / statistics.median(normal)
    predicted, why = PREDICTIONS[workload][switch]
    return {"workload": workload, "switch": switch, "predicted": predicted,
            "why": why, "observed": direction(ratio), "ratio": ratio,
            "rounds": rounds, "same": same}


def render(rows: list[dict], seed: int, host: str) -> str:
    lines = [
        "# Sensitivity record",
        "",
        "Written by `python3 platformbench/sensitivity.py`; edit the "
        "predictions in that script, not here.",
        "",
        f"Seed {seed}; {host}. `ratio` is ops_per_s with the switch "
        "flipped over ops_per_s with it in its normal position, each side "
        "measured as in `run.py` (sum of per-step medians over its "
        "rounds; rounds alternate between the sides; figures-fast: median "
        "of whole passes). Directions: `+` faster, `-` slower, `0` "
        f"within {THRESHOLD:.0%}. `answers` says whether every operation "
        "got the same, correct answer both ways.",
        "",
        "| workload | switch flipped | predicted | why | observed | ratio "
        "| rounds/side | answers | match |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    names = {"route_cache": "route cache off", "plan_cache":
             "plan cache off", "wire": "wire mode toggled"}
    for r in rows:
        match = ("n/a" if r["observed"] == "n/a" else
                 "yes" if r["observed"] == r["predicted"] else "**no**")
        ratio = "n/a" if r["observed"] == "n/a" else f"{r['ratio']:.3f}"
        lines.append(
            f"| {r['workload']} | {names[r['switch']]} | {r['predicted']} "
            f"| {r['why']} | {r['observed']} | {ratio} | {r['rounds']} | "
            f"{'same' if r['same'] else 'differ'} | {match} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workloads", default="resolver-mix,"
                        "nxdomain-flood,zone-churn,figures-fast")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from platformbench import pin_hash_seed
    pin_hash_seed(__file__)
    import os
    import platform
    rows = []
    for workload in args.workloads.split(","):
        if workload == "figures-fast":
            rows.extend(figures_rows(max(1, args.rounds // 2)))
        else:
            rows.extend(platform_rows(workload, args.seed, args.rounds))
    host = (f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"{platform.machine()}")
    OUT.write_text(render(rows, args.seed, host))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
