"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest platformbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from platformbench import traffic as gen
from platformbench.bench import measured_median, per_layer_units
from platformbench.workloads import RoundResult
from platformbench.oracle import Ledger
from repro.dnscore import RCode, RType, make_rrset
from repro.dnscore.name import name
from repro.dnscore.rdata import A, CNAME
from repro.dnscore.zonefile import parse_zone_text
from repro.resolver.resolver import ResolutionResult
from repro.server.engine import AuthoritativeEngine, ZoneStore

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_MIX = gen.MixScale(n_zones=20, head_hosts=50, tail_hosts=5,
                         n_resolvers=20, rate=50.0, duration=4.0)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "platformbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: gen.resolver_mix(seed, SMALL_MIX),
    lambda seed: gen.nxdomain_flood(seed, gen.FloodScale(
        mix=SMALL_MIX, flood_rate=200.0, flood_duration=2.0)),
    lambda seed: gen.zone_churn(seed, gen.ChurnScale(
        mix=gen.MixScale(n_zones=6, head_hosts=20, tail_hosts=20,
                         n_resolvers=6, rate=5.0, duration=60.0,
                         signed_every=2, cdn_every=0))),
])
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_full_scale_traffic_stays_in_its_bands():
    traffic = gen.resolver_mix(42, gen.MixScale())
    report = gen.shape_report(traffic)
    assert gen.check_bands("resolver-mix", report) == []
    assert report["distinct_names"] > gen.PLAN_CACHE_BOUND
    flood = gen.shape_report(gen.nxdomain_flood(42, gen.FloodScale()))
    assert {"victim_read_share", "nxdomain_share"} <= set(flood)
    assert gen.check_bands("nxdomain-flood", flood) == []
    churn = gen.shape_report(gen.zone_churn(42, gen.ChurnScale()))
    assert set(gen.BANDS["zone-churn"]) <= set(churn)
    assert gen.check_bands("zone-churn", churn) == []


def test_band_check_reports_values_outside_the_band():
    problems = gen.check_bands("resolver-mix",
                               {"top3pct_resolver_share": 0.5})
    assert problems and "top3pct_resolver_share" in problems[0]


# -- oracle -------------------------------------------------------------------


def _traffic_with_one_read(kind: str = "host"):
    zone = gen.ZoneSpec(0, "ex0.net", [gen.Host("h0", 300, "10.0.0.1")],
                        cdn=True)
    qname = {"host": "h0.ex0.net", "nx": "nx-abc.ex0.net",
             "cdn": "www.ex0.net"}[kind]
    read = gen.Read(1.0, 0, 0, qname, kind, 0 if kind == "host" else -1)
    return gen.Traffic([zone], 1, [read])


def _answer(qname: str, address: str, *, cname: bool = False):
    result = ResolutionResult(name(qname), RType.A, RCode.NOERROR)
    if cname:
        result.answers.append(make_rrset(
            name(qname), RType.CNAME, 300, [CNAME(name("ex0.edgesuite.net"))]))
    result.answers.append(make_rrset(name(qname), RType.A, 300,
                                     [A(address)]))
    return result


def test_oracle_accepts_the_ground_truth_answer():
    ledger = Ledger(edges=frozenset())
    ledger.check_reads(_traffic_with_one_read(),
                       [_answer("h0.ex0.net", "10.0.0.1")])
    assert (ledger.attempted, ledger.failed) == (1, 0)


def test_oracle_rejects_a_tampered_answer():
    ledger = Ledger(edges=frozenset())
    ledger.check_reads(_traffic_with_one_read(),
                       [_answer("h0.ex0.net", "10.0.0.2")])
    assert ledger.failed == 1
    assert "10.0.0.2" in ledger.problems[0]


def test_oracle_rejects_an_answer_for_a_name_that_does_not_exist():
    ledger = Ledger(edges=frozenset())
    ledger.check_reads(_traffic_with_one_read("nx"),
                       [_answer("nx-abc.ex0.net", "10.0.0.1")])
    assert ledger.failed == 1


def test_oracle_rejects_a_cdn_answer_outside_the_edge_fleet():
    ledger = Ledger(edges=frozenset({"172.16.0.1"}))
    ledger.check_reads(_traffic_with_one_read("cdn"),
                       [_answer("www.ex0.net", "10.9.9.9", cname=True)])
    assert ledger.failed == 1
    ledger = Ledger(edges=frozenset({"172.16.0.1"}))
    ledger.check_reads(_traffic_with_one_read("cdn"),
                       [_answer("www.ex0.net", "172.16.0.1", cname=True)])
    assert ledger.failed == 0


def test_oracle_accepts_only_versions_published_before_the_read():
    traffic = _traffic_with_one_read()
    ledger = Ledger(edges=frozenset())
    ledger.start_versions(traffic)
    ledger.publish(gen.Update(5.0, 0, ((0, "10.0.0.9"),)), 5.0)
    ledger.check_reads(traffic, [_answer("h0.ex0.net", "10.0.0.9")])
    assert ledger.failed == 1           # read sent at 1.0, before 5.0


def _machine_serving(address: str):
    """A stand-in machine whose real engine serves h0.ex0.net at
    ``address``."""
    zone = parse_zone_text(
        "$ORIGIN ex0.net.\n"
        "@ 300 IN SOA ns1.ex0.net. host.ex0.net. 1 3600 600 86400 300\n"
        "@ 300 IN NS ns1.ex0.net.\n"
        "ns1 300 IN A 10.9.0.1\n"
        f"h0 300 IN A {address}\n")
    store = ZoneStore()
    store.add(zone)
    return SimpleNamespace(machine_id="m0",
                           engine=AuthoritativeEngine(store))


def test_oracle_rejects_a_machine_that_missed_the_promoted_version():
    traffic = _traffic_with_one_read()
    traffic.updates.append(gen.Update(5.0, 0, ((0, "10.0.0.9"),)))
    ledger = Ledger(edges=frozenset())
    ledger.start_versions(traffic)
    ledger.publish(traffic.updates[0], 5.0)
    ledger.check_installed(traffic, {0: 5.0},
                           [_machine_serving("10.0.0.9")])
    assert (ledger.attempted, ledger.failed) == (1, 0)
    ledger.check_installed(traffic, {0: 5.0},
                           [_machine_serving("10.0.0.1")])
    assert ledger.failed == 1 and "10.0.0.1" in ledger.problems[0]
    # Before any promotion, the first version still counts.
    ledger.check_installed(traffic, {}, [_machine_serving("10.0.0.1")])
    assert ledger.failed == 1


def test_oracle_counts_a_missing_or_failed_resolution():
    ledger = Ledger(edges=frozenset())
    servfail = ResolutionResult(name("h0.ex0.net"), RType.A, RCode.SERVFAIL)
    ledger.check_reads(_traffic_with_one_read(), [servfail])
    ledger.check_reads(_traffic_with_one_read(), [None])
    assert ledger.failed == 2


def test_flood_answers_must_be_nxdomain():
    ledger = Ledger(edges=frozenset())
    ledger.check_flood([RCode.NXDOMAIN, RCode.NXDOMAIN])
    assert ledger.flood_wrong == 0
    ledger.check_flood([RCode.NXDOMAIN, RCode.NOERROR])
    assert ledger.flood_wrong == 1 and ledger.failed == 0


# -- timing -------------------------------------------------------------------


def _round(steps, scales, measured):
    return RoundResult(1.0, measured, 1, Ledger(edges=frozenset()), {},
                       steps, step_scales=scales)


def test_measured_time_is_the_sum_of_rescaled_per_step_medians():
    rounds = [_round([1.0, 2.0], [1.0, 1.0], 3.0),
              _round([9.0, 2.0], [1.0, 1.0], 11.0),   # a burst in step 0
              _round([1.0, 4.0], [0.5, 0.5], 5.0)]    # a slow host
    assert measured_median(rounds) == pytest.approx(1.0 + 2.0)


# -- the command --------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run_is_correct_and_prints_the_end_to_end_metrics(
        workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.1", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("--workload", "zone-churn", "--seed", "3", "--seconds",
                     "0.1", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["dnssec.sign.calls"]["value"] > 0


def test_per_layer_names_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == list(per_layer_units())


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "platformbench", tmp_path / "platformbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "resolver-mix", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- why the command pins PYTHONHASHSEED ----------------------------------------

_WITHDRAW_ORDER = """
from repro.server.speaker import MachineBGPSpeaker

class Pop:
    calls = []
    def machine_advertise(self, machine_id, prefix, med):
        pass
    def machine_withdraw(self, machine_id, prefix):
        self.calls.append(prefix)

pop = Pop()
speaker = MachineBGPSpeaker(pop, "m1", [f"192.0.2.{i}" for i in range(8)])
speaker.advertise_all()
speaker.withdraw_all()
print(",".join(pop.calls))
"""


@pytest.mark.xfail(strict=True, reason=(
    "MachineBGPSpeaker.withdraw_all iterates a set of prefixes, so the "
    "crash withdrawal order (and zone-churn's digest) depends on "
    "PYTHONHASHSEED; the benchmark pins it until the program is fixed"))
def test_crash_withdrawal_order_does_not_depend_on_the_hash_seed():
    orders = {
        subprocess.run(
            [sys.executable, "-c", _WITHDRAW_ORDER], capture_output=True,
            text=True, timeout=60, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(seed),
                     PYTHONPATH=str(ROOT / "src"))).stdout
        for seed in range(1, 6)}
    assert len(orders) == 1
