"""The probe-time DNSSEC self-check scans each zone once per version.

The scan is memoized on the served ``Zone`` object: installs of other
zones do not invalidate it, machines serving the same object share it,
and two objects that happen to share a version keep separate verdicts.
"""

import pytest

from repro.chaos.injectors import expiring_signed_copy, mismatched_key_copy
from repro.dnscore import (
    A,
    RCode,
    RType,
    SOA,
    Zone,
    make_query,
    make_rrset,
    make_zone,
    name,
)
from repro.filters import QueuePolicy, ScoringPipeline
from repro.netsim import EventLoop
from repro.server import (
    AuthoritativeEngine,
    MachineConfig,
    NameserverMachine,
    ZoneStore,
)

SIGNED = name("signed.example")


def plain_zone(origin, serial=1, address="10.0.0.1"):
    z = make_zone(origin,
                  SOA(name("ns1.akam.net"), name("admin.akam.net"),
                      serial, 7200, 3600, 1209600, 300),
                  [name("ns1.akam.net")])
    z.add_rrset(make_rrset(origin.prepend("www"), RType.A, 300,
                           [A(address)]))
    return z


def signed_zone(validity=100.0):
    return expiring_signed_copy(plain_zone(SIGNED), seed=7, now=0.0,
                                validity=validity)


def make_machine(loop, machine_id="m0"):
    return NameserverMachine(
        loop, machine_id, AuthoritativeEngine(ZoneStore()),
        ScoringPipeline([]), QueuePolicy(),
        MachineConfig(staleness_threshold=float("inf")))


def probe(machine, origin=SIGNED):
    response = machine.health_probe(
        make_query(1, origin.prepend("www"), RType.A))
    assert response is not None
    return response.rcode


@pytest.fixture
def scans(monkeypatch):
    """Origins of every signature scan, in order."""
    seen = []
    original = Zone._scan_signatures

    def counting(zone):
        seen.append(zone.origin)
        return original(zone)

    monkeypatch.setattr(Zone, "_scan_signatures", counting)
    return seen


def test_unrelated_install_does_not_rescan(scans):
    loop = EventLoop()
    m = make_machine(loop)
    m.install_zone(signed_zone())
    assert probe(m) is RCode.NOERROR
    for serial in range(2, 6):
        m.install_zone(plain_zone(name("other.example"), serial))
        assert probe(m) is RCode.NOERROR
    assert scans.count(SIGNED) == 1


def test_machines_serving_one_zone_object_share_the_scan(scans):
    loop = EventLoop()
    zone = signed_zone()
    machines = [make_machine(loop, f"m{i}") for i in range(3)]
    for m in machines:
        m.install_zone(zone)
    assert [probe(m) for m in machines] == [RCode.NOERROR] * 3
    assert scans.count(SIGNED) == 1


def test_rollback_to_object_with_same_version_gets_its_own_verdict(scans):
    base = plain_zone(SIGNED)
    good = expiring_signed_copy(base, seed=7, now=0.0, validity=1e6)
    bad = mismatched_key_copy(base, seed=7, now=0.0)
    # Republishing its own DNSKEY RRset gives ``good`` the same number
    # of authoring steps as ``bad``, which swapped in a rogue one.
    good.add_rrset(good.get_rrset(SIGNED, RType.DNSKEY))
    assert good.version == bad.version and good is not bad
    loop = EventLoop()
    m = make_machine(loop)
    m.install_zone(good)
    assert probe(m) is RCode.NOERROR
    m.install_zone(bad)
    assert probe(m) is RCode.SERVFAIL
    assert m.rollback_zone(SIGNED)
    assert probe(m) is RCode.NOERROR
    m.install_zone(bad)
    assert probe(m) is RCode.SERVFAIL
    assert scans.count(SIGNED) == 2


def test_memo_hit_still_expires_at_the_horizon(scans):
    loop = EventLoop()
    m = make_machine(loop)
    m.install_zone(signed_zone(validity=15.0))
    assert probe(m) is RCode.NOERROR
    loop.run_until(14.0)
    assert probe(m) is RCode.NOERROR
    loop.run_until(16.0)
    assert probe(m) is RCode.SERVFAIL
    assert scans.count(SIGNED) == 1
