"""Per-zone memos: canonical RRset order and the DNSSEC signature horizon.

Both are derived from the zone's content alone and cached on the zone,
tagged with ``Zone.version``; every authoring call must invalidate them.
"""

import dataclasses
import random

from repro.dnscore import (
    A,
    RClass,
    ResourceRecord,
    RType,
    SOA,
    make_rrset,
    make_zone,
    name,
)
from repro.dnssec import KeyRing, SigningPolicy, ZoneSigner

ORIGIN = name("memo.example")


def base_zone():
    z = make_zone(ORIGIN,
                  SOA(name("ns1.memo.example"), name("admin.memo.example"),
                      1, 7200, 3600, 1209600, 300),
                  [name("a.ns.akam.net")])
    for i in range(4):
        z.add_rrset(make_rrset(name(f"h{i}.memo.example"), RType.A, 300,
                               [A(f"10.2.0.{i + 1}")]))
    return z


def signed_zone(validity=100.0):
    z = base_zone()
    ZoneSigner(KeyRing(3, ORIGIN),
               SigningPolicy(sig_validity=validity, inception_skew=0.0,
                             resign_margin=0.0)).sign(z, 0.0)
    return z


def canonical(zone):
    return sorted(zone._rrsets.values(),
                  key=lambda r: (r.name.canonical_key(), int(r.rtype)))


def an_rrsig(zone, owner):
    return zone.get_rrset(owner, RType.RRSIG).records[0]


class TestCanonicalOrder:
    def test_order_after_random_mutations_equals_fresh_sort(self):
        rng = random.Random(11)
        z = base_zone()
        for step in range(300):
            label = f"n{rng.randrange(40)}.memo.example"
            op = rng.random()
            if op < 0.4:
                z.add_rrset(make_rrset(name(label), RType.A, 300,
                                       [A(f"10.3.{step % 250}.1")]))
            elif op < 0.7:
                z.add_record(ResourceRecord(
                    name(label), RType.A, RClass.IN, 300,
                    A(f"10.4.{step % 250}.{rng.randrange(1, 250)}")))
            else:
                z.remove_rrset(name(label), RType.A)
            got = list(z.iter_rrsets())
            want = canonical(z)
            assert got == want
            assert all(g is w for g, w in zip(got, want))

    def test_replaced_rrset_object_is_the_one_iterated(self):
        z = base_zone()
        list(z.iter_rrsets())
        fresh = make_rrset(name("h1.memo.example"), RType.A, 60,
                           [A("10.9.9.9")])
        z.add_rrset(fresh)
        assert any(r is fresh for r in z.iter_rrsets())

    def test_iteration_is_a_snapshot(self):
        z = base_zone()
        seen = []
        for rrset in z.iter_rrsets():
            seen.append(rrset)
            if rrset.rtype is RType.A:
                z.remove_rrset(rrset.name, rrset.rtype)
        assert len(seen) == 6
        assert [r.rtype for r in z.iter_rrsets()] == [RType.NS, RType.SOA]


class TestSignatureHorizon:
    def test_unsigned_zone_passes_with_no_horizon(self):
        assert base_zone().signature_horizon() == (True, float("inf"))

    def test_signed_zone_reports_earliest_expiration(self):
        assert signed_zone(100.0).signature_horizon() == (True, 100.0)

    def test_add_record_invalidates(self):
        z = signed_zone(100.0)
        z.signature_horizon()
        owner = name("h0.memo.example")
        early = an_rrsig(z, owner)
        z.add_record(ResourceRecord(
            owner, RType.RRSIG, RClass.IN, early.ttl,
            dataclasses.replace(early.rdata, type_covered=int(RType.TXT),
                                expiration=40)))
        assert z.signature_horizon() == (True, 40.0)

    def test_add_and_remove_rrset_invalidate(self):
        z = signed_zone(100.0)
        z.signature_horizon()
        owner = name("h2.memo.example")
        record = an_rrsig(z, owner)
        rogue = dataclasses.replace(record.rdata,
                                    key_tag=record.rdata.key_tag ^ 1)
        z.add_rrset(make_rrset(owner, RType.RRSIG, record.ttl, [rogue]))
        assert z.signature_horizon() == (False, 100.0)
        z.remove_rrset(owner, RType.RRSIG)
        assert z.signature_horizon() == (True, 100.0)
        z.remove_rrset(ORIGIN, RType.DNSKEY)
        assert z.signature_horizon() == (True, float("inf"))
