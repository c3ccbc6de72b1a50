"""Seeded input generators for the platform workloads.

Every input a platform workload feeds the simulator is drawn here,
before the run, from ``random.Random`` streams derived from the
benchmark's ``--seed``: zone contents, resolver and zone skew, query
names, Poisson arrival times in simulated seconds, and the
random-subdomain flood. Nothing depends on how fast the program runs,
so the simulated load is open loop and identical on every host.

:func:`shape_report` measures the realised shape of the generated
inputs and :func:`check_bands` fails the run when a value leaves its
band: the paper's figure where there is one, the stated choice
otherwise.
"""

from __future__ import annotations

import bisect
import math
import random
import string
from dataclasses import dataclass, field

#: The engine's per-qname response plan cache bound
#: (``AuthoritativeEngine`` plan cache); the long tail must exceed it.
PLAN_CACHE_BOUND = 4096

# Traffic shape. The first three values are the paper's (section 3);
# the rest were chosen to give each layer work, not taken from measured
# traffic. README.md says which is which, and BANDS checks every one.

#: Share of queries the top 3% of resolvers send (paper: 80%).
RESOLVER_HEAD_SHARE = 0.80
#: Share of queries the top 1% of zones draw (paper: 88%).
ZONE_HEAD_SHARE = 0.88
#: Share of reads for names that do not exist (paper: ~0.5%).
NX_SHARE = 0.005
#: Share of a CDN zone's reads that ask for its CDN hostname.
CDN_SHARE = 0.08
#: Host-name popularity exponent inside a zone (Zipf).
HOST_ZIPF = 0.5
#: Simulated second the flood starts, after the legitimate stream.
FLOOD_START = 2.0
#: nxdomain-flood: share of legitimate reads for the victim zone, so
#: the legitimate stream keeps querying the zone under attack.
VICTIM_READ_SHARE = 0.5
#: zone-churn: share of reads for the zones that receive updates.
CHURNED_READ_SHARE = 0.8
#: zone-churn: hosts re-addressed by one update.
HOSTS_PER_UPDATE = 3
#: zone-churn: share of resolvers that validate DNSSEC.
VALIDATING_SHARE = 0.3

_LABEL_CHARS = string.ascii_lowercase + string.digits


@dataclass(frozen=True, slots=True)
class Host:
    """One A record of a generated zone."""

    label: str
    ttl: int
    address: str


@dataclass(slots=True)
class ZoneSpec:
    """One enterprise zone as the generator builds it."""

    index: int
    origin: str
    hosts: list[Host]
    cdn: bool = False
    signed: bool = False

    def body(self) -> str:
        """Master-file lines for ``provision_enterprise``."""
        return "".join(f"{h.label} {h.ttl} IN A {h.address}\n"
                       for h in self.hosts)

    @property
    def cdn_hostname(self) -> str:
        return f"www.{self.origin}"


@dataclass(frozen=True, slots=True)
class Read:
    """One client resolution: due time, resolver, name and its kind.

    ``kind`` is ``"host"`` (expects the host's A record), ``"nx"``
    (expects NXDOMAIN) or ``"cdn"`` (expects a CNAME chain ending at a
    CDN edge address).
    """

    at: float
    resolver: int
    zone: int
    qname: str
    kind: str
    host: int = -1


@dataclass(frozen=True, slots=True)
class FloodPacket:
    """One random-subdomain attack packet."""

    at: float
    source: int
    label: str
    src_port: int
    msg_id: int


@dataclass(frozen=True, slots=True)
class Update:
    """One serial-bumped zone update: new addresses for some hosts."""

    at: float
    zone: int
    changes: tuple[tuple[int, str], ...]


@dataclass(frozen=True, slots=True)
class Fault:
    """One chaos fault: kind, target selector, start and duration."""

    kind: str
    target: int
    at: float
    duration: float


@dataclass(slots=True)
class MixScale:
    """Size knobs of the resolver/zone mix shared by the workloads."""

    n_zones: int = 200
    head_hosts: int = 5_000
    tail_hosts: int = 12
    n_resolvers: int = 200
    rate: float = 350.0
    duration: float = 20.0
    #: Share of queries the top 1% of zones draw.
    zone_head_share: float = ZONE_HEAD_SHARE
    cdn_every: int = 4
    signed_every: int = 0


@dataclass(slots=True)
class Traffic:
    """Everything one workload run feeds the platform."""

    zones: list[ZoneSpec]
    n_resolvers: int
    reads: list[Read]
    flood: list[FloodPacket] = field(default_factory=list)
    flood_rate: float = 0.0
    n_flood_sources: int = 0
    updates: list[Update] = field(default_factory=list)
    faults: list[Fault] = field(default_factory=list)
    validating: frozenset[int] = frozenset()


def _rng(seed: int, stream: str) -> random.Random:
    """An independent stream per input family, all from one seed."""
    return random.Random(f"{seed}:{stream}")


def _head_tail_cdf(n: int, head: int, head_share: float,
                   exponent: float) -> list[float]:
    """Cumulative weights: ``head`` Zipf items hold ``head_share``."""
    head_raw = [1.0 / (r ** exponent) for r in range(1, head + 1)]
    tail_raw = [1.0 / (r ** exponent) for r in range(1, n - head + 1)]
    hs, ts = sum(head_raw), sum(tail_raw) or 1.0
    weights = ([head_share * w / hs for w in head_raw]
               + [(1.0 - head_share) * w / ts for w in tail_raw])
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc)
    return cdf


def _zipf_cdf(n: int, exponent: float) -> list[float]:
    raw = [1.0 / (r ** exponent) for r in range(1, n + 1)]
    total = sum(raw)
    cdf, acc = [], 0.0
    for w in raw:
        acc += w / total
        cdf.append(acc)
    return cdf


def _pick(rng: random.Random, cdf: list[float]) -> int:
    return min(bisect.bisect_left(cdf, rng.random() * cdf[-1]),
               len(cdf) - 1)


def random_label(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_LABEL_CHARS) for _ in range(length))


def poisson_times(rng: random.Random, rate: float, start: float,
                  duration: float) -> list[float]:
    """Open-loop Poisson arrivals: ``rate * duration`` of them.

    A Poisson process conditioned on its count places the arrivals
    uniformly at random in the window; fixing the count keeps the input
    size the same for every seed.
    """
    count = round(rate * duration)
    return sorted(start + rng.random() * duration for _ in range(count))


def make_zones(seed: int, scale: MixScale, *, prefix: str = "ent"
               ) -> list[ZoneSpec]:
    """Enterprise zones: a few large head zones and a long small tail.

    Popular host names get short TTLs so they keep coming back to the
    authoritatives; the tail carries long TTLs.
    """
    rng = _rng(seed, "zones")
    head = max(1, math.ceil(scale.n_zones * 0.01))
    zones = []
    for z in range(scale.n_zones):
        count = scale.head_hosts if z < head else scale.tail_hosts
        hosts = []
        for h in range(count):
            if h < count // 50 + 1:
                ttl = rng.choice((20, 30, 60))
            else:
                ttl = rng.choice((60, 300, 300, 3600))
            address = (f"10.{z % 250}.{(h // 250) % 250}.{h % 250 + 1}"
                       if z < 250 else
                       f"11.{z % 250}.{(h // 250) % 250}.{h % 250 + 1}")
            hosts.append(Host(f"h{h}", ttl, address))
        zones.append(ZoneSpec(
            z, f"{prefix}{z}.net", hosts,
            cdn=scale.cdn_every > 0 and z % scale.cdn_every == 0,
            signed=scale.signed_every > 0 and z % scale.signed_every == 0))
    return zones


def make_reads(seed: int, scale: MixScale, zones: list[ZoneSpec], *,
               zone_cdf: list[float] | None = None) -> list[Read]:
    """Poisson resolutions with the paper's resolver and zone skew.

    Exactly ``NX_SHARE`` of them, picked by the seed, ask for names that
    do not exist, so the NXDOMAIN share holds its band on every seed.
    """
    rng = _rng(seed, "reads")
    n_res = scale.n_resolvers
    resolver_cdf = _head_tail_cdf(n_res, max(1, math.ceil(n_res * 0.03)),
                                  RESOLVER_HEAD_SHARE, 0.5)
    if zone_cdf is None:
        zone_cdf = _head_tail_cdf(len(zones),
                                  max(1, math.ceil(len(zones) * 0.01)),
                                  scale.zone_head_share, 0.5)
    host_cdfs: dict[int, list[float]] = {}
    reads = []
    times = poisson_times(rng, scale.rate, 0.0, scale.duration)
    nx = set(rng.sample(range(len(times)), round(len(times) * NX_SHARE)))
    for index, at in enumerate(times):
        resolver = _pick(rng, resolver_cdf)
        z = _pick(rng, zone_cdf)
        zone = zones[z]
        if index in nx:
            label = "nx-" + random_label(rng, 10)
            reads.append(Read(at, resolver, z, f"{label}.{zone.origin}",
                              "nx"))
            continue
        if zone.cdn and rng.random() < CDN_SHARE:
            reads.append(Read(at, resolver, z, zone.cdn_hostname, "cdn"))
            continue
        cdf = host_cdfs.get(len(zone.hosts))
        if cdf is None:
            cdf = host_cdfs[len(zone.hosts)] = _zipf_cdf(len(zone.hosts),
                                                         HOST_ZIPF)
        h = _pick(rng, cdf)
        reads.append(Read(at, resolver, z,
                          f"{zone.hosts[h].label}.{zone.origin}", "host", h))
    return reads


def resolver_mix(seed: int, scale: MixScale) -> Traffic:
    zones = make_zones(seed, scale)
    return Traffic(zones, scale.n_resolvers, make_reads(seed, scale, zones))


@dataclass(slots=True)
class FloodScale:
    """The random-subdomain flood riding on a low-rate legitimate mix."""

    mix: MixScale = field(default_factory=lambda: MixScale(
        n_zones=20, head_hosts=60, tail_hosts=30, n_resolvers=40,
        rate=40.0, duration=20.0, zone_head_share=VICTIM_READ_SHARE,
        cdn_every=0))
    #: Aggregate flood rate in packets per simulated second.
    flood_rate: float = 2_000.0
    flood_duration: float = 16.0
    n_sources: int = 16


def nxdomain_flood(seed: int, scale: FloodScale) -> Traffic:
    """Legit mix over zone 0 (the victim) and others, plus the flood.

    The victim is the most popular legitimate zone, so the legitimate
    stream keeps querying the zone under attack.
    """
    zones = make_zones(seed, scale.mix, prefix="fz")
    traffic = Traffic(zones, scale.mix.n_resolvers,
                      make_reads(seed, scale.mix, zones))
    rng = _rng(seed, "flood")
    for at in poisson_times(rng, scale.flood_rate, FLOOD_START,
                            scale.flood_duration):
        traffic.flood.append(FloodPacket(
            at, rng.randrange(scale.n_sources),
            random_label(rng, rng.randint(8, 14)),
            rng.randint(1024, 65535), rng.randrange(0x10000)))
    traffic.flood_rate = scale.flood_rate
    traffic.n_flood_sources = scale.n_sources
    return traffic


@dataclass(slots=True)
class ChurnScale:
    """Writes beside reads over a long stretch of simulated time."""

    mix: MixScale = field(default_factory=lambda: MixScale(
        n_zones=12, head_hosts=80, tail_hosts=80, n_resolvers=30,
        rate=20.0, duration=240.0, cdn_every=0, signed_every=3))
    #: Zones that receive updates; reads concentrate on them.
    churned: int = 4
    update_period: float = 8.0


def zone_churn(seed: int, scale: ChurnScale) -> Traffic:
    mix = scale.mix
    zones = make_zones(seed, mix, prefix="cz")
    churned = min(scale.churned, len(zones))
    weights = ([CHURNED_READ_SHARE / churned] * churned
               + [(1.0 - CHURNED_READ_SHARE)
                  / max(1, len(zones) - churned)] * (len(zones) - churned))
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc)
    traffic = Traffic(zones, mix.n_resolvers,
                      make_reads(seed, mix, zones, zone_cdf=cdf))
    rng = _rng(seed, "updates")
    t = scale.update_period
    serial = 0
    while t < mix.duration - scale.update_period:
        z = serial % churned
        hosts = rng.sample(range(len(zones[z].hosts)), HOSTS_PER_UPDATE)
        changes = tuple((h, f"172.{20 + serial % 10}.{z}.{h % 250 + 1}")
                        for h in sorted(hosts))
        traffic.updates.append(Update(t, z, changes))
        serial += 1
        t += scale.update_period
    # Fault targets are fixed PoPs of the (fixed) world, so every seed
    # pays for the same BGP reconvergence; the seed moves only the
    # fault times.
    frng = _rng(seed, "faults")
    span = mix.duration
    traffic.faults = [
        Fault(kind, target, span * (at + frng.uniform(-0.03, 0.03)),
              duration)
        for kind, target, at, duration in (
            ("machine_crash", 1, 0.15, 20.0),
            ("partition", 2, 0.40, 25.0),
            ("link_flap", 3, 0.65, 6.0),
            ("link_flap", 4, 0.75, 6.0))]
    traffic.validating = frozenset(_rng(seed, "validating").sample(
        range(mix.n_resolvers), round(mix.n_resolvers * VALIDATING_SHARE)))
    return traffic


# -- realised shape ------------------------------------------------------


def _top_share(counts: list[int], fraction: float) -> float:
    total = sum(counts)
    if not total:
        return 0.0
    k = max(1, math.ceil(len(counts) * fraction))
    return sum(sorted(counts, reverse=True)[:k]) / total


def shape_report(traffic: Traffic) -> dict[str, float]:
    """The realised shape of the generated reads (and flood, if any)."""
    reads = traffic.reads
    per_resolver = [0] * traffic.n_resolvers
    per_zone = [0] * len(traffic.zones)
    for read in reads:
        per_resolver[read.resolver] += 1
        per_zone[read.zone] += 1
    report = {
        "reads": float(len(reads)),
        "top3pct_resolver_share": _top_share(per_resolver, 0.03),
        "top1pct_zone_share": _top_share(per_zone, 0.01),
        "nxdomain_share": (sum(r.kind == "nx" for r in reads)
                           / max(1, len(reads))),
        "distinct_names": float(len({r.qname for r in reads})),
        "plan_cache_bound": float(PLAN_CACHE_BOUND),
    }
    if traffic.flood:
        report["victim_read_share"] = per_zone[0] / max(1, len(reads))
        report["flood_packets"] = float(len(traffic.flood))
        report["flood_rate_pps"] = traffic.flood_rate
    if traffic.updates:
        churned = {update.zone for update in traffic.updates}
        report["churned_read_share"] = (sum(per_zone[z] for z in churned)
                                        / max(1, len(reads)))
        report["hosts_per_update"] = (
            sum(len(u.changes) for u in traffic.updates)
            / len(traffic.updates))
        report["validating_share"] = (len(traffic.validating)
                                      / max(1, traffic.n_resolvers))
    return report


#: Bands per workload: metric -> (low, high), inclusive. Each band
#: holds the constant above that it checks.
BANDS: dict[str, dict[str, tuple[float, float]]] = {
    "resolver-mix": {
        "top3pct_resolver_share": (0.75, 0.85),
        "top1pct_zone_share": (0.85, 0.91),
        "nxdomain_share": (0.003, 0.008),
        "distinct_names": (PLAN_CACHE_BOUND + 1, math.inf),
    },
    "nxdomain-flood": {
        "victim_read_share": (0.42, 0.58),
        "nxdomain_share": (0.003, 0.008),
        "flood_over_compute": (1.0, math.inf),
        "flood_over_io": (0.0, 1.0),
    },
    "zone-churn": {
        "churned_read_share": (0.77, 0.83),
        "hosts_per_update": (HOSTS_PER_UPDATE, HOSTS_PER_UPDATE),
        "validating_share": (0.25, 0.35),
        "nxdomain_share": (0.003, 0.008),
    },
}


def check_bands(workload: str, report: dict[str, float]) -> list[str]:
    """Messages for every banded value outside its band."""
    problems = []
    for key, (low, high) in BANDS.get(workload, {}).items():
        value = report.get(key)
        if value is None:
            continue
        if not low <= value <= high:
            problems.append(f"{key}={value:.4f} outside [{low}, {high}]")
    return problems
