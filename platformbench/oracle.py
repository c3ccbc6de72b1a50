"""Ground truth for every operation, and the outcome digest.

The benchmark generated every zone and every query, so it knows the
right answer to each one without asking the program:

* a host name returns exactly its A record;
* a name the generator never created returns NXDOMAIN;
* a CDN name follows a CNAME chain and ends at a CDN edge address;
* in zone-churn, a read is correct if some version of the zone
  published before the read was sent gives that answer (resolver
  caches and input-delayed machines may serve any of them);
* every flood packet that gets an answer gets NXDOMAIN;
* at the end of a zone-churn round, every running machine that serves
  a changed zone answers each re-addressed host with the version the
  rollout promoted last, or a newer one still in its canary stage.
  The per-read rule alone would pass a platform that never installs an
  update, since the first version is published before every read.

Anything else -- a wrong address, a SERVFAIL, a timeout, a shed
legitimate query -- is a failed operation.

The digest hashes each operation's outcome in issue order plus the
round's public work counts, so two runs of one seed must print the same
digest, and a change that alters behaviour alters it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.dnscore import RCode, RType, make_query
from repro.dnscore.name import name

#: Failure messages kept per round (the count is always exact).
MAX_PROBLEMS = 10


@dataclass(slots=True)
class Ledger:
    """Per-operation outcomes of one round and their verdicts."""

    edges: frozenset[str]
    outcomes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Flood packets answered with anything but NXDOMAIN. Kept apart
    #: from ``failed``, which counts legitimate resolutions only.
    flood_wrong: int = 0
    #: zone index -> host index -> every address published so far,
    #: with the (phase-relative) time each became visible.
    versions: dict[int, dict[int, list[tuple[float, str]]]] = field(
        default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    # -- zone versions (zone-churn) ----------------------------------------

    def start_versions(self, traffic) -> None:
        self.versions = {
            zone.index: {h: [(float("-inf"), host.address)]
                         for h, host in enumerate(zone.hosts)}
            for zone in traffic.zones}

    def publish(self, update, at: float) -> None:
        hosts = self.versions[update.zone]
        for h, address in update.changes:
            hosts[h].append((at, address))

    def acceptable(self, zone: int, host: int, sent: float) -> set[str]:
        published = self.versions.get(zone, {}).get(host)
        if published is None:
            return set()
        return {address for at, address in published if at <= sent}

    def current_since(self, zone: int, host: int, since: float) -> set[str]:
        """The address in force at ``since`` and every later one."""
        published = self.versions[zone][host]
        floor = max(at for at, _ in published if at <= since)
        return {address for at, address in published if at >= floor}

    # -- checks ------------------------------------------------------------

    def check_reads(self, traffic, results) -> None:
        """Check every resolution against ground truth."""
        zones = traffic.zones
        for index, (read, result) in enumerate(zip(traffic.reads, results)):
            self.attempted += 1
            if result is None:
                self.outcomes.append("-")
                self.fail(f"read {index} {read.qname}: never completed")
                continue
            addresses = result.addresses()
            self.outcomes.append(
                f"{result.rcode.name}:{','.join(sorted(addresses))}")
            if read.kind == "nx":
                if result.rcode is not RCode.NXDOMAIN:
                    self.fail(f"read {index} {read.qname}: "
                              f"{result.rcode.name}, expected NXDOMAIN")
                continue
            if result.rcode is not RCode.NOERROR or (
                    read.kind == "host" and len(addresses) != 1):
                self.fail(f"read {index} {read.qname}: {result.rcode.name} "
                          f"{addresses}")
                continue
            if read.kind == "cdn":
                chained = any(rrset.rtype is RType.CNAME
                              for rrset in result.answers)
                if not (chained and addresses
                        and set(addresses) <= self.edges):
                    self.fail(f"read {index} {read.qname}: {addresses} "
                              f"is not a CDN edge answer")
                continue
            if self.versions:
                expected = self.acceptable(read.zone, read.host, read.at)
            else:
                expected = {zones[read.zone].hosts[read.host].address}
            if addresses[0] not in expected:
                self.fail(f"read {index} {read.qname}: {addresses[0]} not "
                          f"in {sorted(expected)}")

    def check_installed(self, traffic, promoted_at: dict[int, float],
                        machines) -> None:
        """Ask each machine's engine for every re-addressed host of every
        changed zone it serves. ``promoted_at`` maps a zone to the
        (phase-relative) publish time of its newest promoted update;
        answers older than that version fail."""
        changed: dict[int, set[int]] = {}
        for update in traffic.updates:
            changed.setdefault(update.zone, set()).update(
                h for h, _ in update.changes)
        msg_id = 0
        for z in sorted(changed):
            spec = traffic.zones[z]
            origin = name(spec.origin)
            since = promoted_at.get(z, float("-inf"))
            for machine in machines:
                if origin not in machine.engine.store:
                    continue
                for h in sorted(changed[z]):
                    msg_id = (msg_id + 1) % 0x10000
                    qname = origin.prepend(spec.hosts[h].label)
                    response = machine.engine.respond(
                        make_query(msg_id, qname, RType.A))
                    got = sorted(rr.rdata.address for rr in response.answers
                                 if rr.rtype is RType.A)
                    self.attempted += 1
                    self.outcomes.append(f"installed:{','.join(got)}")
                    expected = self.current_since(z, h, since)
                    if len(got) != 1 or got[0] not in expected:
                        self.fail(f"{machine.machine_id} serves {qname} "
                                  f"as {got}, expected one of "
                                  f"{sorted(expected)}")

    def check_flood(self, rcodes) -> None:
        """Every answered flood packet must be NXDOMAIN; shedding is
        the point of the defenses, so unanswered packets are fine."""
        wrong = [rc for rc in rcodes if rc is not RCode.NXDOMAIN]
        self.flood_wrong = len(wrong)
        if wrong and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{len(wrong)} flood packets answered "
                                 f"{sorted({rc.name for rc in wrong})}, "
                                 f"expected NXDOMAIN")
        self.outcomes.append(f"flood:{len(rcodes)}:{len(wrong)}")

    def digest(self, counts: dict[str, int]) -> str:
        h = hashlib.sha256()
        for outcome in self.outcomes:
            h.update(outcome.encode())
            h.update(b"\n")
        for key in sorted(counts):
            h.update(f"{key}={counts[key]}\n".encode())
        return h.hexdigest()
