"""EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).

Akamai DNS uses ECS to perform end-user mapping: the mapping system picks
edge servers near the *client's* subnet rather than the resolver's address.
The OPT pseudo-record is carried in the additional section and encodes the
advertised UDP payload size plus a list of options.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field

from .errors import WireFormatError
from .name import ROOT
from .rdata import address_packed, ipv6_text
from .rrtypes import RType
from .wire import WireReader, WireWriter

OPTION_CLIENT_SUBNET = 8
DEFAULT_PAYLOAD_SIZE = 4096

#: ECS option head: family, source prefix length, scope prefix length.
_ECS_HEAD = struct.Struct("!HBB")
#: Address octets per ECS family (1 = IPv4, 2 = IPv6).
_FAMILY_OCTETS = {1: 4, 2: 16}


@dataclass(frozen=True, slots=True)
class ClientSubnetOption:
    """EDNS Client Subnet: a source prefix the resolver forwards upstream."""

    family: int  # 1 = IPv4, 2 = IPv6
    source_prefix_length: int
    scope_prefix_length: int
    address: str

    @classmethod
    def for_client(cls, address: str,
                   prefix_length: int | None = None) -> "ClientSubnetOption":
        """Build the option a resolver would send for ``address``.

        RFC 7871 recommends truncating to /24 (IPv4) or /56 (IPv6).
        """
        ip = ipaddress.ip_address(address)
        family = 1 if ip.version == 4 else 2
        if prefix_length is None:
            prefix_length = 24 if ip.version == 4 else 56
        network = ipaddress.ip_network(f"{address}/{prefix_length}",
                                       strict=False)
        return cls(family, prefix_length, 0, str(network.network_address))

    def network(self) -> ipaddress.IPv4Network | ipaddress.IPv6Network:
        """The subnet this option describes."""
        return ipaddress.ip_network(
            f"{self.address}/{self.source_prefix_length}", strict=False
        )

    def to_wire(self) -> bytes:
        octets = (self.source_prefix_length + 7) // 8
        return (_ECS_HEAD.pack(self.family, self.source_prefix_length,
                               self.scope_prefix_length)
                + address_packed(self.address)[:octets])

    @classmethod
    def from_wire(cls, data: bytes) -> "ClientSubnetOption":
        reader = WireReader(data)
        family, source, scope = reader.read_struct(_ECS_HEAD)
        size = _FAMILY_OCTETS.get(family)
        if size is None:
            raise WireFormatError(f"unknown ECS family {family}")
        octets = (source + 7) // 8
        if octets > size:
            raise WireFormatError(
                f"ECS source prefix /{source} too long for family {family}")
        packed = reader.read_bytes(octets).ljust(size, b"\x00")
        if family == 1:
            address = "%d.%d.%d.%d" % tuple(packed)
        else:
            address = ipv6_text(packed)
        return cls(family, source, scope, address)


@dataclass(slots=True)
class EDNSOptions:
    """The decoded OPT pseudo-record attached to a message."""

    payload_size: int = DEFAULT_PAYLOAD_SIZE
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    client_subnet: ClientSubnetOption | None = None
    unknown_options: list[tuple[int, bytes]] = field(default_factory=list)

    def write(self, writer: WireWriter) -> None:
        """Emit the OPT RR (always owner name ".", type 41)."""
        writer.write_name(ROOT)
        writer.write_u16(int(RType.OPT))
        writer.write_u16(self.payload_size)
        writer.write_u8(self.extended_rcode)
        writer.write_u8(self.version)
        writer.write_u16(0x8000 if self.dnssec_ok else 0)
        rdlength_at = len(writer)
        writer.write_u16(0)
        start = len(writer)
        if self.client_subnet is not None:
            option_data = self.client_subnet.to_wire()
            writer.write_u16(OPTION_CLIENT_SUBNET)
            writer.write_u16(len(option_data))
            writer.write_bytes(option_data)
        for code, data in self.unknown_options:
            writer.write_u16(code)
            writer.write_u16(len(data))
            writer.write_bytes(data)
        writer.patch_u16(rdlength_at, len(writer) - start)

    @classmethod
    def read_body(cls, reader: WireReader) -> "EDNSOptions":
        """Parse an OPT RR body; the owner name and type were consumed."""
        payload_size = reader.read_u16()
        extended_rcode = reader.read_u8()
        version = reader.read_u8()
        flags = reader.read_u16()
        rdlength = reader.read_u16()
        end = reader.position + rdlength
        options = cls(payload_size=payload_size, extended_rcode=extended_rcode,
                      version=version, dnssec_ok=bool(flags & 0x8000))
        while reader.position < end:
            code = reader.read_u16()
            length = reader.read_u16()
            data = reader.read_bytes(length)
            if code == OPTION_CLIENT_SUBNET:
                options.client_subnet = ClientSubnetOption.from_wire(data)
            else:
                options.unknown_options.append((code, data))
        if reader.position != end:
            raise WireFormatError("OPT options overran rdlength")
        return options
