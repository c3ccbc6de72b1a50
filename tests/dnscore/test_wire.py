"""Tests for wire-format primitives and name compression."""

import pytest

from repro.dnscore import (
    CompressionError,
    GenericRdata,
    Message,
    NameError_,
    ResourceRecord,
    RType,
    TruncatedMessageError,
    WireReader,
    WireWriter,
    name,
)


class TestWriter:
    def test_integers(self):
        w = WireWriter()
        w.write_u8(0xAB)
        w.write_u16(0x1234)
        w.write_u32(0xDEADBEEF)
        assert w.getvalue() == bytes.fromhex("ab1234deadbeef")

    def test_name_uncompressed(self):
        w = WireWriter(compress=False)
        w.write_name(name("ab.cd"))
        w.write_name(name("ab.cd"))
        data = w.getvalue()
        assert data == b"\x02ab\x02cd\x00" * 2

    def test_name_compression_pointer(self):
        w = WireWriter()
        w.write_name(name("www.example.com"))
        first_len = len(w)
        w.write_name(name("example.com"))
        # Second name should be a 2-byte pointer to offset 4.
        assert len(w) == first_len + 2
        data = w.getvalue()
        assert data[first_len] & 0xC0 == 0xC0

    def test_suffix_compression(self):
        w = WireWriter()
        w.write_name(name("example.com"))
        w.write_name(name("www.example.com"))
        # www + pointer: 1 + 3 + 2 bytes.
        assert len(w.getvalue()) == 13 + 6

    def test_root_is_single_zero(self):
        w = WireWriter()
        w.write_name(name("."))
        assert w.getvalue() == b"\x00"

    def test_patch_u16(self):
        w = WireWriter()
        w.write_u16(0)
        w.write_u8(7)
        w.patch_u16(0, 0xBEEF)
        assert w.getvalue() == b"\xbe\xef\x07"


class TestReader:
    def test_roundtrip_compressed(self):
        w = WireWriter()
        names = [name("www.example.com"), name("example.com"),
                 name("mail.example.com"), name(".")]
        for n in names:
            w.write_name(n)
        r = WireReader(w.getvalue())
        assert [r.read_name() for _ in names] == names
        assert r.remaining == 0

    def test_truncated_label(self):
        r = WireReader(b"\x05ab")
        with pytest.raises(TruncatedMessageError):
            r.read_name()

    def test_truncated_integer(self):
        r = WireReader(b"\x01")
        with pytest.raises(TruncatedMessageError):
            r.read_u16()

    def test_forward_pointer_rejected(self):
        # Pointer at offset 0 pointing to offset 5 (forward).
        r = WireReader(b"\xc0\x05" + b"\x00" * 6)
        with pytest.raises(CompressionError):
            r.read_name()

    def test_self_pointer_rejected(self):
        r = WireReader(b"\xc0\x00")
        with pytest.raises(CompressionError):
            r.read_name()

    def test_reserved_label_type_rejected(self):
        r = WireReader(b"\x80\x01")
        with pytest.raises(CompressionError):
            r.read_name()

    def test_pointer_resolution_position(self):
        # name, then a pointer; cursor must land after the pointer.
        w = WireWriter()
        w.write_name(name("a.b"))
        w.write_name(name("a.b"))
        w.write_u8(0x77)
        r = WireReader(w.getvalue())
        r.read_name()
        r.read_name()
        assert r.read_u8() == 0x77

    def test_seek_bounds(self):
        r = WireReader(b"abc")
        r.seek(3)
        with pytest.raises(TruncatedMessageError):
            r.seek(4)


class TestDecodeChecks:
    """Checks the decoder must keep however it is optimised."""

    def test_upper_case_labels_fold_to_lower_case(self):
        wire = b"\x03WwW\x07ExAmPlE\x03COM\x00"
        decoded = WireReader(wire).read_name()
        assert decoded.labels == (b"www", b"example", b"com")
        assert decoded == name("www.example.com")
        # Decoded names are flyweights: equal labels, one instance.
        assert WireReader(wire).read_name() is decoded

    def test_pointer_target_folds_too(self):
        wire = b"\x07ExAmPlE\x00\x03WWW\xc0\x00"
        r = WireReader(wire)
        r.read_name()
        assert r.read_name().labels == (b"www", b"example")

    @staticmethod
    def _long_chain() -> tuple[bytes, int]:
        # A 201-octet name at offset 0, then 61 octets of label plus a
        # pointer to it: 262 octets expanded.
        head = b"".join(bytes([49]) + b"a" * 49 for _ in range(4)) + b"\x00"
        return head + bytes([60]) + b"b" * 60 + b"\xc0\x00", len(head)

    def test_pointer_chained_name_over_255_octets_rejected(self):
        wire, second = self._long_chain()
        r = WireReader(wire)
        assert r.read_name().wire_length() == second
        with pytest.raises(NameError_):
            r.read_name()

    def test_over_255_rejected_without_a_prior_decode(self):
        wire, second = self._long_chain()
        r = WireReader(wire)
        r.seek(second)
        with pytest.raises(NameError_):
            r.read_name()

    def test_spliced_suffix_matches_a_full_walk(self):
        texts = ("cdn.example.com", "www.cdn.example.com",
                 "a.www.cdn.example.com", "example.com")
        w = WireWriter()
        for text in texts:
            w.write_name(name(text))
        wire = w.getvalue()
        warm = WireReader(wire)
        starts, decoded = [], []
        for _ in texts:
            starts.append(warm.position)
            decoded.append(warm.read_name())
        assert decoded == [name(text) for text in texts]
        assert warm.remaining == 0
        # Each name decoded cold, with no earlier name to splice from.
        for start, expected in zip(starts, decoded):
            cold = WireReader(wire)
            cold.seek(start)
            assert cold.read_name() == expected

    def test_header_shorter_than_12_octets_rejected(self):
        for size in range(12):
            with pytest.raises(TruncatedMessageError):
                Message.from_wire(b"\x00" * size)

    def test_unknown_type_and_class_stay_ints(self):
        w = WireWriter()
        w.write_name(name("example.com"))
        w.write_u16(0xFF00)     # private-use type
        w.write_u16(0x00FE)     # not an RClass member
        w.write_u32(60)
        w.write_u16(3)
        w.write_bytes(b"xyz")
        record = ResourceRecord.read(WireReader(w.getvalue()))
        assert type(record.rtype) is int and record.rtype == 0xFF00
        assert type(record.rclass) is int and record.rclass == 0x00FE
        assert record.rdata == GenericRdata(0xFF00, b"xyz")

    def test_known_type_and_class_become_enum_members(self):
        w = WireWriter()
        w.write_name(name("example.com"))
        w.write_u16(int(RType.TXT))
        w.write_u16(1)
        w.write_u32(60)
        w.write_u16(2)
        w.write_bytes(b"\x01z")
        record = ResourceRecord.read(WireReader(w.getvalue()))
        assert record.rtype is RType.TXT
        assert record.rclass.name == "IN"
