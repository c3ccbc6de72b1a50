"""Low-level wire format primitives: cursor-based reader and writer.

The writer implements RFC 1035 section 4.1.4 name compression: every name
(or name suffix) already emitted is remembered by wire offset, and later
occurrences are replaced with a two-octet pointer. The reader resolves
pointers with loop and forward-reference protection, case-folds labels
as it reads them, and enforces the 255-octet name limit on the expanded
name.
"""

from __future__ import annotations

import struct

from .errors import CompressionError, NameError_, TruncatedMessageError
from .name import MAX_NAME_LENGTH, Name

_POINTER_MASK = 0xC0
_POINTER_FLAG = 0xC000
_MAX_POINTER_TARGET = 0x3FFF

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


class WireWriter:
    """Accumulates a DNS message, compressing names as they are written."""

    __slots__ = ("_buf", "_offsets", "_compress")

    def __init__(self, *, compress: bool = True) -> None:
        self._buf = bytearray()
        self._offsets: dict[tuple[bytes, ...], int] = {}
        self._compress = compress

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def write_u8(self, value: int) -> None:
        self._buf.append(value)

    def write_u16(self, value: int) -> None:
        self._buf += _U16.pack(value)

    def write_u32(self, value: int) -> None:
        self._buf += _U32.pack(value)

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def write_name(self, name: Name) -> None:
        """Write ``name``, emitting a compression pointer where possible."""
        if not self._compress:
            self.write_name_uncompressed(name)
            return
        buf = self._buf
        offsets = self._offsets
        labels = name.labels
        for i, label in enumerate(labels):
            suffix = labels[i:]
            offset = offsets.get(suffix)
            if offset is not None:
                buf += _U16.pack(_POINTER_FLAG | offset)
                return
            here = len(buf)
            if here <= _MAX_POINTER_TARGET:
                offsets[suffix] = here
            buf.append(len(label))
            buf += label
        buf.append(0)

    def write_name_uncompressed(self, name: Name) -> None:
        """Write ``name`` without emitting or recording pointers.

        RFC 3597 forbids compression inside the rdata of types it does
        not grandfather; RFC 4034 additionally requires the RRSIG signer
        and NSEC next-name fields uncompressed so signatures cover a
        stable byte sequence.
        """
        buf = self._buf
        for label in name.labels:
            buf.append(len(label))
            buf += label
        buf.append(0)

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite a previously written 16-bit field (rdlength back-patch)."""
        _U16.pack_into(self._buf, offset, value)


class WireReader:
    """Cursor over a received DNS message with pointer-safe name parsing."""

    __slots__ = ("_data", "_pos", "_names")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos
        #: Names already decoded, with the pointers their decoding
        #: followed, by the offset they start at. A compression pointer
        #: to one of these offsets splices in the decoded labels instead
        #: of walking them again.
        self._names: dict[int, tuple[Name, int]] = {}

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def seek(self, pos: int) -> None:
        if not 0 <= pos <= len(self._data):
            raise TruncatedMessageError(f"seek to {pos} outside message")
        self._pos = pos

    def _short(self, count: int) -> TruncatedMessageError:
        return TruncatedMessageError(
            f"wanted {count} octets, only {self.remaining} remain")

    def read_bytes(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if end > len(self._data):
            raise self._short(count)
        self._pos = end
        return self._data[pos:end]

    def read_u8(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            raise self._short(1)
        self._pos = pos + 1
        return self._data[pos]

    def read_u16(self) -> int:
        return self.read_struct(_U16)[0]

    def read_u32(self) -> int:
        return self.read_struct(_U32)[0]

    def read_struct(self, layout: struct.Struct) -> tuple:
        """Unpack a fixed-size run of fields in one bounds check."""
        pos = self._pos
        end = pos + layout.size
        if end > len(self._data):
            raise self._short(layout.size)
        self._pos = end
        return layout.unpack_from(self._data, pos)

    def read_name(self) -> Name:
        """Parse a possibly compressed name starting at the cursor.

        Pointers must point strictly backwards; loops therefore cannot
        occur, but we also bound the pointer count defensively. Labels
        are case-folded as they are read, and the expanded name
        (pointers followed) may not exceed 255 octets. The result is
        the shared flyweight for its labels.
        """
        data = self._data
        size = len(data)
        known = self._names
        start = pos = self._pos
        labels: list[bytes] = []
        wire_len = 1
        jumps = 0
        return_pos: int | None = None
        decoded: Name | None = None
        while True:
            if pos >= size:
                raise TruncatedMessageError("name ran off end of message")
            length = data[pos]
            if length == 0:
                pos += 1
                break
            if length < 0x40:
                stop = pos + 1 + length
                if stop > size:
                    raise TruncatedMessageError("label ran off end of message")
                wire_len += length + 1
                if wire_len > MAX_NAME_LENGTH:
                    raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
                labels.append(data[pos + 1:stop].lower())
                pos = stop
            elif length & _POINTER_MASK == _POINTER_MASK:
                if pos + 1 >= size:
                    raise TruncatedMessageError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                if target >= pos:
                    raise CompressionError(
                        f"forward compression pointer {target} at {pos}"
                    )
                if return_pos is None:
                    return_pos = pos + 2
                jumps += 1
                if jumps > 128:
                    raise CompressionError("too many compression pointers")
                seen = known.get(target)
                if seen is None:
                    pos = target
                    continue
                suffix, suffix_jumps = seen
                jumps += suffix_jumps
                if jumps > 128:
                    raise CompressionError("too many compression pointers")
                if not labels:
                    decoded = suffix
                    break
                wire_len += suffix.wire_length() - 1
                if wire_len > MAX_NAME_LENGTH:
                    raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
                labels.extend(suffix.labels)
                break
            else:
                raise CompressionError(f"reserved label type {length:#04x}")
        if decoded is None:
            decoded = Name.intern(tuple(labels), wire_len)
        self._pos = return_pos if return_pos is not None else pos
        known[start] = (decoded, jumps)
        return decoded
