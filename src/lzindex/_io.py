"""Variable-length integer serialization for the index file."""

from __future__ import annotations


class Writer:
    def __init__(self):
        self.buf = bytearray()

    def u(self, value: int) -> None:
        """Unsigned LEB128."""
        if value < 0:
            raise ValueError("negative varint")
        while True:
            b = value & 0x7F
            value >>= 7
            if value:
                self.buf.append(b | 0x80)
            else:
                self.buf.append(b)
                return

    def raw(self, data: bytes) -> None:
        self.buf.extend(data)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u(self) -> int:
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.data):
                raise ValueError("corrupt index")
            b = self.data[self.pos]
            self.pos += 1
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("corrupt index")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out
