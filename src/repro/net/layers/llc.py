"""IEEE 802.2 Logical Link Control header."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

HEADER_LEN = 3

# Common SAP values.
SAP_SNAP = 0xAA
SAP_SPANNING_TREE = 0x42
SAP_NETBIOS = 0xF0


@dataclass(slots=True)
class LLCHeader:
    """An 802.2 LLC header (DSAP, SSAP, control).

    LLC frames appear on the wire when devices emit 802.3 frames (e.g.
    spanning-tree BPDUs from hub-style devices); the paper's feature set has
    a dedicated LLC indicator at the link layer.
    """

    dsap: int
    ssap: int
    control: int = 0x03

    def to_bytes(self) -> bytes:
        """Serialise the 3-byte LLC header."""
        return bytes([self.dsap & 0xFF, self.ssap & 0xFF, self.control & 0xFF])

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["LLCHeader", bytes]:
        """Parse an LLC header, returning the header and remaining payload."""
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"LLC header too short: {len(raw)} bytes")
        return cls(dsap=raw[0], ssap=raw[1], control=raw[2]), raw[HEADER_LEN:]
