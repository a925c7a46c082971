"""TLS record layer, sufficient to recognise and build ClientHello records."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

PORT_HTTPS = 443
PORT_HTTPS_ALT = 8443

CONTENT_TYPE_HANDSHAKE = 22
CONTENT_TYPE_APPLICATION_DATA = 23

HANDSHAKE_CLIENT_HELLO = 1
HANDSHAKE_SERVER_HELLO = 2

RECORD_HEADER_LEN = 5

_HEADER = struct.Struct("!BHH")


@dataclass(slots=True)
class TLSRecord:
    """A single TLS record.

    The HTTPS feature of Table I is triggered by traffic on port 443; this
    record type additionally lets the simulator emit realistic ClientHello
    payload sizes and the dissector recognise handshakes when parsing real
    captures.
    """

    content_type: int
    version: int = 0x0303
    payload: bytes = b""

    @property
    def is_handshake(self) -> bool:
        return self.content_type == CONTENT_TYPE_HANDSHAKE

    @property
    def is_client_hello(self) -> bool:
        return self.is_handshake and len(self.payload) > 0 and self.payload[0] == HANDSHAKE_CLIENT_HELLO

    def to_bytes(self) -> bytes:
        return _HEADER.pack(self.content_type, self.version, len(self.payload)) + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["TLSRecord", bytes]:
        if len(raw) < RECORD_HEADER_LEN:
            raise PacketDecodeError(f"TLS record too short: {len(raw)} bytes")
        content_type, version, length = _HEADER.unpack_from(raw)
        if content_type not in (20, 21, 22, 23):
            raise PacketDecodeError(f"unknown TLS content type: {content_type}")
        payload = raw[RECORD_HEADER_LEN : RECORD_HEADER_LEN + length]
        return cls(content_type=content_type, version=version, payload=payload), raw[RECORD_HEADER_LEN + length :]


def client_hello(server_name: str, payload_size: int = 180) -> TLSRecord:
    """Build a synthetic ClientHello record advertising ``server_name`` (SNI).

    The handshake body is not a byte-exact RFC 8446 ClientHello; it carries
    the handshake type, a length field and the SNI host name, which is all
    the feature extractor and tests ever look at.
    """
    name = server_name.encode("ascii")
    body = bytes([HANDSHAKE_CLIENT_HELLO]) + struct.pack("!I", payload_size)[1:] + name
    if len(body) < payload_size:
        body += b"\x00" * (payload_size - len(body))
    return TLSRecord(content_type=CONTENT_TYPE_HANDSHAKE, payload=body)
