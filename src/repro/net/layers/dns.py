"""DNS / mDNS message (RFC 1035 / RFC 6762)."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.exceptions import PacketBuildError, PacketDecodeError

HEADER_LEN = 12

TYPE_A = 1
TYPE_PTR = 12
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_SRV = 33
TYPE_ANY = 255

CLASS_IN = 1

PORT_DNS = 53
PORT_MDNS = 5353
MDNS_GROUP_V4 = "224.0.0.251"
MDNS_GROUP_V6 = "ff02::fb"

_HEADER = struct.Struct("!HHHHHH")
_QUESTION = struct.Struct("!HH")
_ANSWER = struct.Struct("!HHIH")


@dataclass(slots=True)
class DNSQuestion:
    """A single DNS question entry."""

    name: str
    qtype: int = TYPE_A
    qclass: int = CLASS_IN


@dataclass(slots=True)
class DNSResourceRecord:
    """A single DNS answer/authority/additional record."""

    name: str
    rtype: int
    rclass: int = CLASS_IN
    ttl: int = 120
    data: bytes = b""


@dataclass(slots=True)
class DNSMessage:
    """A DNS or mDNS message.

    Whether a message counts towards the DNS or the MDNS feature of Table I
    is decided by the UDP port it travels on (53 vs 5353), not by its
    content; the dissector therefore parses both with this single class.
    """

    transaction_id: int = 0
    is_response: bool = False
    questions: list[DNSQuestion] = field(default_factory=list)
    answers: list[DNSResourceRecord] = field(default_factory=list)

    @property
    def question_names(self) -> list[str]:
        return [question.name for question in self.questions]

    def to_bytes(self) -> bytes:
        flags = 0x8400 if self.is_response else 0x0100
        header = _HEADER.pack(
            self.transaction_id,
            flags,
            len(self.questions),
            len(self.answers),
            0,
            0,
        )
        body = b""
        for question in self.questions:
            body += _encode_name(question.name) + _QUESTION.pack(question.qtype, question.qclass)
        for record in self.answers:
            body += (
                _encode_name(record.name)
                + _ANSWER.pack(record.rtype, record.rclass, record.ttl, len(record.data))
                + record.data
            )
        return header + body

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["DNSMessage", bytes]:
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"DNS message too short: {len(raw)} bytes")
        transaction_id, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(raw)
        offset = HEADER_LEN
        questions: list[DNSQuestion] = []
        for _ in range(qdcount):
            name, offset = _decode_name(raw, offset)
            if offset + 4 > len(raw):
                raise PacketDecodeError("truncated DNS question")
            qtype, qclass = _QUESTION.unpack_from(raw, offset)
            offset += 4
            questions.append(DNSQuestion(name=name, qtype=qtype, qclass=qclass))
        answers: list[DNSResourceRecord] = []
        for _ in range(ancount):
            name, offset = _decode_name(raw, offset)
            if offset + 10 > len(raw):
                raise PacketDecodeError("truncated DNS answer")
            rtype, rclass, ttl, rdlength = _ANSWER.unpack_from(raw, offset)
            offset += 10
            data = raw[offset : offset + rdlength]
            if len(data) < rdlength:
                raise PacketDecodeError("truncated DNS answer data")
            offset += rdlength
            answers.append(DNSResourceRecord(name=name, rtype=rtype, rclass=rclass, ttl=ttl, data=data))
        message = cls(
            transaction_id=transaction_id,
            is_response=bool(flags & 0x8000),
            questions=questions,
            answers=answers,
        )
        return message, raw[offset:]


def _encode_name(name: str) -> bytes:
    encoded = b""
    for label in name.rstrip(".").split("."):
        if not label:
            continue
        raw = label.encode("ascii")
        if len(raw) > 63:
            raise PacketBuildError(f"DNS label too long: {label!r}")
        encoded += bytes([len(raw)]) + raw
    return encoded + b"\x00"


def _decode_name(raw: bytes, offset: int) -> tuple[str, int]:
    labels: list[str] = []
    jumped = False
    end_offset = offset
    seen_offsets: set[int] = set()
    while True:
        if offset >= len(raw):
            raise PacketDecodeError("truncated DNS name")
        length = raw[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(raw):
                raise PacketDecodeError("truncated DNS compression pointer")
            pointer = ((length & 0x3F) << 8) | raw[offset + 1]
            if pointer in seen_offsets:
                raise PacketDecodeError("DNS compression pointer loop")
            seen_offsets.add(pointer)
            if not jumped:
                end_offset = offset + 2
                jumped = True
            offset = pointer
            continue
        if length == 0:
            offset += 1
            break
        if offset + 1 + length > len(raw):
            raise PacketDecodeError("truncated DNS label")
        labels.append(raw[offset + 1 : offset + 1 + length].decode("ascii", errors="replace"))
        offset += 1 + length
    if not jumped:
        end_offset = offset
    return ".".join(labels), end_offset


def query(name: str, qtype: int = TYPE_A, transaction_id: int = 0) -> DNSMessage:
    """Build a standard single-question DNS query."""
    return DNSMessage(transaction_id=transaction_id, questions=[DNSQuestion(name=name, qtype=qtype)])


def mdns_announcement(service: str, hostname: str) -> DNSMessage:
    """Build a typical mDNS service announcement (PTR record response)."""
    target = f"{hostname}.{service}"
    return DNSMessage(
        transaction_id=0,
        is_response=True,
        answers=[DNSResourceRecord(name=service, rtype=TYPE_PTR, data=_encode_name(target))],
    )
