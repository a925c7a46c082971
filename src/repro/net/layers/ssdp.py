"""SSDP (Simple Service Discovery Protocol) messages, used by UPnP devices."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PacketDecodeError
from repro.net.layers.http import HTTPMessage

PORT_SSDP = 1900
MULTICAST_GROUP_V4 = "239.255.255.250"
MULTICAST_GROUP_V6 = "ff02::c"


@dataclass(slots=True)
class SSDPMessage:
    """An SSDP M-SEARCH, NOTIFY or response message.

    SSDP is HTTP-formatted text over UDP port 1900.  Smart plugs, cameras
    and media devices advertise themselves with NOTIFY bursts immediately
    after joining a network, a pattern the SSDP feature of Table I captures.
    """

    method: str
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def is_msearch(self) -> bool:
        return self.method.upper() == "M-SEARCH"

    @property
    def is_notify(self) -> bool:
        return self.method.upper() == "NOTIFY"

    @property
    def search_target(self) -> str | None:
        return self.headers.get("ST") or self.headers.get("NT")

    def to_bytes(self) -> bytes:
        start_line = "HTTP/1.1 200 OK" if self.method.upper() == "RESPONSE" else f"{self.method} * HTTP/1.1"
        return HTTPMessage(start_line=start_line, headers=dict(self.headers)).to_bytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["SSDPMessage", bytes]:
        message, rest = HTTPMessage.from_bytes(raw)
        if message.is_response:
            method = "RESPONSE"
        else:
            method = message.method or ""
            if method not in ("M-SEARCH", "NOTIFY", "SUBSCRIBE"):
                raise PacketDecodeError(f"not an SSDP method: {method!r}")
        return cls(method=method, headers=message.headers), rest


def msearch(search_target: str = "ssdp:all", mx: int = 3) -> SSDPMessage:
    """Build an SSDP M-SEARCH discovery request."""
    return SSDPMessage(
        method="M-SEARCH",
        headers={
            "HOST": f"{MULTICAST_GROUP_V4}:{PORT_SSDP}",
            "MAN": '"ssdp:discover"',
            "MX": str(mx),
            "ST": search_target,
        },
    )


def notify(notification_type: str, usn: str, location: str) -> SSDPMessage:
    """Build an SSDP NOTIFY (ssdp:alive) announcement."""
    return SSDPMessage(
        method="NOTIFY",
        headers={
            "HOST": f"{MULTICAST_GROUP_V4}:{PORT_SSDP}",
            "NT": notification_type,
            "NTS": "ssdp:alive",
            "USN": usn,
            "LOCATION": location,
            "CACHE-CONTROL": "max-age=1800",
        },
    )
