"""Minimal HTTP/1.x request and response representation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PacketDecodeError

PORT_HTTP = 80
PORT_HTTP_ALT = 8080

_METHODS = ("GET", "POST", "PUT", "HEAD", "DELETE", "OPTIONS", "PATCH", "NOTIFY", "M-SEARCH", "SUBSCRIBE")


@dataclass(slots=True)
class HTTPMessage:
    """An HTTP/1.x request or response.

    IoT devices typically use plain HTTP during setup to fetch cloud
    endpoints, register with the vendor's service or check for firmware
    updates; the HTTP feature of Table I flags such packets.
    """

    start_line: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def is_request(self) -> bool:
        return self.start_line.split(" ", 1)[0].upper() in _METHODS

    @property
    def is_response(self) -> bool:
        return self.start_line.upper().startswith("HTTP/")

    @property
    def method(self) -> str | None:
        return self.start_line.split(" ", 1)[0].upper() if self.is_request else None

    @property
    def path(self) -> str | None:
        parts = self.start_line.split(" ")
        return parts[1] if self.is_request and len(parts) >= 2 else None

    @property
    def host(self) -> str | None:
        return self.headers.get("Host")

    def to_bytes(self) -> bytes:
        lines = [self.start_line] + [f"{key}: {value}" for key, value in self.headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["HTTPMessage", bytes]:
        try:
            head, _, body = raw.partition(b"\r\n\r\n")
            text = head.decode("ascii")
        except UnicodeDecodeError as exc:
            raise PacketDecodeError("HTTP header is not ASCII") from exc
        # Judge the start line before splitting the header lines, so a
        # payload that is not HTTP is rejected without splitting all of it.
        start_line, _, header_text = text.partition("\r\n")
        if not start_line:
            raise PacketDecodeError("empty HTTP message")
        if not (start_line.upper().startswith("HTTP/") or start_line.split(" ", 1)[0].upper() in _METHODS):
            raise PacketDecodeError(f"not an HTTP start line: {start_line!r}")
        headers: dict[str, str] = {}
        for line in header_text.split("\r\n"):
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip()] = value.strip()
        return cls(start_line=start_line, headers=headers, body=body), b""


def get(path: str, host: str, user_agent: str = "repro-iot-device/1.0") -> HTTPMessage:
    """Build a simple HTTP GET request."""
    return HTTPMessage(
        start_line=f"GET {path} HTTP/1.1",
        headers={"Host": host, "User-Agent": user_agent, "Connection": "close"},
    )


def post(path: str, host: str, body: bytes, content_type: str = "application/json") -> HTTPMessage:
    """Build a simple HTTP POST request."""
    return HTTPMessage(
        start_line=f"POST {path} HTTP/1.1",
        headers={
            "Host": host,
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            "Connection": "close",
        },
        body=body,
    )
