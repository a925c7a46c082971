"""Tests for the application-layer dissectors (DHCP, DNS, HTTP, SSDP, NTP, TLS)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PacketDecodeError
from repro.net.addresses import MACAddress
from repro.net.layers import dhcp, dns, http, ntp, ssdp, tls

MAC = MACAddress.from_string("02:00:00:00:00:11")


def _oracle_http(raw):
    """The HTTP decoder that split every header line before judging the start line."""
    try:
        head, _, body = raw.partition(b"\r\n\r\n")
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise PacketDecodeError("HTTP header is not ASCII") from exc
    lines = text.split("\r\n")
    if not lines or not lines[0]:
        raise PacketDecodeError("empty HTTP message")
    start_line = lines[0]
    if not (
        start_line.upper().startswith("HTTP/")
        or start_line.split(" ", 1)[0].upper() in http._METHODS
    ):
        raise PacketDecodeError(f"not an HTTP start line: {start_line!r}")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(":")
        headers[key.strip()] = value.strip()
    return start_line, headers, body


_http_tokens = st.sampled_from(
    ["GET", "get", "NOTIFY", "M-SEARCH", "HTTP/1.1", "http/1.0", "HTTP", "FOO", "", " ", "*",
     "/x", "200", "OK", ":", "Host: a", "\r\n", "\r\n\r\n", "\r", "\n", "\x80", "\xff"]
)
#: Text assembled from HTTP-ish tokens, so start lines and header blocks
#: come up often and the non-ASCII and empty-line branches are reached.
http_like_payloads = st.lists(_http_tokens, max_size=12).map(
    lambda tokens: "".join(tokens).encode("latin-1")
)


class TestDHCP:
    def test_discover_roundtrip(self):
        message = dhcp.discover(MAC, transaction_id=0xDEADBEEF, hostname="my-device")
        parsed, _ = dhcp.DHCPMessage.from_bytes(message.to_bytes())
        assert parsed.client_mac == MAC
        assert parsed.transaction_id == 0xDEADBEEF
        assert parsed.hostname == "my-device"
        assert parsed.message_type == dhcp.MSG_DISCOVER
        assert parsed.is_dhcp

    def test_request_roundtrip(self):
        message = dhcp.request(MAC, requested_ip="192.168.0.55", hostname="cam")
        parsed, _ = dhcp.DHCPMessage.from_bytes(message.to_bytes())
        assert parsed.message_type == dhcp.MSG_REQUEST
        assert any(option.code == dhcp.OPTION_REQUESTED_IP for option in parsed.options)

    def test_plain_bootp(self):
        message = dhcp.DHCPMessage(op=dhcp.OP_REQUEST, client_mac=MAC, is_dhcp=False)
        parsed, _ = dhcp.DHCPMessage.from_bytes(message.to_bytes())
        assert not parsed.is_dhcp
        assert parsed.message_type is None
        assert parsed.hostname is None

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            dhcp.DHCPMessage.from_bytes(b"\x01" * 50)

    def test_option_serialisation(self):
        option = dhcp.DHCPOption(code=12, data=b"host")
        assert option.to_bytes() == b"\x0c\x04host"


class TestDNS:
    def test_query_roundtrip(self):
        message = dns.query("cloud.vendor.example", transaction_id=77)
        parsed, rest = dns.DNSMessage.from_bytes(message.to_bytes())
        assert rest == b""
        assert parsed.transaction_id == 77
        assert not parsed.is_response
        assert parsed.question_names == ["cloud.vendor.example"]

    def test_mdns_announcement_roundtrip(self):
        message = dns.mdns_announcement("_hue._tcp.local", "bridge01")
        parsed, _ = dns.DNSMessage.from_bytes(message.to_bytes())
        assert parsed.is_response
        assert parsed.answers[0].name == "_hue._tcp.local"
        assert parsed.answers[0].rtype == dns.TYPE_PTR

    def test_multiple_questions(self):
        message = dns.DNSMessage(
            questions=[dns.DNSQuestion("a.example"), dns.DNSQuestion("b.example", qtype=dns.TYPE_AAAA)]
        )
        parsed, _ = dns.DNSMessage.from_bytes(message.to_bytes())
        assert parsed.question_names == ["a.example", "b.example"]
        assert parsed.questions[1].qtype == dns.TYPE_AAAA

    def test_compression_pointer_loop_rejected(self):
        # Header with one question whose name is a pointer to itself.
        raw = (
            (1).to_bytes(2, "big")
            + (0x0100).to_bytes(2, "big")
            + (1).to_bytes(2, "big")
            + b"\x00" * 6
            + b"\xc0\x0c"
            + b"\x00\x01\x00\x01"
        )
        with pytest.raises(PacketDecodeError):
            dns.DNSMessage.from_bytes(raw)

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            dns.DNSMessage.from_bytes(b"\x00\x01")

    def test_label_too_long(self):
        with pytest.raises(Exception):
            dns.query("x" * 80 + ".example").to_bytes()


class TestHTTP:
    def test_get_roundtrip(self):
        request = http.get("/setup", "api.vendor.example")
        parsed, _ = http.HTTPMessage.from_bytes(request.to_bytes())
        assert parsed.is_request
        assert parsed.method == "GET"
        assert parsed.path == "/setup"
        assert parsed.host == "api.vendor.example"

    def test_post_carries_body(self):
        request = http.post("/register", "api.vendor.example", b'{"id": 1}')
        parsed, _ = http.HTTPMessage.from_bytes(request.to_bytes())
        assert parsed.method == "POST"
        assert parsed.body == b'{"id": 1}'
        assert parsed.headers["Content-Length"] == "9"

    def test_response_detection(self):
        raw = b"HTTP/1.1 200 OK\r\nServer: test\r\n\r\nbody"
        parsed, _ = http.HTTPMessage.from_bytes(raw)
        assert parsed.is_response
        assert not parsed.is_request
        assert parsed.method is None

    def test_not_http(self):
        with pytest.raises(PacketDecodeError):
            http.HTTPMessage.from_bytes(b"\x16\x03\x01\x00\x05hello")

    def test_binary_garbage(self):
        with pytest.raises(PacketDecodeError):
            http.HTTPMessage.from_bytes(bytes(range(256)))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.binary(max_size=120), http_like_payloads))
    def test_accepts_and_rejects_like_the_split_all_lines_oracle(self, raw):
        try:
            expected = _oracle_http(raw)
        except PacketDecodeError as exc:
            with pytest.raises(PacketDecodeError, match=f"^{re.escape(str(exc))}$"):
                http.HTTPMessage.from_bytes(raw)
        else:
            message, rest = http.HTTPMessage.from_bytes(raw)
            assert (message.start_line, message.headers, message.body) == expected
            assert rest == b""


class TestSSDP:
    def test_msearch_roundtrip(self):
        message = ssdp.msearch("urn:dial-multiscreen-org:service:dial:1")
        parsed, _ = ssdp.SSDPMessage.from_bytes(message.to_bytes())
        assert parsed.is_msearch
        assert parsed.search_target == "urn:dial-multiscreen-org:service:dial:1"

    def test_notify_roundtrip(self):
        message = ssdp.notify("upnp:rootdevice", "uuid:abc", "http://192.168.0.5:8080/desc.xml")
        parsed, _ = ssdp.SSDPMessage.from_bytes(message.to_bytes())
        assert parsed.is_notify
        assert parsed.headers["NTS"] == "ssdp:alive"
        assert parsed.search_target == "upnp:rootdevice"

    def test_plain_http_get_is_not_ssdp(self):
        raw = http.get("/", "example.com").to_bytes()
        with pytest.raises(PacketDecodeError):
            ssdp.SSDPMessage.from_bytes(raw)


class TestNTP:
    def test_roundtrip(self):
        message = ntp.NTPMessage(transmit_timestamp=123456789)
        parsed, rest = ntp.NTPMessage.from_bytes(message.to_bytes())
        assert rest == b""
        assert parsed.mode == ntp.MODE_CLIENT
        assert parsed.version == 4
        assert parsed.transmit_timestamp == 123456789
        assert parsed.is_client_request

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            ntp.NTPMessage.from_bytes(b"\x23" * 20)


class TestTLS:
    def test_client_hello_roundtrip(self):
        record = tls.client_hello("cloud.vendor.example", payload_size=200)
        parsed, rest = tls.TLSRecord.from_bytes(record.to_bytes())
        assert rest == b""
        assert parsed.is_handshake
        assert parsed.is_client_hello
        assert len(parsed.payload) == 200

    def test_application_data_is_not_client_hello(self):
        record = tls.TLSRecord(content_type=tls.CONTENT_TYPE_APPLICATION_DATA, payload=b"\x00" * 32)
        parsed, _ = tls.TLSRecord.from_bytes(record.to_bytes())
        assert not parsed.is_handshake
        assert not parsed.is_client_hello

    def test_unknown_content_type_rejected(self):
        with pytest.raises(PacketDecodeError):
            tls.TLSRecord.from_bytes(b"\x99\x03\x03\x00\x01\x00")

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            tls.TLSRecord.from_bytes(b"\x16\x03")
