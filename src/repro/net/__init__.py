"""Network packet substrate.

This subpackage is a self-contained replacement for the parts of scapy used
by the original IoT SENTINEL implementation: binary dissection and
serialisation of the protocol layers that matter for the Table-I features,
plus libpcap file reading/writing so that real capture files can be ingested.
"""

from repro.net.addresses import MACAddress, ip_to_int, is_ipv4, is_ipv6
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket, PcapReader, PcapWriter, read_pcap, write_pcap

__all__ = [
    "MACAddress",
    "ip_to_int",
    "is_ipv4",
    "is_ipv6",
    "FlowKey",
    "Packet",
    "CapturedPacket",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
]
