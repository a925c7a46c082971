"""Packet sources feeding the streaming identification pipeline.

A :class:`PacketSource` is anything that yields packets in timestamp
order, each either as a raw captured frame or as a dissected packet.  The
adapters in this module put live-replay (pcap files read through
:mod:`repro.net.pcap`) and synthetic workloads (setup traces rendered by
:class:`~repro.devices.simulator.SetupTrafficSimulator`) behind one
interface, so the pipeline, the tests and the benchmarks all consume the
same stream shape regardless of where the packets come from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.devices.catalog import DEVICE_CATALOG, profile_of
from repro.devices.simulator import SetupTrace, SetupTrafficSimulator
from repro.exceptions import SimulationError
from repro.net.addresses import MACAddress
from repro.net.batch import StreamItem
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket, PcapReader


@runtime_checkable
class PacketSource(Protocol):
    """The contract every pipeline input satisfies: an ordered packet stream."""

    def packets(self) -> Iterator[StreamItem]:
        """Yield packets in non-decreasing timestamp order.

        Each item is a raw :class:`~repro.net.pcap.CapturedPacket` frame
        (the pipeline parses it straight into batch columns, dissecting
        only frames its fast parser defers) or an already-dissected
        :class:`~repro.net.packet.Packet`.
        """
        ...


@dataclass
class IterableSource:
    """Wraps any pre-built packet iterable (lists, generators, traces)."""

    items: Iterable[StreamItem]

    def packets(self) -> Iterator[StreamItem]:
        yield from self.items


@dataclass
class PcapReplaySource:
    """Replays a classic pcap capture file as a packet stream.

    Records are read one at a time and handed over as raw frames, so
    arbitrarily large captures can be streamed without holding them in
    memory -- the property the offline ``read_pcap`` helper deliberately
    does not have -- and the pipeline parses each frame straight into
    batch columns without building layer objects for it.
    """

    path: Union[str, Path]

    def packets(self) -> Iterator[CapturedPacket]:
        return iter(PcapReader(self.path))


class SimulatedSource:
    """Renders device setup traces and interleaves them into one stream.

    This reproduces what the Security Gateway actually sees: many devices
    joining the network at staggered times, their setup procedures
    overlapping on the wire.  Traces can either be passed in directly or
    generated on the fly from catalog profile names.
    """

    def __init__(
        self,
        traces: Optional[Sequence[SetupTrace]] = None,
        device_names: Optional[Sequence[str]] = None,
        devices: int = 0,
        arrival_gap: float = 2.0,
        simulator: Optional[SetupTrafficSimulator] = None,
        seed: Optional[int] = None,
    ):
        self.simulator = simulator or SetupTrafficSimulator(seed=seed)
        self.traces: list[SetupTrace] = list(traces or [])
        if devices:
            names = list(device_names) if device_names is not None else sorted(DEVICE_CATALOG)
            if not names:
                raise SimulationError("no device names to simulate")
            for index in range(devices):
                profile = profile_of(names[index % len(names)])
                self.traces.append(
                    self.simulator.simulate(profile, start_time=index * arrival_gap)
                )
        if not self.traces:
            raise SimulationError("SimulatedSource needs traces or a device count")

    def packets(self) -> Iterator[Packet]:
        yield from interleave_traces(self.traces)

    @property
    def device_macs(self) -> list[MACAddress]:
        return [trace.device_mac for trace in self.traces]

    def __len__(self) -> int:
        return sum(len(trace) for trace in self.traces)


def interleave_traces(traces: Iterable[SetupTrace]) -> Iterator[Packet]:
    """Merge per-device traces into one timestamp-ordered packet stream.

    Equal timestamps order by trace position (then packet order), so the
    merge key is always unique and ``Packet`` objects are never compared.
    """

    def stream(index: int, trace: SetupTrace):
        return (
            (packet.timestamp, index, order, packet)
            for order, packet in enumerate(trace.packets)
        )

    streams = [stream(index, trace) for index, trace in enumerate(traces)]
    for _, _, _, packet in heapq.merge(*streams):
        yield packet


def replay_trace(trace: SetupTrace, device_mac: MACAddress, time_offset: float) -> SetupTrace:
    """Re-emit a recorded trace as if a second identical device performed it.

    The packets are shallow-copied with the source MAC rewritten and the
    timestamps shifted; everything the feature extractor reads (sizes,
    ports, destination order) is untouched, so the replay produces exactly
    the same fingerprint content.  This models identical device models
    joining the network at different times -- the workload the dispatcher's
    result cache exists for.
    """
    packets = [
        replace(
            packet,
            ethernet=replace(packet.ethernet, src=device_mac),
            timestamp=packet.timestamp + time_offset,
        )
        for packet in trace.packets
    ]
    return SetupTrace(
        profile=trace.profile,
        device_mac=device_mac,
        device_ip=trace.device_ip,
        packets=packets,
    )
