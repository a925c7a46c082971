"""Tests for the streaming identification pipeline."""

from __future__ import annotations

import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.exceptions import PcapFormatError, SimulationError
from repro.features.fingerprint import Fingerprint
from repro.gateway.security_gateway import SecurityGateway
from repro.net.addresses import MACAddress
from repro.net.pcap import write_pcap
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import IoTSecurityService
from repro.streaming import (
    BackpressurePolicy,
    BatchDispatcher,
    BoundedQueue,
    FingerprintAssembler,
    GatewayEnforcementSink,
    IdentificationCache,
    IdentifiedDevice,
    IterableSource,
    Offer,
    PacketSource,
    PcapReplaySource,
    ReadyFingerprint,
    SimulatedSource,
    StreamingPipeline,
    fingerprint_cache_key,
    interleave_traces,
    replay_trace,
)
from repro.streaming.dispatcher import MAX_LINGER_SECONDS
from tests.conftest import make_device_mac, make_udp_packet

GATEWAY_MAC = MACAddress.from_string("b0:c5:54:10:20:30")


def make_stream_packet(
    mac: MACAddress, timestamp: float, dst_port: int = 53, payload: bytes = b""
):
    packet = make_udp_packet(
        mac, GATEWAY_MAC, "192.168.0.50", "192.168.0.1", dst_port=dst_port, payload=payload
    )
    packet.timestamp = timestamp
    return packet


# --------------------------------------------------------------------- #
# Assembler: one capture index, budget emission, idle eviction.
# --------------------------------------------------------------------- #
class TestAssembler:
    def test_devices_are_indexed_in_capture_start_order(self):
        assembler = FingerprintAssembler(packet_budget=100)
        macs = [make_device_mac(index) for index in (9, 3, 12, 1, 7)]
        for index, mac in enumerate(macs):
            assembler.observe(make_stream_packet(mac, timestamp=0.1 * index))
        # Later packets of the first devices do not move them.
        for mac in macs[:2]:
            assembler.observe(make_stream_packet(mac, timestamp=1.0))
        assert assembler.active_devices == len(macs)
        assert list(assembler) == macs
        for mac in macs:
            assert assembler.is_assembling(mac)

    def test_budget_reached_emits_fingerprint(self):
        assembler = FingerprintAssembler(packet_budget=5)
        mac = make_device_mac(1)
        ready = None
        for index in range(5):
            # Alternate ports so consecutive rows differ and are all kept.
            ready = assembler.observe(make_stream_packet(mac, 0.01 * index, dst_port=53 + index % 2))
        assert ready is not None
        assert ready.reason == "budget"
        assert ready.mac == mac
        assert ready.fingerprint.packet_count > 0
        assert not assembler.is_assembling(mac)
        assert assembler.stats.budget_emissions == 1

    def test_idle_eviction_emits_every_quiet_capture(self):
        assembler = FingerprintAssembler(packet_budget=100, idle_timeout=10.0)
        chatty, quiet = make_device_mac(1), make_device_mac(2)
        for index in range(6):
            # Payload growth past the 60-byte Ethernet minimum frame, so
            # every packet gets a distinct size and fingerprint row.
            assembler.observe(
                make_stream_packet(chatty, 0.1 * index, payload=b"x" * (index * 30))
            )
        assembler.observe(make_stream_packet(quiet, 0.0))  # a one-row capture

        assert assembler.evict_idle(now=5.0) == []  # nobody idle yet
        ready = assembler.evict_idle(now=60.0)
        assert [item.mac for item in ready] == [chatty, quiet]
        assert [item.reason for item in ready] == ["idle", "idle"]
        assert [len(item.fingerprint.vectors) for item in ready] == [6, 1]
        assert assembler.stats.idle_emissions == 2
        assert assembler.active_devices == 0

    def test_adaptive_rate_drop_cuts_before_fixed_timeout(self):
        # The paper's end-of-setup criterion: a 12 s gap after dense setup
        # traffic (median gap 0.1 s) ends the capture even though the fixed
        # eviction timeout (15 s) has not elapsed -- matching what
        # SetupPhaseDetector would do offline.
        assembler = FingerprintAssembler(packet_budget=100, min_packets=2, idle_timeout=15.0)
        mac = make_device_mac(4)
        for index in range(8):
            assembler.observe(
                make_stream_packet(mac, 0.1 * index, payload=b"x" * (index * 30))
            )
        ready = assembler.observe(make_stream_packet(mac, 0.7 + 12.0))
        assert ready is not None and ready.reason == "idle"
        assert ready.fingerprint.packet_count == 8

    def test_early_setup_pause_does_not_truncate_capture(self):
        # Offline, SetupPhaseDetector never cuts before min_packets; the
        # online rule must match: a DHCP-retry-style 12 s pause after two
        # packets stays inside one capture instead of shearing off the
        # leading packets.
        assembler = FingerprintAssembler(packet_budget=100, min_packets=4, idle_timeout=30.0)
        mac = make_device_mac(8)
        assembler.observe(make_stream_packet(mac, 0.0, payload=b"x" * 30))
        assembler.observe(make_stream_packet(mac, 0.1, payload=b"x" * 60))
        assert assembler.observe(make_stream_packet(mac, 12.1, payload=b"x" * 90)) is None
        for index in range(3):
            assembler.observe(
                make_stream_packet(mac, 12.2 + 0.1 * index, payload=b"x" * (120 + 30 * index))
            )
        ready = assembler.evict_idle(now=100.0)
        assert len(ready) == 1
        assert ready[0].fingerprint.packet_count == 6  # pause did not split it

    def test_idle_gap_within_stream_restarts_capture(self):
        assembler = FingerprintAssembler(packet_budget=100, min_packets=1, idle_timeout=10.0)
        mac = make_device_mac(3)
        for index in range(5):
            assert assembler.observe(make_stream_packet(mac, 0.1 * index)) is None
        # The device reconnects after a long silence: the old capture is
        # completed and a fresh one starts with the new packet.
        ready = assembler.observe(make_stream_packet(mac, 100.0))
        assert ready is not None and ready.reason == "idle"
        assert assembler.is_assembling(mac)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError):
            FingerprintAssembler(packet_budget=0)


# --------------------------------------------------------------------- #
# Backpressure: drop vs block.
# --------------------------------------------------------------------- #
class TestBackpressure:
    def test_drop_policy_rejects_when_full(self):
        queue = BoundedQueue(capacity=2, policy=BackpressurePolicy.DROP)
        assert queue.offer("a") is Offer.ACCEPTED
        assert queue.offer("b") is Offer.ACCEPTED
        assert queue.offer("c") is Offer.DROPPED
        assert queue.stats.dropped == 1
        assert queue.pop_batch() == ["a", "b"]

    def test_block_policy_demands_drain(self):
        queue = BoundedQueue(capacity=1, policy=BackpressurePolicy.BLOCK)
        assert queue.offer("a") is Offer.ACCEPTED
        assert queue.offer("b") is Offer.MUST_DRAIN
        assert queue.stats.blocked == 1
        assert queue.pop_batch(1) == ["a"]
        assert queue.offer("b") is Offer.ACCEPTED

    def test_high_watermark_tracks_peak_depth(self):
        queue = BoundedQueue(capacity=8)
        for item in range(5):
            queue.offer(item)
        queue.pop_batch(4)
        queue.offer(99)
        assert queue.stats.high_watermark == 5


# --------------------------------------------------------------------- #
# Dispatcher: batching and the LRU result cache.
# --------------------------------------------------------------------- #
def ready_from_trace(trace, mac=None) -> ReadyFingerprint:
    fingerprint = Fingerprint.from_packets(trace.packets)
    return ReadyFingerprint(mac=mac or trace.device_mac, fingerprint=fingerprint, reason="budget")


class TestBatchDispatcher:
    def test_batches_group_classifier_invocations(self, trained_identifier, simulator):
        dispatcher = BatchDispatcher(trained_identifier, max_batch=3, queue_capacity=16)
        traces = [simulator.simulate(DEVICE_CATALOG["Aria"]) for _ in range(5)]
        results = []
        for trace in traces:
            results.extend(dispatcher.submit(ready_from_trace(trace)))
        assert len(results) == 3  # one full batch ran, two still queued
        assert dispatcher.stats.batches == 1
        results.extend(dispatcher.drain())
        assert len(results) == 5
        assert dispatcher.stats.batches == 2
        assert dispatcher.stats.largest_batch == 3
        assert all(item.result.device_type == "Aria" for item in results)

    def test_cache_hit_skips_classification(self, trained_identifier, simulator):
        cache = IdentificationCache(capacity=8)
        dispatcher = BatchDispatcher(trained_identifier, max_batch=1, cache=cache)
        trace = simulator.simulate(DEVICE_CATALOG["HueBridge"])
        clone = replay_trace(trace, make_device_mac(9), time_offset=500.0)

        first = dispatcher.submit(ready_from_trace(trace))
        assert len(first) == 1 and not first[0].from_cache
        batches_before = dispatcher.stats.batches

        second = dispatcher.submit(ready_from_trace(clone))
        assert len(second) == 1 and second[0].from_cache
        assert second[0].mac == make_device_mac(9)
        assert second[0].result.device_type == first[0].result.device_type
        assert dispatcher.stats.batches == batches_before  # no classifier run
        assert cache.hits == 1 and cache.misses == 1
        assert dispatcher.cache_hit_rate == pytest.approx(0.5)

    def test_identical_fingerprints_in_one_batch_classified_once(
        self, trained_identifier, simulator
    ):
        # A simultaneous burst of clones lands in one batch before anything
        # is cached; the batch must classify the distinct fingerprint once
        # and share the result.
        calls = []

        class _CountingIdentifier:
            def identify_many(self, fingerprints):
                calls.append(len(fingerprints))
                return trained_identifier.identify_many(fingerprints)

        dispatcher = BatchDispatcher(
            _CountingIdentifier(), max_batch=4, cache=IdentificationCache()
        )
        trace = simulator.simulate(DEVICE_CATALOG["Aria"])
        results = []
        for index in range(4):
            results.extend(
                dispatcher.submit(ready_from_trace(trace, mac=make_device_mac(index + 20)))
            )
        assert len(results) == 4
        assert calls == [1]  # four identical fingerprints, one classification
        assert len({item.result.device_type for item in results}) == 1
        assert sorted(str(item.mac) for item in results) == sorted(
            str(make_device_mac(index + 20)) for index in range(4)
        )

    def test_cache_key_ignores_mac_but_not_content(self, simulator):
        trace = simulator.simulate(DEVICE_CATALOG["Aria"])
        other = simulator.simulate(DEVICE_CATALOG["EdnetCam"])
        clone = replay_trace(trace, make_device_mac(7), time_offset=100.0)
        key = fingerprint_cache_key(Fingerprint.from_packets(trace.packets))
        assert key == fingerprint_cache_key(Fingerprint.from_packets(clone.packets))
        assert key != fingerprint_cache_key(Fingerprint.from_packets(other.packets))

    def test_cache_key_distinguishes_dtype(self):
        # Equal-byte matrices of different dtypes (all-zero int64 vs
        # float64, same shape) must not collide onto one cached verdict;
        # the key hashes the dtype alongside shape and bytes.
        import numpy as np
        from types import SimpleNamespace

        as_int = SimpleNamespace(vectors=np.zeros((3, 23), dtype=np.int64))
        as_float = SimpleNamespace(vectors=np.zeros((3, 23), dtype=np.float64))
        assert as_int.vectors.tobytes() == as_float.vectors.tobytes()
        assert fingerprint_cache_key(as_int) != fingerprint_cache_key(as_float)

    def test_unknown_verdicts_are_not_cached(self, simulator):
        # If an unknown model's verdict were cached, registering the type
        # later (add_device_type) could never reach those devices again.
        from repro.identification.identifier import IdentificationResult, UNKNOWN_DEVICE_TYPE

        class _StubIdentifier:
            def __init__(self, device_type):
                self.device_type = device_type

            def identify_many(self, fingerprints):
                return [
                    IdentificationResult(device_type=self.device_type, matched_types=())
                    for _ in fingerprints
                ]

        cache = IdentificationCache()
        identifier = _StubIdentifier(UNKNOWN_DEVICE_TYPE)
        dispatcher = BatchDispatcher(identifier, max_batch=1, cache=cache)
        trace = simulator.simulate(DEVICE_CATALOG["Aria"])

        first = dispatcher.submit(ready_from_trace(trace))
        assert first[0].result.is_new_device_type
        assert len(cache) == 0  # unknown never enters the cache

        # The "operator registered the type" moment: the same device model
        # now gets the fresh verdict instead of a stale cached unknown.
        identifier.device_type = "Aria"
        second = dispatcher.submit(ready_from_trace(trace))
        assert second[0].result.device_type == "Aria"
        assert not second[0].from_cache
        assert len(cache) == 1  # the known verdict is cached

        third = dispatcher.submit(ready_from_trace(trace))
        assert third[0].from_cache and third[0].result.device_type == "Aria"

        cache.clear()
        assert len(cache) == 0

    def test_cached_verdict_equals_recomputed_verdict(
        self, trained_identifier, simulator
    ):
        # The deterministic reference draw makes this *provable*, not just
        # likely: for an unchanged identifier revision, a cache hit equals
        # what re-identifying the same fingerprint returns bit-for-bit --
        # device type, matched types, scores and reference provenance.
        cache = IdentificationCache()
        dispatcher = BatchDispatcher(trained_identifier, max_batch=1, cache=cache)
        verified_hits = 0
        for profile in ("Aria", "EdnetCam", "SmarterCoffee", "iKettle2"):
            trace = simulator.simulate(DEVICE_CATALOG[profile])
            first = dispatcher.submit(ready_from_trace(trace))
            assert len(first) == 1
            clone = replay_trace(trace, make_device_mac(97), time_offset=50.0)
            second = dispatcher.submit(ready_from_trace(clone, mac=make_device_mac(97)))
            if not second or not second[0].from_cache:
                continue  # unknown verdicts are never cached
            cached = second[0].result
            recomputed = trained_identifier.identify(second[0].fingerprint)
            assert cached.device_type == recomputed.device_type
            assert cached.matched_types == recomputed.matched_types
            assert cached.discrimination_scores == recomputed.discrimination_scores
            verified_hits += 1
        assert verified_hits > 0  # the equality claim was actually exercised

    def test_drain_serves_results_cached_while_queued(self, trained_identifier, simulator):
        # A fingerprint queued as a miss whose model gets cached before its
        # batch runs is served from the cache instead of re-classified.
        cache = IdentificationCache()
        dispatcher = BatchDispatcher(trained_identifier, max_batch=8, cache=cache)
        trace = simulator.simulate(DEVICE_CATALOG["Aria"])
        ready = ready_from_trace(trace)
        assert dispatcher.submit(ready) == []  # queued as a miss
        result = trained_identifier.identify(ready.fingerprint)
        cache.put(fingerprint_cache_key(ready.fingerprint), result)

        drained = dispatcher.drain()
        assert len(drained) == 1 and drained[0].from_cache
        assert drained[0].result.device_type == result.device_type
        assert dispatcher.stats.batches == 0  # the classifier bank never ran

    def test_cache_evicts_least_recently_used(self):
        cache = IdentificationCache(capacity=2)
        cache.put(b"a", "ra")
        cache.put(b"b", "rb")
        assert cache.get(b"a") == "ra"  # refresh a
        cache.put(b"c", "rc")  # evicts b
        assert cache.get(b"b") is None
        assert cache.get(b"a") == "ra"
        assert len(cache) == 2

    def test_drop_policy_sheds_load(self, trained_identifier, simulator):
        dispatcher = BatchDispatcher(
            trained_identifier,
            max_batch=10,
            queue_capacity=2,
            policy=BackpressurePolicy.DROP,
        )
        traces = [simulator.simulate(DEVICE_CATALOG["Aria"]) for _ in range(4)]
        for trace in traces:
            dispatcher.submit(ready_from_trace(trace))
        assert dispatcher.stats.dropped == 2
        assert len(dispatcher.drain()) == 2  # only the queued ones

    def test_poll_flushes_lingering_partial_batch(self, trained_identifier, simulator):
        dispatcher = BatchDispatcher(trained_identifier, max_batch=16)
        trace = simulator.simulate(DEVICE_CATALOG["Aria"])
        fingerprint = Fingerprint.from_packets(trace.packets)
        dispatcher.submit(
            ReadyFingerprint(
                mac=trace.device_mac, fingerprint=fingerprint, reason="idle", completed_at=10.0
            )
        )
        # Still within the linger window.
        assert dispatcher.poll(now=10.0 + MAX_LINGER_SECONDS / 2) == []
        flushed = dispatcher.poll(now=10.0 + MAX_LINGER_SECONDS + 1.0)
        assert len(flushed) == 1
        assert dispatcher.stats.linger_flushes == 1

    def test_drop_queue_smaller_than_batch_does_not_starve(self, trained_identifier, simulator):
        # Regression: with max_batch > queue_capacity under DROP, a batch
        # threshold was never reached, so nothing was identified mid-stream
        # and everything past capacity was shed.  The pipeline's
        # clock-driven poll() must keep such a configuration flowing.
        source = SimulatedSource(
            device_names=["Aria", "HueBridge", "EdnetCam"],
            devices=8,
            arrival_gap=8.0,
            simulator=simulator,
        )
        pipeline = StreamingPipeline(
            source=source,
            dispatcher=BatchDispatcher(
                trained_identifier,
                max_batch=32,
                queue_capacity=4,
                policy=BackpressurePolicy.DROP,
            ),
        )
        stats = pipeline.run()
        assert stats.identified == 8
        assert stats.dropped == 0
        assert stats.dispatcher.linger_flushes >= 1

    def test_block_policy_drains_instead_of_dropping(self, trained_identifier, simulator):
        dispatcher = BatchDispatcher(
            trained_identifier,
            max_batch=10,
            queue_capacity=2,
            policy=BackpressurePolicy.BLOCK,
        )
        traces = [simulator.simulate(DEVICE_CATALOG["Aria"]) for _ in range(4)]
        results = []
        for trace in traces:
            results.extend(dispatcher.submit(ready_from_trace(trace)))
        results.extend(dispatcher.drain())
        assert dispatcher.stats.dropped == 0
        assert dispatcher.queue.stats.blocked >= 1
        assert len(results) == 4  # nothing lost


# --------------------------------------------------------------------- #
# Sources and the full pipeline.
# --------------------------------------------------------------------- #
class TestSourcesAndPipeline:
    def test_sources_satisfy_the_protocol(self, tmp_path, aria_trace):
        path = tmp_path / "capture.pcap"
        write_pcap(path, aria_trace.packets)
        for source in (
            IterableSource(aria_trace.packets),
            PcapReplaySource(path),
            SimulatedSource(traces=[aria_trace]),
        ):
            assert isinstance(source, PacketSource)
            assert len(list(source.packets())) == len(aria_trace.packets)

    def test_truncated_capture_still_onboards_every_frame_before_the_cut(
        self, tmp_path, trained_identifier
    ):
        """A capture cut inside its last record raises, and every frame
        before the cut has been folded: each device seen gets its verdict
        from the end-of-stream flush."""
        packets = SimulatedSource(devices=3, seed=4).packets()
        path = tmp_path / "cut.pcap"
        write_pcap(path, packets)
        frames = list(PcapReplaySource(path).packets())
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        delivered = []
        pipeline = StreamingPipeline(
            source=PcapReplaySource(path),
            dispatcher=BatchDispatcher(trained_identifier),
            on_identified=delivered.append,
        )
        flushed = []
        submit = pipeline.dispatcher.submit

        def recorded_submit(ready):
            if ready.reason == "flush":
                flushed.append(ready.completed_at)
            return submit(ready)

        pipeline.dispatcher.submit = recorded_submit
        with pytest.raises(PcapFormatError, match="truncated pcap record body"):
            pipeline.run()
        assert pipeline.assembler.stats.packets_observed == len(frames) - 1
        assert pipeline.stats.packets == len(frames) - 1
        # The flush is stamped at the stream time of the last whole frame.
        stream_time = max(frame.timestamp for frame in frames[:-1])
        assert pipeline.clock.now() == stream_time
        assert flushed and all(completed_at == stream_time for completed_at in flushed)
        assert {item.mac for item in delivered} == set(SimulatedSource(devices=3, seed=4).device_macs)

    def test_simulated_source_interleaves_by_timestamp(self, simulator):
        traces = [
            simulator.simulate(DEVICE_CATALOG["Aria"], start_time=0.0),
            simulator.simulate(DEVICE_CATALOG["WeMoSwitch"], start_time=0.5),
        ]
        stream = list(SimulatedSource(traces=traces).packets())
        timestamps = [packet.timestamp for packet in stream]
        assert timestamps == sorted(timestamps)
        assert {packet.src_mac for packet in stream} == {trace.device_mac for trace in traces}

    def test_interleave_handles_simultaneous_identical_timestamps(self, simulator):
        # Two devices joining at the same instant produce timestamp ties;
        # the merge must stay deterministic (by trace position) and never
        # fall through to comparing Packet objects.
        trace = simulator.simulate(DEVICE_CATALOG["Aria"], start_time=0.0)
        twin = replay_trace(trace, make_device_mac(13), time_offset=0.0)
        stream = list(interleave_traces([trace, twin]))
        assert len(stream) == 2 * len(trace.packets)
        for first, second in zip(stream[0::2], stream[1::2]):
            assert first.timestamp == second.timestamp
            assert first.src_mac == trace.device_mac  # trace order breaks the tie
            assert second.src_mac == twin.device_mac

    def test_explicitly_empty_device_names_rejected(self):
        # A filtered name list that came back empty must error, not fall
        # back to simulating the whole catalog.
        with pytest.raises(SimulationError):
            SimulatedSource(device_names=[], devices=3)

    def test_pipeline_identifies_simulated_fleet(self, trained_identifier, simulator):
        source = SimulatedSource(
            device_names=["Aria", "HueBridge", "EdnetCam"],
            devices=6,
            arrival_gap=2.0,
            simulator=simulator,
        )
        pipeline = StreamingPipeline(
            source=source,
            dispatcher=BatchDispatcher(trained_identifier, max_batch=4),
            assembler=FingerprintAssembler(),
        )
        verdicts = {}
        pipeline.on_identified = lambda item: verdicts.setdefault(item.mac, item)
        stats = pipeline.run()
        assert stats.packets == len(source)
        assert set(verdicts) == set(source.device_macs)
        expected = {trace.device_mac: trace.device_type for trace in source.traces}
        correct = sum(
            1 for mac, item in verdicts.items() if item.result.device_type == expected[mac]
        )
        assert correct >= len(expected) - 1  # allow one confusable miss
        assert stats.identified == len(expected)
        assert stats.wall_seconds > 0

    def test_pcap_replay_to_gateway_enforcement(
        self, tmp_path, trained_identifier, simulator
    ):
        # End to end: capture on disk -> streaming replay -> identification
        # -> enforcement rule installed on the Security Gateway.
        trace = simulator.simulate(DEVICE_CATALOG["EdnetCam"])
        path = tmp_path / "setup.pcap"
        write_pcap(path, trace.packets)

        gateway = SecurityGateway()
        sink = GatewayEnforcementSink(
            gateway=gateway,
            security_service=IoTSecurityService(identifier=trained_identifier),
        )
        pipeline = StreamingPipeline(
            source=PcapReplaySource(path),
            dispatcher=BatchDispatcher(trained_identifier, max_batch=4),
            on_identified=sink,
        )
        stats = pipeline.run()

        assert sink.enforced == 1
        record = gateway.device_record(trace.device_mac)
        assert record.device_type == "EdnetCam"
        assert record.isolation_level is IsolationLevel.RESTRICTED
        rule = gateway.rule_cache.lookup(trace.device_mac)
        assert rule is not None
        assert stats.fingerprints == 1

        # The installed rule actually filters: the camera may reach its
        # vendor cloud but not an arbitrary Internet host.
        permitted = rule.allowed_destinations
        assert permitted  # the profile contacts its vendor cloud
        allowed = gateway.authorize(
            make_udp_packet(trace.device_mac, GATEWAY_MAC, trace.device_ip, permitted[0])
        )
        blocked = gateway.authorize(
            make_udp_packet(trace.device_mac, GATEWAY_MAC, trace.device_ip, "203.0.113.77")
        )
        assert allowed.allowed
        assert not blocked.allowed

    def test_early_break_from_results_still_delivers_all_verdicts(
        self, trained_identifier, simulator
    ):
        # A consumer that stops iterating after the first verdict must not
        # leave the remaining devices unidentified at the gateway.
        source = SimulatedSource(
            device_names=["Aria", "HueBridge"],
            devices=4,
            arrival_gap=2.0,
            simulator=simulator,
        )
        delivered = []
        pipeline = StreamingPipeline(
            source=source,
            dispatcher=BatchDispatcher(trained_identifier, max_batch=2),
            on_identified=delivered.append,
        )
        results = pipeline.results()
        next(results)
        results.close()  # consumer walked away
        assert {item.mac for item in delivered} == set(source.device_macs)
        assert pipeline.stats.wall_seconds > 0

    def test_sticky_sink_never_downgrades_an_identified_device(
        self, trained_identifier, simulator
    ):
        from repro.identification.identifier import IdentificationResult, UNKNOWN_DEVICE_TYPE

        gateway = SecurityGateway()
        sink = GatewayEnforcementSink(
            gateway=gateway,
            security_service=IoTSecurityService(identifier=trained_identifier),
        )
        trace = simulator.simulate(DEVICE_CATALOG["EdnetCam"])
        fingerprint = Fingerprint.from_packets(trace.packets)
        sink(
            IdentifiedDevice(
                mac=trace.device_mac,
                fingerprint=fingerprint,
                result=trained_identifier.identify(fingerprint),
            )
        )
        assert gateway.device_record(trace.device_mac).device_type == "EdnetCam"

        # Steady-state chatter later assesses as unknown; the sticky sink
        # must not strip the device of its enforcement profile.
        unknown = IdentificationResult(device_type=UNKNOWN_DEVICE_TYPE, matched_types=())
        sink(IdentifiedDevice(mac=trace.device_mac, fingerprint=fingerprint, result=unknown))
        assert gateway.device_record(trace.device_mac).device_type == "EdnetCam"
        assert sink.skipped_downgrades == 1

        # A brand-new device with an unknown verdict is still enforced.
        other = make_device_mac(15)
        sink(IdentifiedDevice(mac=other, fingerprint=fingerprint, result=unknown))
        assert gateway.device_record(other).device_type == UNKNOWN_DEVICE_TYPE
        assert sink.enforced == 2

    def test_cache_hits_surface_in_pipeline_stats(self, trained_identifier, simulator):
        trace = simulator.simulate(DEVICE_CATALOG["HueBridge"], start_time=0.0)
        quiet = trace.packets[-1].timestamp
        clones = [
            replay_trace(trace, make_device_mac(index + 1), quiet + 60.0 * (index + 1))
            for index in range(2)
        ]
        source = SimulatedSource(traces=[trace, *clones])
        pipeline = StreamingPipeline(
            source=source,
            dispatcher=BatchDispatcher(
                trained_identifier, max_batch=1, cache=IdentificationCache()
            ),
        )
        stats = pipeline.run()
        assert stats.identified == 3
        assert stats.cache_hits == 2
        assert stats.cache_hit_rate == pytest.approx(2 / 3)

    def test_warm_cache_reports_per_run_stats(self, trained_identifier, simulator):
        # A cache shared across runs must not leak the first run's hits
        # into the second run's statistics.
        cache = IdentificationCache()
        trace = simulator.simulate(DEVICE_CATALOG["HueBridge"], start_time=0.0)
        quiet = trace.packets[-1].timestamp
        clone = replay_trace(trace, make_device_mac(11), quiet + 60.0)
        first = StreamingPipeline(
            source=SimulatedSource(traces=[trace, clone]),
            dispatcher=BatchDispatcher(trained_identifier, max_batch=1, cache=cache),
        )
        assert first.run().cache_hits == 1

        fresh = simulator.simulate(DEVICE_CATALOG["Aria"])
        second = StreamingPipeline(
            source=SimulatedSource(traces=[fresh]),
            dispatcher=BatchDispatcher(trained_identifier, max_batch=1, cache=cache),
        )
        stats = second.run()
        assert stats.cache_hits == 0  # nothing cached matched this run
        assert stats.cache_misses == 1
        assert cache.hits == 1  # the lifetime counter still remembers run 1

        # Sharing the dispatcher itself must also keep timing per-run: a
        # third run served entirely from cache performs no classification.
        shared = BatchDispatcher(trained_identifier, max_batch=1, cache=cache)
        warmup = StreamingPipeline(
            source=SimulatedSource(traces=[simulator.simulate(DEVICE_CATALOG["EdnetCam"])]),
            dispatcher=shared,
        ).run()
        assert warmup.identify_seconds > 0
        cached_run = StreamingPipeline(
            source=SimulatedSource(traces=[clone]), dispatcher=shared
        ).run()
        assert cached_run.cache_hits == 1
        assert cached_run.identify_seconds == 0.0  # run 1's time not leaked in


# --------------------------------------------------------------------- #
# The pipeline shares its dispatcher's observability hub.
# --------------------------------------------------------------------- #
class TestHubAdoption:
    """The pipeline reports through its dispatcher's hub: one hub per stack."""

    def test_single_hub_sees_both_layers_counters(self, trained_identifier, simulator):
        from repro.obs import Observability

        hub = Observability()
        dispatcher = BatchDispatcher(trained_identifier, max_batch=1, observability=hub)
        pipeline = StreamingPipeline(
            source=SimulatedSource(traces=[simulator.simulate(DEVICE_CATALOG["Aria"])]),
            dispatcher=dispatcher,
        )
        pipeline.run()
        snapshot = hub.snapshot()
        assert snapshot["dispatcher.identified"] == 1
        assert snapshot["assembler.fingerprints_emitted"] == 1
