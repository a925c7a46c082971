"""Tests for dataset construction (synthetic and pcap ingestion) and storage."""

import hashlib

import numpy as np
import pytest

from repro.datasets.builder import DatasetBuilder, FingerprintDataset, generate_fingerprint_dataset
from repro.datasets.storage import load_fingerprints, save_fingerprints
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.exceptions import DatasetError
from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import FEATURE_COUNT
from repro.net.pcap import write_pcap

#: sha256 of ``generate_fingerprint_dataset(runs_per_type=2, seed=0)``
#: (labels, shapes, int64 rows), see ``test_training_data_bytes_are_pinned``.
TRAINING_DATA_SHA256 = "d0c7d468971ad5c113fce01d941707c7a3fc0b37b10257c0d7c9bfd0cdd737b2"


class TestSyntheticBuilder:
    def test_paper_shape(self):
        dataset = generate_fingerprint_dataset(runs_per_type=2, device_names=["Aria", "HueBridge"], seed=0)
        assert len(dataset) == 4
        assert dataset.counts() == {"Aria": 2, "HueBridge": 2}

    def test_default_covers_all_27_types(self):
        dataset = generate_fingerprint_dataset(runs_per_type=2, seed=0)
        assert len(dataset.device_types) == 27
        assert len(dataset) == 54

    def test_unknown_device_rejected(self):
        builder = DatasetBuilder(runs_per_type=2)
        with pytest.raises(DatasetError):
            builder.build_synthetic(["NoSuchDevice"])

    def test_zero_runs_rejected(self):
        with pytest.raises(DatasetError):
            DatasetBuilder(runs_per_type=0).build_synthetic(["Aria"])

    def test_reproducible_with_seed(self):
        first = generate_fingerprint_dataset(runs_per_type=2, device_names=["Aria"], seed=11)
        second = generate_fingerprint_dataset(runs_per_type=2, device_names=["Aria"], seed=11)
        assert np.array_equal(first.fingerprints[0].vectors, second.fingerprints[0].vectors)

    def test_training_data_bytes_are_pinned(self):
        """The synthetic training set, byte for byte: every fingerprint's
        label, shape and int64 rows.  A change to how Table-I rows are
        computed that moves one byte of training data moves this digest."""
        digest = hashlib.sha256()
        for fingerprint in generate_fingerprint_dataset(runs_per_type=2, seed=0).fingerprints:
            digest.update(fingerprint.device_type.encode())
            digest.update(str(fingerprint.vectors.shape).encode())
            digest.update(fingerprint.vectors.astype(np.int64).tobytes())
        assert digest.hexdigest() == TRAINING_DATA_SHA256

    def test_metadata_recorded(self):
        dataset = generate_fingerprint_dataset(runs_per_type=2, device_names=["Aria"], seed=3)
        assert dataset.metadata["source"] == "synthetic"
        assert dataset.metadata["runs_per_type"] == 2


class TestDatasetOperations:
    def test_subset_and_registry(self, small_dataset):
        subset = small_dataset.subset([0, 1, 2])
        assert len(subset) == 3
        registry = small_dataset.to_registry([0, 1])
        assert registry.total_fingerprints == 2

    def test_fixed_matrix_shape(self, small_dataset):
        matrix = small_dataset.fixed_matrix()
        assert matrix.shape == (len(small_dataset), 12 * FEATURE_COUNT)

    def test_labels_and_of_type(self, small_dataset):
        assert len(small_dataset.labels) == len(small_dataset)
        assert all(f.device_type == "Aria" for f in small_dataset.of_type("Aria"))

    def test_validation_catches_empty(self):
        with pytest.raises(DatasetError):
            FingerprintDataset().validate()

    def test_validation_catches_unlabelled(self):
        row = [0] * FEATURE_COUNT
        dataset = FingerprintDataset(fingerprints=[Fingerprint.from_feature_rows([row])])
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_validation_catches_singleton_class(self):
        row = [0] * FEATURE_COUNT
        row[18] = 1
        dataset = FingerprintDataset(
            fingerprints=[
                Fingerprint.from_feature_rows([row], device_type="A"),
                Fingerprint.from_feature_rows([row], device_type="A"),
                Fingerprint.from_feature_rows([row], device_type="B"),
            ]
        )
        with pytest.raises(DatasetError):
            dataset.validate()

    def test_empty_fixed_matrix_rejected(self):
        with pytest.raises(DatasetError):
            FingerprintDataset().fixed_matrix()


class TestPcapIngestion:
    def test_directory_layout(self, tmp_path):
        simulator = SetupTrafficSimulator(seed=21)
        for name in ("Aria", "HueBridge"):
            type_dir = tmp_path / name
            type_dir.mkdir()
            for run in range(2):
                trace = simulator.simulate(DEVICE_CATALOG[name])
                write_pcap(type_dir / f"setup_{run}.pcap", trace.packets)
        dataset = DatasetBuilder().build_from_pcap_directory(tmp_path)
        assert dataset.counts() == {"Aria": 2, "HueBridge": 2}
        assert dataset.metadata["source"] == "pcap"

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            DatasetBuilder().build_from_pcap_directory(tmp_path / "nope")

    def test_pcap_and_synthetic_fingerprints_agree(self, tmp_path):
        """Extracting from a written pcap must equal extracting in memory."""
        simulator = SetupTrafficSimulator(seed=33)
        trace = simulator.simulate(DEVICE_CATALOG["WeMoSwitch"])
        direct = Fingerprint.from_packets(trace.packets, device_type="WeMoSwitch")

        type_dir = tmp_path / "WeMoSwitch"
        type_dir.mkdir()
        write_pcap(type_dir / "run.pcap", trace.packets)
        # A second run so validation (>= 2 per type) passes.
        write_pcap(type_dir / "run2.pcap", simulator.simulate(DEVICE_CATALOG["WeMoSwitch"]).packets)
        dataset = DatasetBuilder().build_from_pcap_directory(tmp_path)
        from_pcap = dataset.fingerprints[0]
        assert np.array_equal(from_pcap.vectors, direct.vectors)


class TestStorage:
    def test_roundtrip(self, tmp_path, small_dataset):
        path = tmp_path / "fingerprints.json"
        save_fingerprints(path, small_dataset)
        loaded = load_fingerprints(path)
        assert len(loaded) == len(small_dataset)
        assert loaded.device_types == small_dataset.device_types
        assert np.array_equal(loaded.fingerprints[0].vectors, small_dataset.fingerprints[0].vectors)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_fingerprints(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError):
            load_fingerprints(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"format_version": 99, "fingerprints": []}')
        with pytest.raises(DatasetError):
            load_fingerprints(path)
