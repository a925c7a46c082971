"""Tests for the WPS key manager."""

import dataclasses

import pytest

from repro.exceptions import EnforcementError
from repro.gateway.enforcement import NetworkOverlay
from repro.gateway.wireless import WirelessCredential, WPSKeyManager
from repro.net.addresses import MACAddress

DEVICE = MACAddress.from_string("02:00:00:00:00:31")


class TestWPSKeyManager:
    def test_issue_and_verify(self):
        manager = WPSKeyManager()
        credential = manager.issue(DEVICE)
        assert manager.verify(DEVICE, credential.psk)
        assert not manager.verify(DEVICE, "wrong")
        assert manager.credential_of(DEVICE) == credential
        assert len(manager) == 1

    def test_keys_are_device_specific(self):
        manager = WPSKeyManager()
        first = manager.issue(MACAddress(1))
        second = manager.issue(MACAddress(2))
        assert first.psk != second.psk

    @pytest.mark.parametrize("psk_bytes", [16, 7, 32])
    def test_keys_stay_fresh_and_sized_across_entropy_draws(self, psk_bytes):
        # More keys than one draw of the entropy pool holds.
        manager = WPSKeyManager(psk_bytes=psk_bytes)
        keys = [manager.issue(MACAddress(index)).psk for index in range(600)]
        assert len(set(keys)) == len(keys)
        assert {len(key) for key in keys} == {2 * psk_bytes}
        assert all(int(key, 16) >= 0 for key in keys)

    def test_issued_credential_carries_every_field(self):
        credential = WPSKeyManager().issue(DEVICE, now=2.0)
        assert credential == WirelessCredential(DEVICE, credential.psk, NetworkOverlay.UNTRUSTED, 2.0)
        assert set(vars(credential)) == {f.name for f in dataclasses.fields(WirelessCredential)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            credential.psk = "changed"

    def test_rekey_moves_overlay_and_rotates_psk(self):
        manager = WPSKeyManager()
        original = manager.issue(DEVICE, overlay=NetworkOverlay.UNTRUSTED)
        rekeyed = manager.rekey(DEVICE, overlay=NetworkOverlay.TRUSTED, now=5.0)
        assert rekeyed.overlay is NetworkOverlay.TRUSTED
        assert rekeyed.psk != original.psk
        assert not manager.verify(DEVICE, original.psk)
        assert manager.verify(DEVICE, rekeyed.psk)
        assert manager.rekey_count == 1

    def test_rekey_unknown_device_rejected(self):
        with pytest.raises(EnforcementError):
            WPSKeyManager().rekey(DEVICE, overlay=NetworkOverlay.TRUSTED)

    def test_revoke(self):
        manager = WPSKeyManager()
        credential = manager.issue(DEVICE)
        assert manager.revoke(DEVICE)
        assert not manager.verify(DEVICE, credential.psk)
        assert not manager.revoke(MACAddress(99))

    def test_psk_fingerprint_is_not_the_psk(self):
        manager = WPSKeyManager()
        credential = manager.issue(DEVICE)
        assert credential.fingerprint != credential.psk
        assert len(credential.fingerprint) == 12
