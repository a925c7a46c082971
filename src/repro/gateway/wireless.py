"""Per-device WPA2-PSK management (WPS) of the Security Gateway.

Sect. III-A: wireless devices obtain *device-specific* WPA2 pre-shared keys
via WiFi Protected Setup, so that compromising one device does not let the
adversary impersonate or eavesdrop on others.  Sect. VIII-A describes
re-keying legacy devices into the trusted overlay.  This module models the
credential lifecycle (issue, verify, re-key, revoke); actual 802.11
cryptography is out of scope.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import EnforcementError
from repro.gateway.enforcement import NetworkOverlay
from repro.net.addresses import MACAddress


@dataclass(frozen=True)
class WirelessCredential:
    """A device-specific WPA2-PSK bound to one overlay."""

    device_mac: MACAddress
    psk: str
    overlay: NetworkOverlay
    issued_at: float = 0.0
    revoked: bool = False

    @property
    def fingerprint(self) -> str:
        """A short non-reversible identifier of the PSK (for logs/UIs)."""
        return hashlib.sha256(self.psk.encode("ascii")).hexdigest()[:12]


#: PSKs drawn from the operating system's CSPRNG per refill of the pool.
_PSKS_PER_DRAW = 256


@dataclass
class WPSKeyManager:
    """Issues, verifies and rotates device-specific WPA2 pre-shared keys.

    Every PSK is ``psk_bytes`` fresh bytes from the operating system's
    CSPRNG (``os.urandom``), drawn for :data:`_PSKS_PER_DRAW` keys at a
    time: onboarding a fleet issues a key per device, and one read per
    key cost more than the rest of issuing it.
    """

    psk_bytes: int = 16
    _credentials: dict[MACAddress, WirelessCredential] = field(default_factory=dict)
    issued_count: int = 0
    rekey_count: int = 0
    _entropy: bytes = field(default=b"", init=False, repr=False, compare=False)
    _entropy_used: int = field(default=0, init=False, repr=False, compare=False)

    def issue(
        self,
        device_mac: MACAddress,
        overlay: NetworkOverlay = NetworkOverlay.UNTRUSTED,
        now: float = 0.0,
    ) -> WirelessCredential:
        """Issue a fresh device-specific PSK (initial WPS handshake)."""
        size = self.psk_bytes
        start = self._entropy_used
        if start + size > len(self._entropy):
            self._entropy = os.urandom(size * _PSKS_PER_DRAW)
            start = 0
        self._entropy_used = start + size
        # Fields set in one step, not through the frozen ``__init__``
        # (one setattr per field): a credential has nothing to validate.
        credential = object.__new__(WirelessCredential)
        object.__setattr__(
            credential,
            "__dict__",
            {
                "device_mac": device_mac,
                "psk": self._entropy[start : start + size].hex(),
                "overlay": overlay,
                "issued_at": now,
                "revoked": False,
            },
        )
        self._credentials[device_mac] = credential
        self.issued_count += 1
        return credential

    def credential_of(self, device_mac: MACAddress) -> Optional[WirelessCredential]:
        return self._credentials.get(device_mac)

    def verify(self, device_mac: MACAddress, psk: str) -> bool:
        """True when ``psk`` is the currently valid key of the device."""
        credential = self._credentials.get(device_mac)
        return credential is not None and not credential.revoked and credential.psk == psk

    def rekey(
        self, device_mac: MACAddress, overlay: NetworkOverlay, now: float = 0.0
    ) -> WirelessCredential:
        """Rotate a device's PSK, moving it to ``overlay`` (WPS re-keying).

        Used when a legacy device without known vulnerabilities is promoted
        from the untrusted to the trusted overlay (Sect. VIII-A).
        """
        if device_mac not in self._credentials:
            raise EnforcementError(f"cannot re-key unknown device {device_mac}")
        credential = self.issue(device_mac, overlay=overlay, now=now)
        self.rekey_count += 1
        return credential

    def revoke(self, device_mac: MACAddress) -> bool:
        """Revoke a device's credential (device removed from the network)."""
        credential = self._credentials.get(device_mac)
        if credential is None:
            return False
        self._credentials[device_mac] = WirelessCredential(
            device_mac=credential.device_mac,
            psk=credential.psk,
            overlay=credential.overlay,
            issued_at=credential.issued_at,
            revoked=True,
        )
        return True

    def __len__(self) -> int:
        return len(self._credentials)
