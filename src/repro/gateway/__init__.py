"""The Security Gateway: enforcement, rule caching and isolation overlays.

This subpackage models the gateway-side half of IoT SENTINEL (Fig. 1): the
enforcement-rule generator and its MAC-keyed hash table of rules (Fig. 2),
the network overlay bookkeeping (trusted vs untrusted), the per-device
WPA2-PSK manager and the gateway itself, which is its switch's packet-in
handler, as the paper's custom Floodlight module is for Open vSwitch.  A
device's record, PSK, rule and switch rules leave together, through
``SecurityGateway.disconnect_device`` (``evict_idle`` for idle devices).
"""

from repro.gateway.enforcement import DeviceRecord, EnforcementRule, NetworkOverlay
from repro.gateway.rule_cache import EnforcementRuleCache
from repro.gateway.security_gateway import AuthorizationDecision, SecurityGateway
from repro.gateway.wireless import WirelessCredential, WPSKeyManager

__all__ = [
    "EnforcementRule",
    "DeviceRecord",
    "NetworkOverlay",
    "EnforcementRuleCache",
    "SecurityGateway",
    "AuthorizationDecision",
    "WPSKeyManager",
    "WirelessCredential",
]
