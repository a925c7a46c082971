"""Software-defined networking substrate (Open vSwitch + Floodlight stand-in).

The paper's Security Gateway is built from Open vSwitch managed by a custom
module running in the Floodlight SDN controller.  This subpackage models
the pieces of that stack the enforcement mechanism exercises: an
OpenFlow-style match/action rule language, a software switch with a
flow table and packet-in handling, and a controller that hosts pluggable
modules receiving packet-in events.

The flow table is indexed by each rule's source MAC (``None`` buckets
the wildcard-source rules), as the paper's hash-table design keeps the
per-packet cost flat as enforcement rules grow.  A packet takes the first
matching rule in match order -- higher priority, then higher match
specificity, then earlier install -- and a lookup scans only the packet's
own bucket and the wildcard bucket.  Rules enter the table only through
``OpenVSwitch.install_rule``: the ``OpenVSwitch(rules=...)`` constructor
argument is gone, and ``OpenVSwitch.rules`` is a read-only view of the
table in match order.
"""

from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.sdn.switch import ForwardingDecision, OpenVSwitch, SwitchPort
from repro.sdn.controller import ControllerModule, SdnController

__all__ = [
    "FlowAction",
    "FlowMatch",
    "FlowRule",
    "OpenVSwitch",
    "SwitchPort",
    "ForwardingDecision",
    "SdnController",
    "ControllerModule",
]
