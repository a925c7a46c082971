"""Software-defined networking substrate (the Open vSwitch of the gateway).

The paper's Security Gateway is Open vSwitch managed by one custom
Floodlight module.  This subpackage models the part of that stack the
enforcement mechanism exercises: an OpenFlow-style match/action rule
language and one software switch with a flow table.  The switch hands
table misses (and ``SEND_TO_CONTROLLER`` hits) to its
``packet_in_handler``, which the Security Gateway sets to its own
``on_packet_in``.

The flow table is indexed by each rule's source MAC (``None`` buckets
the wildcard-source rules), as the paper's hash-table design keeps the
per-packet cost flat as enforcement rules grow.  A packet takes the first
matching rule in match order -- higher priority, then higher match
specificity, then earlier install -- and a lookup scans only the packet's
own bucket and the wildcard bucket.  Rules enter the table only through
``OpenVSwitch.install_rule``, and ``OpenVSwitch.rules`` is a read-only
view of the table in match order.
"""

from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.sdn.switch import ForwardingDecision, OpenVSwitch

__all__ = [
    "FlowAction",
    "FlowMatch",
    "FlowRule",
    "OpenVSwitch",
    "ForwardingDecision",
]
