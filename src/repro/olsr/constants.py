"""Protocol timing constants.

Values follow RFC 3626's defaults (seconds).  They size the default entry lifetimes of an
:class:`~repro.olsr.node.OlsrNode`; the protocol simulator derives its own lifetimes from
its configured HELLO and TC intervals.
"""

TC_INTERVAL = 5.0
"""Period of TC emission (topology dissemination)."""

REFRESH_INTERVAL = 2.0
"""Link refresh interval used to size validity times."""

NEIGHBOR_HOLD_TIME = 3 * REFRESH_INTERVAL
"""Validity of neighbor and two-hop entries learned from HELLOs."""

TOPOLOGY_HOLD_TIME = 3 * TC_INTERVAL
"""Validity of topology entries learned from TCs."""

DUPLICATE_HOLD_TIME = 30.0
"""How long duplicate-detection records are kept."""

MAX_TTL = 255
"""Initial TTL of flooded control messages."""
