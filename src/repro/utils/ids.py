"""Node identifiers.

The protocols reproduced here (OLSR, QOLSR, FNBP) all rely on a *total order over node
identifiers* to break ties deterministically -- e.g. the FNBP loop guard gives the node with
the smallest identifier the responsibility of covering a contested two-hop neighbor.  We keep
identifiers as plain integers (they stand in for the 32-bit "main address" of RFC 3626), so
every module breaks ties the same way: by Python's integer order.
"""

from __future__ import annotations

NodeId = int
"""A node identifier.  Plain ``int``; comparisons define the protocol's total order."""


def normalize_node_id(value: object) -> NodeId:
    """Coerce ``value`` to a valid :data:`NodeId`.

    Accepts ints and integral floats/strings.  Raises :class:`TypeError` or
    :class:`ValueError` for anything that does not denote a non-negative integer.
    """
    if isinstance(value, bool):
        raise TypeError(f"booleans are not valid node identifiers: {value!r}")
    if isinstance(value, int):
        node_id = value
    elif isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"node identifiers must be integers, got {value!r}")
        node_id = int(value)
    elif isinstance(value, str):
        node_id = int(value)
    else:
        raise TypeError(f"cannot interpret {value!r} as a node identifier")
    if node_id < 0:
        raise ValueError(f"node identifiers must be non-negative, got {node_id}")
    return node_id

