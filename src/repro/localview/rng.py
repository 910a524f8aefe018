"""QoS-weighted relative neighborhood graph (RNG) reduction.

The topology-filtering baseline of Moraru & Simplot-Ryl (the paper's reference [7]) first
reduces the local view with a relative neighborhood graph [Toussaint 1980] using the QoS
metric as the weight function, and then advertises the first hops of the best remaining
two-hop paths.  The reduction rule, transposed to QoS weights, is:

    a link (a, b) is removed when some common neighbor c offers a *strictly better* value on
    both legs (a, c) and (c, b) than the direct link (a, b) does.

For bandwidth this removes (a, b) when both replacement legs are wider; for delay when both
are shorter.  Removing such a link never removes the last optimal two-hop detour, which is
why the baseline preserves QoS-optimal two-hop paths while shrinking the advertised set.

These functions reduce one link map (node -> ``{neighbor: attributes}``, such as
:attr:`LocalView.links` or :attr:`Network.adjacency`) at a time and are the reference for
the batched path: :mod:`repro.localview.filtering` finds every link's witnesses once per
network (:func:`~repro.localview.filtering.dominance_witnesses`) and applies the reduction
to all views at once; ``tests/test_filtering_kernel.py`` pins the two together.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.localview.view import Links
from repro.metrics.base import Metric
from repro.utils.ids import NodeId


def qos_rng_reduce(links: Links, metric: Metric) -> Links:
    """A copy of the link map ``links`` without its RNG-dominated links.

    ``links`` is not modified.  Nodes and surviving links keep their order and their
    attribute dictionaries.
    """
    removed = dominated_links(links, metric)
    return {
        a: {b: data for b, data in row.items() if ((a, b) if a <= b else (b, a)) not in removed}
        for a, row in links.items()
    }


def dominated_links(links: Links, metric: Metric) -> Set[Tuple[NodeId, NodeId]]:
    """The links the reduction removes, each as ``(min, max)``."""
    extract = metric.link_value_from_attributes
    values = {a: {b: extract(data) for b, data in row.items()} for a, row in links.items()}
    is_better = metric.is_better
    removed: Set[Tuple[NodeId, NodeId]] = set()
    for a, row in values.items():
        for b, direct in row.items():
            if a > b:
                continue
            legs = values[b]
            if any(
                witness in legs and is_better(leg, direct) and is_better(legs[witness], direct)
                for witness, leg in row.items()
            ):
                removed.add((a, b))
    return removed
