"""The original OLSR behaviour exposed as a selector baseline.

In RFC 3626 the advertised set and the flooding set are one and the same MPR set, selected
purely by two-hop coverage and blind to QoS.  This selector wraps
:func:`repro.olsr.mpr.rfc3626_mpr` behind the common :class:`AnsSelector` interface so the
evaluation harness can compare it with the QoS-aware selections on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.core.selection import SelectionDecision, _TracedSelector
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.olsr.mpr import rfc3626_mpr
from repro.registry import SELECTORS
from repro.utils.ids import NodeId


@SELECTORS.register("olsr-mpr", description="plain RFC 3626 MPR selection (QoS-unaware)")
@dataclass
class OlsrMprSelector(_TracedSelector):
    """Plain RFC 3626 MPR selection used as the advertised set (QoS-unaware).

    :meth:`explain` records a single decision listing the whole set.
    """

    name = "olsr-mpr"

    def _select(
        self, view: LocalView, metric: Metric, trace: Optional[List[SelectionDecision]]
    ) -> FrozenSet[NodeId]:
        mpr = rfc3626_mpr(view)
        if trace is not None:
            trace.append(
                SelectionDecision(
                    target=None,
                    chosen=None,
                    reason="rfc3626-greedy-coverage",
                    detail=(("selected", tuple(sorted(mpr))),),
                )
            )
        return mpr
