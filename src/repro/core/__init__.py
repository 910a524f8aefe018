"""The paper's contribution: FNBP selection, plus the shared selection framework.

Selectors can also be obtained by registry name through :func:`make_selector` (e.g.
``make_selector("fnbp")`` or ``make_selector("qolsr-mpr2")``), which is how the experiment
harness refers to them; registration of the built-ins happens lazily on first lookup.
"""

from repro.core.fnbp import FnbpSelector, LoopGuardPolicy, covering_relays
from repro.core.selection import (
    AnsSelector,
    SelectionCache,
    SelectionDecision,
    SelectionResult,
    available_selectors,
    make_selector,
)

__all__ = [
    "FnbpSelector",
    "LoopGuardPolicy",
    "covering_relays",
    "AnsSelector",
    "SelectionCache",
    "SelectionDecision",
    "SelectionResult",
    "available_selectors",
    "make_selector",
]
