"""Duplicate detection for flooded messages (RFC 3626's duplicate set).

A node must process and retransmit each flooded message at most once; the duplicate set
remembers (originator, sequence number) pairs it has already considered, with an expiry so
the memory does not grow without bound in long simulations.  Entries outlive most
simulated runs, so :meth:`DuplicateSet.expire` keeps an earliest-expiry bound and returns
at once while nothing can have expired.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.utils.ids import NodeId


class DuplicateSet:
    """Remembers which flooded messages have already been processed / retransmitted."""

    def __init__(self) -> None:
        self._seen: Dict[Tuple[NodeId, int], float] = {}
        self._retransmitted: Dict[Tuple[NodeId, int], float] = {}
        # No entry expires before this time (a lower bound, exact after each purge).
        self._earliest_expiry = math.inf

    def already_processed(self, originator: NodeId, sequence_number: int) -> bool:
        return (originator, sequence_number) in self._seen

    def mark_processed(
        self, originator: NodeId, sequence_number: int, expires_at: float = math.inf
    ) -> None:
        self._seen[(originator, sequence_number)] = expires_at
        if expires_at < self._earliest_expiry:
            self._earliest_expiry = expires_at

    def already_retransmitted(self, originator: NodeId, sequence_number: int) -> bool:
        return (originator, sequence_number) in self._retransmitted

    def mark_retransmitted(
        self, originator: NodeId, sequence_number: int, expires_at: float = math.inf
    ) -> None:
        self._retransmitted[(originator, sequence_number)] = expires_at
        if expires_at < self._earliest_expiry:
            self._earliest_expiry = expires_at

    def expire(self, now: float) -> None:
        if self._earliest_expiry > now:
            return
        self._seen = {key: expiry for key, expiry in self._seen.items() if expiry > now}
        self._retransmitted = {
            key: expiry for key, expiry in self._retransmitted.items() if expiry > now
        }
        self._earliest_expiry = min(
            min(self._seen.values(), default=math.inf),
            min(self._retransmitted.values(), default=math.inf),
        )

    def __len__(self) -> int:
        return len(self._seen)
