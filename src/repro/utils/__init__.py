"""Small shared utilities: node identifiers, seeded randomness, validation helpers."""

from repro.utils.ids import NodeId, normalize_node_id
from repro.utils.seeding import derive_seed, spawn_rng
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "NodeId",
    "normalize_node_id",
    "derive_seed",
    "spawn_rng",
    "require_non_negative",
    "require_positive",
]
