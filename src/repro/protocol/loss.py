"""The seeded per-link loss/delay model of the lossy control channel.

Every transmission the :class:`~repro.protocol.radio.LossyRadio` attempts is identified
by its directed link and a per-link transmission counter, and the model answers two
questions about it -- is it delivered, and after how long -- as *pure functions* of
``(seed, src, dst, seq)``.  Nothing is drawn from shared generator state: each decision
is the first number of the generator :func:`repro.utils.seeding.spawn_rng` derives for
it (computed by :class:`~repro.utils.seeding.DerivedDraws`, which returns exactly that
number without building the generator), so the draw for transmission ``seq`` on link
``src -> dst`` is the same number whether the trial runs serially, in a
``REPRO_WORKERS`` pool, or in a different process entirely.  That is the contract that
keeps protocol sweeps bit-identical serial vs parallel.

``seq`` deliberately is the radio's own per-directed-link transmission counter, *not* an
OLSR message sequence number: message sequence numbers come from a process-wide counter
(:func:`repro.olsr.messages.next_sequence_number`) whose absolute values differ between
worker processes, so keying loss off them would break the determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.ids import NodeId
from repro.utils.seeding import DerivedDraws
from repro.utils.validation import require_non_negative


@dataclass(frozen=True)
class LossModel:
    """Per-transmission loss and delay, drawn purely from ``(seed, src, dst, seq)``.

    Attributes
    ----------
    seed:
        Root seed of the channel (an ``int``).  Equal seeds give bit-identical channels
        across processes.
    loss_rate:
        Probability in ``[0, 1)`` that any single transmission is lost.  ``0`` is the
        paper's ideal MAC layer (and skips the draw entirely).
    propagation_delay:
        Base delivery latency of a successful transmission (simulated time units).
    delay_jitter:
        Width of the uniform extra delay added on top of ``propagation_delay``
        (``0`` = fixed latency).
    """

    seed: int
    loss_rate: float = 0.0
    propagation_delay: float = 0.001
    delay_jitter: float = 0.0

    def __post_init__(self) -> None:
        # The seed is hashed as str(seed): a float or bool would silently draw like the
        # int it truncates to, so only an int is accepted.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        require_non_negative(self.propagation_delay, "propagation_delay")
        require_non_negative(self.delay_jitter, "delay_jitter")
        # Draw cache, not a field: equality, hashing and repr see only the four fields.
        object.__setattr__(self, "_draws", DerivedDraws(self.seed))

    def delivered(self, src: NodeId, dst: NodeId, seq: int) -> bool:
        """Whether transmission ``seq`` on the directed link ``src -> dst`` arrives.

        The draw is ``spawn_rng(seed, "loss", src, dst, seq).random()``.
        """
        if self.loss_rate == 0.0:
            return True
        return self._draws.random(("loss", src, dst), seq) >= self.loss_rate

    def delay(self, src: NodeId, dst: NodeId, seq: int) -> float:
        """Delivery latency of transmission ``seq`` on the directed link ``src -> dst``.

        The jitter is ``spawn_rng(seed, "delay", src, dst, seq).uniform(0, delay_jitter)``.
        """
        if self.delay_jitter == 0.0:
            return self.propagation_delay
        return self.propagation_delay + self._draws.uniform(
            ("delay", src, dst), seq, 0.0, self.delay_jitter
        )
