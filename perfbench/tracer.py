"""Span tracing of one sweep from outside the program.

The benchmark never edits the harness to trace it.  :class:`Tracer` replaces the public
entry points of each layer with timing wrappers for the duration of one traced sweep and
puts the originals back afterwards.  Several of those functions are imported by name into
their callers, so the wrapper goes where the caller looks the name up (for example
``qos_rng_reduce`` is replaced in :mod:`repro.baselines.topology_filtering`, not in
:mod:`repro.localview.rng`).

Every span records its name, start, end, parent span and trial.  A trial is one request
of the sweep: it opens when :func:`repro.experiments.runner.build_trial` is called and
closes at the sink's ``on_trial`` event, so the layer spans of a trial are its children.
Spans stay in flat in-memory arrays and are written out once, by :meth:`Tracer.save`.

A layer's self time is its span's duration minus the part covered by its child spans,
so nested layers are never counted twice: ``core.fnbp_s`` excludes the first-hop solve
that FNBP's ``select`` calls, which is ``localview.first_hops_s``.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines import topology_filtering
from repro.baselines.qolsr import QolsrMpr2Selector
from repro.baselines.topology_filtering import TopologyFilteringSelector
from repro.core import fnbp, selection
from repro.core.fnbp import FnbpSelector
from repro.core.selection import SelectionCache
from repro.experiments import measures, runner
from repro.experiments.sinks import ResultSink
from repro.localview.networkgraph import NetworkGraph
from repro.localview.view import LocalView
from repro.mobility.dynamic import DynamicTopology
from repro.olsr.node import OlsrNode
from repro.olsr.topology_table import TopologyTable
from repro.protocol.loss import LossModel
from repro.protocol.simulator import ProtocolSimulator
from repro.routing.advertised import AdvertisedTopologyBuilder
from repro.routing.hop_by_hop import HopByHopRouter
from repro.topology.generators import FixedCountNetworkGenerator, PoissonNetworkGenerator

#: (owner, attribute, span name) of every timed boundary.  The span name plus ``_s`` is
#: the per-layer metric its self time is reported under.
TIMED = (
    (PoissonNetworkGenerator, "generate", "topology.generate"),
    (FixedCountNetworkGenerator, "generate", "topology.generate"),
    (NetworkGraph, "from_network", "localview.csr_build"),
    (LocalView, "all_from_network", "localview.views"),
    (selection, "prime_first_hops", "localview.prime_first_hops"),
    (fnbp, "all_first_hops", "localview.first_hops"),
    (topology_filtering, "qos_rng_reduce", "localview.rng_reduce"),
    (LocalView, "from_tables", "localview.from_tables"),
    (FnbpSelector, "select", "core.fnbp"),
    (TopologyFilteringSelector, "select", "baselines.topology_filtering"),
    (QolsrMpr2Selector, "select", "baselines.qolsr_mpr2"),
    (measures, "optimal_route", "routing.optimal_route"),
    (HopByHopRouter, "link_state_route", "routing.link_state_route"),
    (AdvertisedTopologyBuilder, "build", "routing.advertised_build"),
    (DynamicTopology, "advance", "mobility.advance"),
    (ProtocolSimulator, "run_until", "protocol.run_until"),
    (LossModel, "delivered", "protocol.loss_draw"),
    (ProtocolSimulator, "ans_snapshot", "protocol.observe"),
    (ProtocolSimulator, "advertised_link_sets", "protocol.observe"),
    (ProtocolSimulator, "next_hops", "protocol.observe"),
    (OlsrNode, "handle_packet", "olsr.handle_packet"),
    (TopologyTable, "update_from_tc", "olsr.update_from_tc"),
    (OlsrNode, "refresh_selection", "olsr.refresh_selection"),
    (OlsrNode, "recompute_routes", "olsr.recompute_routes"),
)

#: Span names whose count is the number of ``select`` calls (``core.select_calls``).
SELECT_SPANS = ("core.fnbp", "baselines.topology_filtering", "baselines.qolsr_mpr2")

TRIAL = "trial"
_MISSING = object()


class _TrialSink(ResultSink):
    """Closes the open trial span when the engine reports the trial's outcome."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def on_trial(self, spec, density, run_index, payload, message) -> None:
        self._tracer.close_trial()

    def on_trial_error(self, spec, density, run_index, failure) -> None:
        self._tracer.close_trial()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self._stack: List[int] = []
        self._trial_span: Optional[int] = None
        self._trials = 0
        self._current_trial = -1
        self._saved: List[tuple] = []
        # Counts read off return values and counters at the boundaries.
        self.links_flipped = 0
        self.events = 0
        self.transmissions = 0
        self.deliveries = 0
        self.cache_owners = 0
        self.cache_selects = 0

    # ------------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.trial.append(self._current_trial)
        self.end.append(float("nan"))
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def close_trial(self) -> None:
        """Close the open trial span (and anything a failed attempt left open under it)."""
        if self._trial_span is None:
            return
        while self._stack and self._stack[-1] != self._trial_span:
            self._close(self._stack[-1])
        self._close(self._trial_span)
        self._trial_span = None
        self._current_trial = -1

    def sink(self) -> ResultSink:
        """The sink that ends each trial span; pass it to ``run_experiment``."""
        return _TrialSink(self)

    # ------------------------------------------------------------------ wrappers

    def _timed(
        self,
        func: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``func`` recorded as a span; ``after(args, result, before(args))`` reads counts."""
        name_id = self._name_id(name)
        tracer = self

        if after is None:

            def wrapper(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(index)

            return wrapper

        def counting_wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            after(args, result, token)
            return result

        return counting_wrapper

    def _build_trial(self, func: Callable) -> Callable:
        name_id = self._name_id(TRIAL)
        tracer = self

        def build_trial(*args, **kwargs):
            tracer.close_trial()  # a retried attempt never reached on_trial
            tracer._trials += 1
            tracer._current_trial = tracer._trials
            tracer._trial_span = tracer._open(name_id)
            return func(*args, **kwargs)

        return build_trial

    def _count_flips(self, args, delta, token) -> None:
        self.links_flipped += delta.link_churn

    @staticmethod
    def _sim_counters(args) -> tuple:
        sim = args[0]
        stats = sim.radio.statistics
        return (sim.simulator.processed_events, stats.transmissions, stats.deliveries)

    def _count_events(self, args, result, before: tuple) -> None:
        events, transmissions, deliveries = self._sim_counters(args)
        self.events += events - before[0]
        self.transmissions += transmissions - before[1]
        self.deliveries += deliveries - before[2]

    def _cache_select_all(self, func: Callable) -> Callable:
        select_ids = [self._name_id(name) for name in SELECT_SPANS]
        tracer = self

        def select_all(*args, **kwargs):
            before = len(tracer.start)
            results = func(*args, **kwargs)
            tracer.cache_owners += len(results)
            tracer.cache_selects += sum(
                1 for name_id in tracer.name[before:] if name_id in select_ids
            )
            return results

        return select_all

    # ------------------------------------------------------------------ install

    def _replace(self, owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__.get(attribute, _MISSING)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(getattr(owner, attribute))
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "mobility.advance": (None, self._count_flips),
            "protocol.run_until": (self._sim_counters, self._count_events),
        }
        for owner, attribute, name in TIMED:
            self._replace(
                owner,
                attribute,
                lambda func, name=name: self._timed(func, name, *hooks.get(name, (None, None))),
            )
        self._replace(runner, "build_trial", self._build_trial)
        self._replace(SelectionCache, "select_all", self._cache_select_all)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self.close_trial()

    # ------------------------------------------------------------------ results

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as columns; a span still open counts as ending now."""
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        end[np.isnan(end)] = time.perf_counter()
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": end,
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
        }

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer self times and counts of a traced sweep that took ``wall_s``."""
        columns = self.arrays()
        name, parent = columns["name"], columns["parent"]
        duration = columns["end"] - columns["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        self_time = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        inclusive = np.bincount(name, weights=duration, minlength=len(self.names))

        def by_name(values, span: str) -> float:
            return float(values[self._ids[span]]) if span in self._ids else 0.0

        layers = {f"{span}_s": by_name(self_time, span) for _, _, span in TIMED}
        attributed = sum(layers.values())
        run_until = by_name(inclusive, "protocol.run_until")
        layers.update(
            {
                "core.select_calls": sum(by_name(calls, span) for span in SELECT_SPANS),
                "core.reuse_frac": (
                    1.0 - self.cache_selects / self.cache_owners if self.cache_owners else 0.0
                ),
                "mobility.links_flipped": float(self.links_flipped),
                "protocol.events": float(self.events),
                "protocol.events_per_s": self.events / run_until if run_until else 0.0,
                "protocol.loss_draws": by_name(calls, "protocol.loss_draw"),
                "protocol.delivery_frac": (
                    self.deliveries / self.transmissions if self.transmissions else 0.0
                ),
                "olsr.tc_updates": by_name(calls, "olsr.update_from_tc"),
                "experiments.other_s": wall_s - attributed,
            }
        )
        return layers

    def save(self, path: Path) -> None:
        """Write every span once, as compressed numpy columns plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
