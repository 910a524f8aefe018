"""Shared plumbing of the evaluation harness.

One *trial* = one density, one run index, one random topology with freshly drawn link
weights.  The runner builds the topology exactly as the paper describes (Poisson deployment,
uniform weights), constructs every node's local view once, and runs each selector on those
shared views, so that the algorithms are compared on strictly identical inputs (the paper:
"Each approach is run on the same topology with the same source and destination").

Because every trial is derived deterministically from ``(spec, metric, density,
run_index)``, trials are embarrassingly parallel: :func:`map_trials` optionally fans them
out over a multiprocessing pool (``workers=`` argument or the ``REPRO_WORKERS`` environment
variable) and re-assembles the per-trial results in run order, so a parallel sweep
aggregates bit-identically to a serial one.

Determinism is also what makes the trials *supervisable*: a trial that raises, hangs past
``REPRO_TRIAL_TIMEOUT`` seconds, or whose worker process dies (the pool respawns dead
workers automatically; the supervisor detects the lost task by its missed deadline) is
simply retried with bounded exponential backoff, up to ``REPRO_MAX_RETRIES`` extra
attempts -- and because a retry re-derives the identical trial from the identical inputs,
a recovered sweep is bit-identical to an undisturbed one.  A trial that exhausts its
retries either aborts the sweep (``on_error="fail"``, the default) or is recorded as a
structured :class:`TrialFailure` in the result list (``on_error="skip"``), which the engine
turns into an ``on_trial_error`` sink event.

Every cache in the harness hangs off the :class:`Trial` (the per-view compact graphs live
on the trial's views; each selector's selections and advertised topology are memoized on
the trial), and under the parallel path each worker process builds
its own trials.  Caches are therefore per-worker by construction -- nothing warm crosses a
process boundary -- and a worker's computation for a given run index is the same
deterministic function a serial run evaluates, which is what keeps parallel sweeps
bit-identical to serial ones even with all caches enabled (asserted by
``tests/test_compactgraph_and_parallel.py``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.selection import AnsSelector, SelectionCache, SelectionResult, make_selector
from repro.experiments.spec import ExperimentSpec
from repro.localview.networkgraph import NetworkGraph
from repro.obs import runtime as obs
from repro.obs.registry import MetricsRegistry, TrialTelemetry
from repro.localview.view import LocalView
from repro.metrics import Metric, UniformWeightAssigner
from repro.registry import TOPOLOGY_MODELS
from repro.routing.advertised import AdvertisedTopology, AdvertisedTopologyBuilder
from repro.topology.network import Network
from repro.utils.ids import NodeId
from repro.utils.seeding import spawn_rng


@dataclass
class Trial:
    """One generated topology, with lazily built local views and per-selector selections."""

    spec: ExperimentSpec
    metric: Metric
    density: float
    run_index: int
    network: Network
    generator: Optional[object] = None
    _views: Optional[Dict[NodeId, LocalView]] = None
    _network_graph: Optional[NetworkGraph] = None
    _selections: Dict[str, Dict[NodeId, SelectionResult]] = field(default_factory=dict)
    _advertised: Dict[str, AdvertisedTopology] = field(default_factory=dict)
    _dynamic: Optional[object] = None
    _selection_cache: Optional[SelectionCache] = None

    # ------------------------------------------------------------------ views

    def network_graph(self) -> NetworkGraph:
        """The trial's shared network-level CSR (built once; every view answers from it).

        One flat ``indptr``/``indices`` adjacency plus one numpy weight array per metric
        token for the whole network; the views returned by :meth:`views` attach to it so
        the batched solver kernels can expand all owners' frontiers together.  Snapshot
        semantics: like :meth:`views`, it describes the trial's network at build time.
        """
        if self._network_graph is None:
            with obs.span("csr_build"):
                self._network_graph = NetworkGraph.from_network(self.network)
        return self._network_graph

    def views(self) -> Dict[NodeId, LocalView]:
        """Every node's local view (built once in a single adjacency pass, shared by all
        selectors), attached to the trial's shared :meth:`network_graph`."""
        if self._views is None:
            self._views = LocalView.all_from_network(
                self.network, network_graph=self.network_graph()
            )
        return self._views

    # ------------------------------------------------------------------ selections

    def selections(self, selector_name: str) -> Dict[NodeId, SelectionResult]:
        """Per-node selection results of one selector (cached).

        Runs through :meth:`AnsSelector.select_all` so selectors that batch (FNBP's
        first-hop solves run as shared-CSR kernels over all owners at once) get their
        fast path; per-owner results are bit-identical to per-view ``select`` calls.
        """
        if selector_name not in self._selections:
            selector = make_selector(selector_name)
            self._selections[selector_name] = selector.select_all(
                self.network, self.metric, views=self.views()
            )
        return self._selections[selector_name]

    def advertised_topology(self, selector_name: str) -> AdvertisedTopology:
        """The network-wide advertised topology induced by one selector (cached).

        Built once per selector from :meth:`selections`; each is an independent value, so
        topologies of several selectors can be held and routed over in any order.
        """
        if selector_name not in self._advertised:
            self._advertised[selector_name] = AdvertisedTopologyBuilder(self.network).build(
                self.selections(selector_name)
            )
        return self._advertised[selector_name]

    # ------------------------------------------------------------------ dynamics

    def dynamic_topology(self):
        """The :class:`~repro.mobility.dynamic.DynamicTopology` of this trial's run.

        Only available when the spec's topology model is dynamic (``rwp``,
        ``gauss-markov``, ``churn``, or any registered model exposing a
        ``dynamic(run_index, step_interval, network)`` factory); static models raise a
        self-explanatory error.  Built once per trial, reusing ``self.network`` as the
        time-zero snapshot (the driver takes ownership: the trial's network and the
        driver's views are live and advance in place as the dynamic measure steps).
        """
        if self._dynamic is None:
            factory = getattr(self.generator, "dynamic", None)
            if factory is None:
                raise ValueError(
                    f"topology model {self.spec.topology!r} is static; dynamic sweeps "
                    f"need a mobility model such as 'rwp', 'gauss-markov' or 'churn'"
                )
            self._dynamic = factory(
                self.run_index,
                step_interval=self.spec.step_interval,
                network=self.network,
            )
        return self._dynamic

    def selection_cache(self) -> SelectionCache:
        """The trial's cross-timestep :class:`SelectionCache`, wired to the dynamic driver.

        Built once per trial; its invalidation hook is registered as a step listener of
        :meth:`dynamic_topology`, so every ``advance`` automatically marks the step's
        :attr:`~repro.mobility.dynamic.StepDelta.dirty` owners for re-selection and
        nothing has to thread deltas through the measures by hand.
        """
        if self._selection_cache is None:
            cache = SelectionCache()
            self.dynamic_topology().add_step_listener(cache.on_step)
            self._selection_cache = cache
        return self._selection_cache

    def step_selections(self, selector_name: str) -> Dict[NodeId, SelectionResult]:
        """Per-node selections of one selector on the *current* step's views.

        The dynamic-trial counterpart of :meth:`selections`: results are maintained
        incrementally across timesteps by the trial's :class:`SelectionCache` -- only the
        owners whose local view the steps since this selector's last run dirtied re-run
        the selector; everyone else reuses the previous step's
        :class:`~repro.core.selection.SelectionResult`.  Bit-identical to running the
        selector from scratch on every node each step (pinned by
        ``tests/test_incremental_selection.py``), and per-trial, hence per-worker under
        ``REPRO_WORKERS``.
        """
        dynamic = self.dynamic_topology()
        return self.selection_cache().select_all(
            selector_name, self.metric, dynamic.views(), network=self.network
        )

    # ------------------------------------------------------------------ sampling

    def sample_nodes(self, count: Optional[int], purpose: str) -> List[NodeId]:
        """A deterministic sample of nodes (all of them when ``count`` is None or large)."""
        nodes = self.network.nodes()
        if count is None or count >= len(nodes):
            return nodes
        rng = spawn_rng(self.spec.seed, purpose, self.density, self.run_index)
        return sorted(rng.sample(nodes, count))

    def sample_pairs(self, count: int) -> List[Tuple[NodeId, NodeId]]:
        """Random source/destination pairs within the (connected) topology."""
        nodes = self.network.nodes()
        if len(nodes) < 2:
            return []
        rng = spawn_rng(self.spec.seed, "pairs", self.density, self.run_index)
        pairs: List[Tuple[NodeId, NodeId]] = []
        for _ in range(count):
            source, destination = rng.sample(nodes, 2)
            pairs.append((source, destination))
        return pairs


def build_trial(spec: ExperimentSpec, metric: Metric, density: float, run_index: int) -> Trial:
    """Generate the topology of one trial, following the paper's simulation settings.

    The topology model is resolved by registry name from ``spec.topology`` (the paper's
    Poisson deployment by default, which restricts to the largest connected component so
    that every sampled source/destination pair has at least one path -- the paper routes
    between randomly chosen nodes and reports QoS overheads, which presumes reachability).
    """
    assigner = UniformWeightAssigner(
        metric=metric,
        low=spec.weight_low,
        high=spec.weight_high,
        seed=spec.seed,
    )
    generator = TOPOLOGY_MODELS.create(
        spec.topology,
        field=spec.field,
        density=density,
        seed=spec.seed,
        weight_assigners=(assigner,),
    )
    with obs.span("topology_build"):
        network = generator.generate(run_index)
    return Trial(
        spec=spec,
        metric=metric,
        density=density,
        run_index=run_index,
        network=network,
        generator=generator,
    )


def iter_trials(spec: ExperimentSpec, metric: Metric, density: float) -> Iterable[Trial]:
    """All trials of one density, in run order."""
    for run_index in range(spec.runs):
        yield build_trial(spec, metric, density, run_index)


# ---------------------------------------------------------------------- parallel execution


#: Hard ceiling on worker-process counts; anything above this is a typo, not a machine.
MAX_WORKERS = 1024


def resolve_workers(workers: Optional[int] = None) -> int:
    """Number of worker processes to use for a sweep.

    ``workers=None`` falls back to the ``REPRO_WORKERS`` environment variable; an unset or
    empty variable means serial execution.  The ``workers`` *argument* (the CLI's
    ``--workers`` flag) keeps its documented ``0`` = "one worker per CPU" meaning; the
    environment variable must be a positive integer -- zero, negative and absurdly large
    values are configuration mistakes and are rejected with an error naming the variable.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from exc
        if workers <= 0:
            raise ValueError(
                f"REPRO_WORKERS must be a positive worker-process count, got {workers} "
                f"(unset the variable for serial execution)"
            )
        if workers > MAX_WORKERS:
            raise ValueError(
                f"REPRO_WORKERS={workers} exceeds the sanity cap of {MAX_WORKERS} "
                f"worker processes"
            )
        return workers
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative (0 = one per CPU), got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers={workers} exceeds the sanity cap of {MAX_WORKERS}")
    return workers


def resolve_max_retries(max_retries: Optional[int] = None) -> int:
    """How many *extra* attempts a failed trial gets (``REPRO_MAX_RETRIES``, default 2)."""
    if max_retries is None:
        raw = os.environ.get("REPRO_MAX_RETRIES", "").strip()
        if not raw:
            return 2
        try:
            max_retries = int(raw)
        except ValueError as exc:
            raise ValueError(f"REPRO_MAX_RETRIES must be an integer, got {raw!r}") from exc
    if max_retries < 0:
        raise ValueError(f"REPRO_MAX_RETRIES must be non-negative, got {max_retries}")
    return max_retries


def resolve_trial_timeout(trial_timeout: Optional[float] = None) -> Optional[float]:
    """Per-trial deadline in seconds (``REPRO_TRIAL_TIMEOUT``, default 300; 0 disables).

    The timeout is how the parallel supervisor detects a *lost* trial -- one whose worker
    process was killed, so its result will never arrive -- as well as a genuinely hung one.
    Serial execution cannot preempt a running trial, so the timeout only applies under
    ``workers > 1``.  NaN and infinity are rejected: either would silently switch the
    deadline off, which only ``0`` may do.
    """
    if trial_timeout is None:
        raw = os.environ.get("REPRO_TRIAL_TIMEOUT", "").strip()
        if not raw:
            return 300.0
        try:
            trial_timeout = float(raw)
        except ValueError as exc:
            raise ValueError(f"REPRO_TRIAL_TIMEOUT must be a number of seconds, got {raw!r}") from exc
    if not math.isfinite(trial_timeout):
        raise ValueError(
            f"REPRO_TRIAL_TIMEOUT must be a finite number of seconds (0 disables the "
            f"deadline), got {trial_timeout}"
        )
    if trial_timeout < 0:
        raise ValueError(f"REPRO_TRIAL_TIMEOUT must be non-negative, got {trial_timeout}")
    return None if trial_timeout == 0 else trial_timeout


@dataclass(frozen=True)
class TrialFailure:
    """One trial that exhausted its retries, as structured data.

    Under ``on_error="skip"`` these take the failed trial's place in the result list (and
    become ``on_trial_error`` sink events in the engine); under ``on_error="fail"`` the
    same information rides on the raised :class:`TrialExecutionError`.
    """

    density: float
    run_index: int
    error: str
    error_type: str
    attempts: int


class TrialExecutionError(RuntimeError):
    """A trial failed every attempt and the sweep runs with ``on_error="fail"``."""

    def __init__(self, failure: TrialFailure) -> None:
        super().__init__(
            f"trial (density={failure.density:g}, run={failure.run_index}) failed after "
            f"{failure.attempts} attempt(s): {failure.error_type}: {failure.error} "
            f"(run with --on-error skip to record failures and continue)"
        )
        self.failure = failure


def _backoff_delay(attempt: int) -> float:
    """Bounded exponential backoff before re-attempting a failed trial (seconds)."""
    return min(2.0, 0.05 * (2 ** attempt))


def _execute_trial(
    spec: ExperimentSpec,
    metric: Metric,
    density: float,
    run_index: int,
    attempt: int,
    per_trial: Callable,
    metrics: bool = False,
) -> object:
    """Build and measure one trial (attempt-aware so injected faults can target retries).

    This is the single choke point both the serial and the worker-process path run trials
    through; when the ``REPRO_FAULTS`` environment variable is set, the deterministic
    fault plans of :mod:`repro.testing.faults` are applied here (in whichever process the
    trial executes), which is how the fault-tolerance suite injects raises and worker
    kills without patching any production code.

    With ``metrics=True`` the trial runs under a fresh per-trial
    :class:`~repro.obs.registry.MetricsRegistry` (installed as the process's ambient
    registry for the duration, restored in a ``finally`` so raising trials cannot leak
    it) and returns a :class:`~repro.obs.registry.TrialTelemetry` envelope pairing the
    payload with the registry's snapshot -- which is how worker processes serialize their
    telemetry back for the engine's deterministic run-order merge.  Failed attempts
    discard their partial registry: only the successful attempt's telemetry ships, so a
    retried trial contributes exactly what an undisturbed one would.
    """
    if os.environ.get("REPRO_FAULTS"):
        from repro.testing.faults import apply_trial_faults

        apply_trial_faults(density, run_index, attempt)
    if not metrics:
        return per_trial(build_trial(spec, metric, density, run_index))
    registry = MetricsRegistry()
    previous = obs.install(registry)
    try:
        with registry.span("trial"):
            trial = build_trial(spec, metric, density, run_index)
            with registry.span("measure"):
                payload = per_trial(trial)
    finally:
        obs.install(previous)
    registry.count("runner.trials", 1)
    return TrialTelemetry(payload, registry.snapshot())


def _trial_job(job: Tuple[ExperimentSpec, Metric, float, int, int, Callable, bool]) -> object:
    """Unpack one trial job inside the worker process and execute it."""
    spec, metric, density, run_index, attempt, per_trial, metrics = job
    return _execute_trial(spec, metric, density, run_index, attempt, per_trial, metrics)


def _give_up(
    density: float, run_index: int, attempts: int, exc: BaseException, on_error: str
) -> TrialFailure:
    """Turn an exhausted trial into a :class:`TrialFailure`, raising under ``fail``."""
    obs.add("runner.trial_failures")
    failure = TrialFailure(
        density=density,
        run_index=run_index,
        error=str(exc) or type(exc).__name__,
        error_type=type(exc).__name__,
        attempts=attempts,
    )
    if on_error == "fail":
        raise TrialExecutionError(failure) from exc
    return failure


def _map_trials_serial(
    spec: ExperimentSpec,
    metric: Metric,
    density: float,
    per_trial: Callable,
    on_result: Optional[Callable],
    max_retries: int,
    on_error: str,
    metrics: bool,
) -> List[object]:
    """The serial path, with the same retry/backoff/failure semantics as the supervisor.

    (Timeouts require preemption and therefore worker processes; a serial trial that
    raises is retried, but one that hangs, hangs.)
    """
    results: List[object] = []
    for run_index in range(spec.runs):
        attempt = 0
        while True:
            try:
                result = _execute_trial(
                    spec, metric, density, run_index, attempt, per_trial, metrics
                )
                break
            except Exception as exc:  # noqa: BLE001 - KeyboardInterrupt et al. propagate
                if attempt >= max_retries:
                    result = _give_up(density, run_index, attempt + 1, exc, on_error)
                    break
                time.sleep(_backoff_delay(attempt))
                obs.add("runner.retries")
                attempt += 1
        if on_result is not None:
            on_result(run_index, result)
        results.append(result)
    return results


def map_trials(
    spec: ExperimentSpec,
    metric: Metric,
    density: float,
    per_trial: Callable[[Trial], object],
    workers: Optional[int] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    on_error: str = "fail",
    max_retries: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    metrics: bool = False,
) -> List[Union[object, TrialFailure]]:
    """Apply ``per_trial`` to every trial of one density and return the results in run order.

    ``per_trial`` must be a picklable module-level callable returning picklable data.  With
    ``workers > 1`` the trials are *built and processed* inside worker processes (each trial
    is derived deterministically from its run index, so nothing needs to be shipped besides
    the spec); results still arrive in run order, which is what guarantees that
    parallel sweeps aggregate bit-identically to serial ones.  ``on_result`` is invoked in
    the parent process, in run order, as each result becomes available (the engine uses it
    to emit per-trial sink events).

    Failure semantics: a trial that raises -- or, in the parallel path, misses its
    ``trial_timeout`` deadline, which is also how a SIGKILLed worker's lost task surfaces
    (the pool respawns dead processes on its own; the task is simply resubmitted) -- is
    retried with bounded exponential backoff up to ``max_retries`` extra attempts
    (``REPRO_MAX_RETRIES``).  Retries are bit-identical re-derivations, so a recovered
    sweep equals an undisturbed one.  When retries are exhausted, ``on_error="fail"``
    raises :class:`TrialExecutionError` and ``on_error="skip"`` records a
    :class:`TrialFailure` in the trial's slot of the returned list (also handed to
    ``on_result``).

    ``metrics=True`` wraps each trial's execution in a per-trial telemetry registry (see
    :func:`_execute_trial`); every successful slot of the returned list is then a
    :class:`~repro.obs.registry.TrialTelemetry` envelope instead of the bare payload.
    """
    if on_error not in ("fail", "skip"):
        raise ValueError(f"on_error must be 'fail' or 'skip', got {on_error!r}")
    workers = resolve_workers(workers)
    max_retries = resolve_max_retries(max_retries)
    if workers == 1 or spec.runs <= 1:
        return _map_trials_serial(
            spec, metric, density, per_trial, on_result, max_retries, on_error, metrics
        )

    trial_timeout = resolve_trial_timeout(trial_timeout)
    pool_size = min(workers, spec.runs)
    results: List[object] = []
    with multiprocessing.Pool(processes=pool_size) as pool:

        def submit(run_index: int, attempt: int):
            job = (spec, metric, density, run_index, attempt, per_trial, metrics)
            return pool.apply_async(_trial_job, (job,))

        pending = {run_index: submit(run_index, 0) for run_index in range(spec.runs)}
        for run_index in range(spec.runs):
            attempt = 0
            handle = pending.pop(run_index)
            while True:
                # Jobs are dispatched to workers in submission order, so when the
                # consumer reaches run k the first submission of k is already running or
                # done -- but a *resubmission* queues behind every later run, hence the
                # deadline is stretched by the depth of the queue in front of it.
                deadline = trial_timeout
                if deadline is not None and attempt > 0:
                    queued_ahead = spec.runs - run_index - 1
                    deadline = trial_timeout * (1.0 + queued_ahead / pool_size + attempt)
                outcome, result_or_exc = _await_handle(pool, handle, deadline)
                if outcome == "ok":
                    result = result_or_exc
                    break
                exc = result_or_exc
                if attempt >= max_retries:
                    result = _give_up(density, run_index, attempt + 1, exc, on_error)
                    break
                time.sleep(_backoff_delay(attempt))
                obs.add("runner.retries")
                attempt += 1
                handle = submit(run_index, attempt)
            if on_result is not None:
                on_result(run_index, result)
            results.append(result)
    return results


#: Polling granularity of the supervisor's wait (seconds); bounds how long a crashed
#: worker goes unnoticed without burning CPU on the healthy path.
_SUPERVISOR_POLL = 0.2


def _pool_pids(pool) -> Optional[frozenset]:
    """The pool's current worker PIDs (``None`` when the internals are unavailable)."""
    try:
        return frozenset(process.pid for process in pool._pool)
    except Exception:  # noqa: BLE001 - private API; degrade to deadline-only detection
        return None


def _await_handle(pool, handle, deadline: Optional[float]) -> Tuple[str, object]:
    """Wait for one trial's result, watching the pool for worker crashes.

    Returns ``("ok", result)`` or ``("error", exception)``.  Waiting happens in short
    slices; between slices the set of worker PIDs is compared against the snapshot taken
    when the wait began.  A changed set means a worker died and the pool respawned it --
    the task *may* have died with it, so the supervisor gives up on this handle
    immediately instead of sitting out the full deadline.  (If the crashed worker was
    running some *other* task, the resubmission merely duplicates work: trials are pure,
    so whichever attempt's result is consumed, the bytes are the same.)  A ``None``
    deadline waits forever but still reacts to crashes.
    """
    pids = _pool_pids(pool)
    waited = 0.0
    while True:
        remaining = _SUPERVISOR_POLL if deadline is None else min(_SUPERVISOR_POLL, deadline - waited)
        try:
            return ("ok", handle.get(max(remaining, 0.0)))
        except multiprocessing.TimeoutError:
            pass
        except Exception as exc:  # noqa: BLE001 - the trial's own exception, re-raised by get()
            return ("error", exc)
        waited += _SUPERVISOR_POLL
        current = _pool_pids(pool)
        if pids is not None and current is not None and current != pids:
            obs.add("runner.worker_respawns")
            return (
                "error",
                TimeoutError(
                    "a worker process died while this trial was pending (respawned by "
                    "the pool); the trial was retried"
                ),
            )
        if deadline is not None and waited >= deadline:
            obs.add("runner.timeouts")
            return (
                "error",
                TimeoutError(
                    f"no result within {deadline:g}s (worker killed, or trial hung past "
                    f"REPRO_TRIAL_TIMEOUT)"
                ),
            )
