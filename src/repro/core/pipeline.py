"""The Darwin-WGA pipeline: D-SOFT seeding -> gapped filter -> GACT-X.

This is the paper's primary contribution assembled end to end (Figure 4
and Figure 6): software seeding with diagonal-band D-SOFT, hardware-style
banded-Smith-Waterman gapped filtering, and GACT-X tiled extension with
anchor absorption.  Per-stage workload counters (seeds, filter tiles,
extension tiles — the paper's Table V columns) are collected on every run
and consumed by the performance models in :mod:`repro.hw`.

:class:`WholeGenomeAligner` is the one aligner: it owns the engine
lifecycle, index build, strand production and extension scheduling,
and takes the only part the paper varies — the seed+filter stage — as
a :class:`SeedFilterStage`.  :class:`DarwinWGA` binds Darwin's stage;
the LASTZ baseline (:class:`repro.lastz.pipeline.LastzAligner`) binds
the ungapped one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Union


from ..align.alignment import Alignment
from ..genome.sequence import Sequence
from ..obs.export import graft_span_dicts
from ..obs.session import TelemetryOptions
from ..obs.tracer import NULL_TRACER
from ..resilience.checkpoint import (
    RunManifest,
    config_digest,
    sequences_digest,
)
from ..obs.occupancy import StreamStats
from ..resilience.policy import ResilienceOptions
from ..seed.cache import SeedIndexCache
from ..seed.dsoft import dsoft_seed
from ..seed.index import SeedIndex
from .anchors import CoverageGrid
from .config import DarwinWGAConfig
from .executor import INLINE, Executor
from .gact_x import TileTrace
from .gapped_filter import gapped_filter
from .stream import (
    BoundedQueue,
    StrandStream,
    _stall_if_planned,
    stream_extension,
    unit_window,
)
from .worker import align_unit_task

if TYPE_CHECKING:  # repro.parallel sits above core in the layer DAG
    from ..parallel.engine import ExecutionEngine


def _make_engine(
    workers: int,
    resilience: Optional[ResilienceOptions] = None,
    telemetry: Optional[TelemetryOptions] = None,
) -> "ExecutionEngine":
    """Construct the multiprocess engine.

    Deferred import: ``repro.parallel`` is a higher layer than
    ``core``, so the pipelines only reach up at call time, when the
    caller actually asked for workers (see LAY001 in repro.analysis).
    """
    from ..parallel.engine import ExecutionEngine

    return ExecutionEngine(
        workers, resilience=resilience, telemetry=telemetry
    )


def _bind_telemetry(
    telemetry: Optional[TelemetryOptions], tracer
) -> None:
    """Stand the telemetry bus up for a traced run and attach it.

    Must happen before the engine's pool runs its first task — the bus
    queue only reaches workers through the pool initializer.  Untraced
    runs skip the bus entirely (workers would have no spans to stream),
    so NullTracer benchmarks pay nothing.
    """
    if telemetry is None:
        return
    if tracer.enabled:
        telemetry.ensure_bus()
    telemetry.attach(tracer)


def _resolve_cache(
    index_cache: Union[SeedIndexCache, str, Path, None],
    resilience: Optional[ResilienceOptions] = None,
) -> Optional[SeedIndexCache]:
    if index_cache is None:
        return None
    if isinstance(index_cache, SeedIndexCache):
        if resilience is not None and index_cache.resilience is None:
            index_cache.resilience = resilience
        return index_cache
    return SeedIndexCache(index_cache, resilience=resilience)


@dataclass
class Workload:
    """Per-stage work counters (the paper's Table V workload columns)."""

    seed_hits: int = 0
    filter_tiles: int = 0
    filter_cells: int = 0
    extension_tiles: int = 0
    extension_cells: int = 0
    anchors: int = 0
    absorbed_anchors: int = 0
    extension_tile_traces: List[TileTrace] = field(default_factory=list)

    def merge(self, other: "Workload") -> None:
        self.seed_hits += other.seed_hits
        self.filter_tiles += other.filter_tiles
        self.filter_cells += other.filter_cells
        self.extension_tiles += other.extension_tiles
        self.extension_cells += other.extension_cells
        self.anchors += other.anchors
        self.absorbed_anchors += other.absorbed_anchors
        self.extension_tile_traces.extend(other.extension_tile_traces)


@dataclass
class WGAResult:
    """Alignments plus the workload that produced them."""

    alignments: List[Alignment]
    workload: Workload

    @property
    def total_matches(self) -> int:
        return sum(a.matches for a in self.alignments)


#: Workload fields counted on every ``align`` span.
_SPAN_COUNTERS = (
    "seed_hits",
    "filter_tiles",
    "filter_cells",
    "extension_tiles",
    "extension_cells",
    "anchors",
    "absorbed_anchors",
)


@dataclass(frozen=True)
class SeedFilterStage:
    """The seed+filter producer an aligner runs on each strand.

    ``run(config, target, query, index, strand, tracer)`` returns
    ``(anchors, workload)``: the filter's anchors and a
    :class:`Workload` holding the seed and filter counts.  ``name``
    labels the ``align`` span; ``keep_tile_traces`` keeps the extension
    tile traces the hardware model replays.
    """

    name: str
    run: Callable
    keep_tile_traces: bool


def darwin_seed_filter(config, target, query, index, strand, tracer):
    """Darwin-WGA's stage: D-SOFT seeding, then the gapped (BSW) filter."""
    seeding = dsoft_seed(index, query, config.dsoft, tracer=tracer)
    filter_result = gapped_filter(
        target,
        query,
        seeding.target_positions,
        seeding.query_positions,
        config.scoring,
        config.filtering,
        strand=strand,
        tracer=tracer,
    )
    workload = Workload(
        seed_hits=seeding.raw_hit_count,
        filter_tiles=filter_result.tiles,
        filter_cells=filter_result.cells,
        anchors=len(filter_result.anchors),
    )
    return filter_result.anchors, workload


class WholeGenomeAligner:
    """Seed, filter and GACT-X-extend a query against a target.

    Subclasses bind ``config_class`` and ``stage`` and nothing else.

    Pass a :class:`repro.obs.Tracer` to record per-stage spans (seed /
    filter / per-anchor extension); the default :data:`NULL_TRACER` makes
    instrumentation free.

    Extension always runs through the streamed dataflow
    (:func:`repro.core.stream.stream_extension`).  With ``workers > 1``
    it fans out over a process pool — deterministically, so output is
    byte-identical to ``workers=1`` — and seeding/filtering of later
    strands overlaps in-flight extensions under a bounded in-flight
    watermark (:func:`~repro.core.stream.in_flight_limit`).  An
    externally owned :class:`~repro.parallel.engine.ExecutionEngine` may
    be passed instead to share one pool across aligners.  A serial run
    is the same dataflow over :data:`~repro.core.executor.INLINE`.
    ``index_cache`` (a directory path or
    :class:`~repro.seed.cache.SeedIndexCache`) persists seed indexes
    across runs.  ``telemetry`` (a
    :class:`~repro.obs.session.TelemetryOptions`) adds live progress,
    metric collection and — for traced parallel runs — the
    cross-process telemetry bus.  Aligners that own their engine should
    be closed (:meth:`close` or a ``with`` block) when ``workers > 1``.
    """

    config_class: type
    stage: SeedFilterStage

    def __init__(
        self,
        config=None,
        tracer=None,
        workers: int = 1,
        engine: Optional[ExecutionEngine] = None,
        index_cache: Union[SeedIndexCache, str, Path, None] = None,
        resilience: Optional[ResilienceOptions] = None,
        telemetry: Optional[TelemetryOptions] = None,
    ) -> None:
        self.config = config or self.config_class()
        #: Occupancy/backpressure summary of the last align() (a
        #: :meth:`repro.obs.occupancy.StreamStats.summary` dict).
        self.last_stream = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.workers = engine.workers if engine is not None else workers
        if resilience is None and engine is not None:
            resilience = engine.resilience
        self.resilience = resilience
        self.index_cache = _resolve_cache(index_cache, resilience)
        if engine is not None and telemetry is not None:
            engine.adopt_telemetry(telemetry)
        self.telemetry = telemetry
        self._engine = engine
        self._owns_engine = False

    @property
    def engine(self) -> Optional[ExecutionEngine]:
        """The execution engine, created lazily when ``workers > 1``."""
        if self._engine is None and self.workers > 1:
            _bind_telemetry(self.telemetry, self.tracer)
            self._engine = _make_engine(
                self.workers, self.resilience, self.telemetry
            )
            self._owns_engine = True
        return self._engine

    def close(self) -> None:
        """Release the engine if this aligner created it."""
        if self._owns_engine and self._engine is not None:
            self._engine.close()
            self._engine = None
            self._owns_engine = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _build_index(self, target: Sequence) -> SeedIndex:
        """Build (or load from the cache) the target's seed index."""
        if self.index_cache is not None:
            return self.index_cache.get_or_build(
                target, self.config.seed, tracer=self.tracer
            )
        with self.tracer.span("build_index", target=target.name or "target"):
            return SeedIndex.build(target, self.config.seed)

    def align(
        self,
        target: Sequence,
        query: Sequence,
        index: Optional[SeedIndex] = None,
    ) -> WGAResult:
        """Align ``query`` against ``target`` on both strands.

        ``index`` is an optional prebuilt :class:`SeedIndex` of
        ``target`` (with this config's seed pattern), e.g. one loaded
        from a seed-index cache; without it the index is built (or
        loaded from this aligner's ``index_cache``) here.
        """
        config = self.config
        tracer = self.tracer
        stage = self.stage
        with tracer.span(
            "align",
            aligner=stage.name,
            target=target.name or "target",
            query=query.name or "query",
            target_bp=len(target),
            query_bp=len(query),
        ) as span:
            if index is None:
                index = self._build_index(target)
            strands = (1, -1) if config.both_strands else (1,)

            def produce(i: int) -> StrandStream:
                strand = strands[i]
                oriented = (
                    query if strand == 1 else query.reverse_complement()
                )
                with tracer.span(
                    "strand", strand="+" if strand == 1 else "-"
                ):
                    anchors, workload = stage.run(
                        config, target, oriented, index, strand, tracer
                    )
                # Extend best-filter-score first so absorption keeps the
                # anchors most likely to seed the strongest alignments.
                # This per-strand order decides absorption, so it is part
                # of the byte-identical-output contract.
                ordered = sorted(anchors, key=lambda a: -a.filter_score)
                grid = CoverageGrid(config.absorb_granularity)
                return StrandStream(oriented, ordered, grid, workload)

            executor = self.engine
            if executor is None or not executor.active:
                executor = INLINE
            # Later strands' producer spans nest under this one: the
            # overlap is real, so the trace reflects it.
            with tracer.span("extend") as extend_span:
                states, stats = stream_extension(
                    target,
                    len(strands),
                    produce,
                    config.scoring,
                    config.extension,
                    executor,
                    tracer=tracer,
                    keep_tile_traces=stage.keep_tile_traces,
                )
                alignments: List[Alignment] = []
                workload = Workload()
                for state in states:
                    alignments.extend(state.alignments)
                    workload.merge(state.workload)
                extend_span.inc("extension_tiles", workload.extension_tiles)
                extend_span.inc("extension_cells", workload.extension_cells)
                extend_span.inc("absorbed_anchors", workload.absorbed_anchors)
                extend_span.inc("alignments", len(alignments))
                extend_span.set(
                    occupancy=round(stats.occupancy(), 6),
                    idle_tail_seconds=round(stats.idle_tail_seconds(), 6),
                    backpressure_stalls=stats.backpressure_stalls,
                    peak_in_flight=stats.peak_in_flight,
                )
            self.last_stream = stats.summary()
            alignments.sort(key=lambda a: -a.score)
            for name in _SPAN_COUNTERS:
                span.inc(name, getattr(workload, name))
            span.inc("alignments", len(alignments))
            return WGAResult(alignments=alignments, workload=workload)


class DarwinWGA(WholeGenomeAligner):
    """Whole genome aligner with gapped filtering and GACT-X extension.

    >>> from repro.genome import make_species_pair
    >>> import numpy as np
    >>> pair = make_species_pair(3000, 0.2, np.random.default_rng(0))
    >>> aligner = DarwinWGA()
    >>> result = aligner.align(pair.target.genome, pair.query.genome)

    Everything but the seed+filter stage (D-SOFT + BSW, tile traces
    kept for the hardware model) is :class:`WholeGenomeAligner`.
    """

    config_class = DarwinWGAConfig
    stage = SeedFilterStage(
        "darwin", darwin_seed_filter, keep_tile_traces=True
    )


def align_pair(
    target: Sequence,
    query: Sequence,
    config: Optional[DarwinWGAConfig] = None,
    tracer=None,
    workers: int = 1,
    index_cache=None,
    telemetry: Optional[TelemetryOptions] = None,
) -> WGAResult:
    """One-call convenience wrapper around :class:`DarwinWGA`."""
    with DarwinWGA(
        config,
        tracer=tracer,
        workers=workers,
        index_cache=index_cache,
        telemetry=telemetry,
    ) as aligner:
        return aligner.align(target, query)


def _unit_key(ti: int, target: Sequence, qi: int, query: Sequence) -> str:
    """Stable identity of one (target, query) chromosome-pair unit."""
    return f"{ti}:{target.name or 'target'}|{qi}:{query.name or 'query'}"


def _attach_manifest(
    checkpoint,
    resume: bool,
    aligner_class,
    resolved_config,
    target_assembly,
    query_assembly,
) -> Optional[RunManifest]:
    if checkpoint is None:
        return None
    return RunManifest.attach(
        checkpoint,
        aligner=aligner_class.__name__,
        config=config_digest(resolved_config),
        target=sequences_digest(target_assembly),
        query=sequences_digest(query_assembly),
        resume=resume,
    )


def align_assemblies(
    target_assembly,
    query_assembly,
    config=None,
    aligner_class=DarwinWGA,
    tracer=None,
    workers: int = 1,
    engine: Optional[ExecutionEngine] = None,
    index_cache: Union[SeedIndexCache, str, Path, None] = None,
    checkpoint: Union[str, Path, None] = None,
    resume: bool = False,
    resilience: Optional[ResilienceOptions] = None,
    telemetry: Optional[TelemetryOptions] = None,
) -> WGAResult:
    """Whole-assembly WGA: every target chromosome vs every query
    chromosome (the paper's actual task — its species have multiple
    nuclear chromosomes).

    Each chromosome pair is an independent unit; alignments keep their
    chromosome names so chains partition correctly per
    (target chromosome, query chromosome, strand).  Units stream through
    one bounded dataflow (:func:`_stream_units`) over an executor:
    worker processes for ``workers > 1`` (or an external active
    ``engine``), :data:`~repro.core.executor.INLINE` for a serial run;
    the result is byte-identical either way.  With an ``index_cache``
    the parent warms each target's seed index once and every unit loads
    it from the cache; without one each unit builds its own index (well
    under 1% of a unit's time).

    ``checkpoint`` journals every completed unit to a
    :class:`~repro.resilience.checkpoint.RunManifest`; ``resume=True``
    replays journaled units from an existing manifest (after verifying
    it was written by this exact aligner/config/input combination)
    instead of recomputing them.  Because journaled results are merged
    back at their original positions, a resumed run's output is
    byte-identical to an uninterrupted one.  ``resilience`` supplies the
    retry policy, fault-injection plan and recovery counters for
    supervised parallel dispatch.

    ``telemetry`` adds live progress reporting and metric collection;
    for traced parallel runs it also stands up the cross-process
    telemetry bus, over which workers stream their span trees, funnel
    counters and resource samples as each unit completes.  None of it
    changes the result: telemetry rides alongside the dispatch/gather
    order, never in it.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    cache = _resolve_cache(index_cache, resilience)
    resolved_config = config if config is not None else aligner_class().config
    manifest = _attach_manifest(
        checkpoint,
        resume,
        aligner_class,
        resolved_config,
        target_assembly,
        query_assembly,
    )
    pool = engine
    owns_engine = False
    if pool is None and workers > 1:
        _bind_telemetry(telemetry, tracer)
        pool = _make_engine(workers, resilience, telemetry)
        owns_engine = True
    elif pool is not None and telemetry is not None:
        # An externally owned engine adopts the telemetry bundle only
        # while its pool is still unbuilt (the bus must ride the pool
        # initializer); otherwise progress still works parent-side.
        if pool.adopt_telemetry(telemetry):
            _bind_telemetry(telemetry, tracer)
    executor = pool if pool is not None and pool.active else INLINE
    try:
        return _stream_units(
            target_assembly,
            query_assembly,
            resolved_config,
            aligner_class,
            tracer,
            executor,
            cache,
            manifest,
            resilience.stats if resilience is not None else None,
            telemetry.progress if telemetry is not None else executor.progress,
        )
    finally:
        if owns_engine:
            pool.close()


def _stream_units(
    target_assembly,
    query_assembly,
    resolved_config,
    aligner_class,
    tracer,
    executor: Executor,
    cache: Optional[SeedIndexCache],
    manifest: Optional[RunManifest],
    stats,
    progress,
) -> WGAResult:
    """Stream (target chromosome, query chromosome) units over ``executor``.

    Units flow through a bounded in-flight window (a
    :class:`~repro.core.stream.BoundedQueue` of
    :func:`~repro.core.stream.unit_window` slots; one unit inline): the
    producer shares sequences and dispatches lazily, throttled whenever
    the window is full, so pending results stay bounded and memory flat
    at any assembly size.  Submission and gathering both follow the
    serial iteration order and each unit is internally serial, so the
    result is the same on every executor — including under supervised
    recovery (retries, pool rebuilds and serial fallbacks change where a
    unit runs, never its value or its position in the gather order) and
    under resume (journaled units ride the window as markers, without
    occupying a slot, and merge at their original positions).
    """
    traced = tracer.enabled
    cache_dir = str(cache.directory) if cache is not None else None
    telemetry = executor.telemetry
    registry = telemetry.registry if telemetry is not None else None
    bus = executor.bus
    window = unit_window(executor.workers)
    occupancy = StreamStats(slots=executor.workers)
    alignments: List[Alignment] = []
    workload = Workload()
    with tracer.span("align_assemblies") as span:
        # The producer stage: a lazy stream in serial order.
        units = (
            (ti, target, qi, query)
            for ti, target in enumerate(target_assembly)
            for qi, query in enumerate(query_assembly)
        )
        queue = BoundedQueue("assembly_units", capacity=window)
        target_handles: dict = {}
        outstanding = 0
        exhausted = False

        def _dispatch_next() -> bool:
            """Produce + dispatch one unit; False when none remain."""
            nonlocal exhausted, outstanding
            entry = next(units, None)
            if entry is None:
                exhausted = True
                return False
            ti, target, qi, query = entry
            key = _unit_key(ti, target, qi, query)
            if manifest is not None and key in manifest:
                # Journaled units cost no worker: they ride the queue
                # as markers so they merge at their original position.
                queue.offer((key, None, None))
                return True
            if ti not in target_handles:
                if cache is not None:
                    # Warm the on-disk index once per target so every
                    # unit loads it as a cache hit.
                    cache.get_or_build(
                        target, resolved_config.seed, tracer=tracer
                    )
                target_handles[ti] = executor.share(target)
            base = tracer.now()
            if bus is not None:
                # Workers stream this unit's spans with relative
                # timestamps; the bus grafts them onto the parent
                # timeline at the unit's dispatch offset.
                bus.register_unit(key, base)
            ticket = executor.dispatch(
                align_unit_task,
                aligner_class,
                resolved_config,
                target_handles[ti],
                executor.share(query),
                cache_dir,
                traced,
                key,
                key=key,
            )
            queue.offer((key, ticket, base))
            outstanding += 1
            occupancy.dispatched()
            progress.set_in_flight(outstanding)
            return True

        while True:
            # Fill the window; stop at capacity (backpressure) or when
            # the producer runs dry.
            while not exhausted and outstanding < window and not queue.full:
                _dispatch_next()
            if not exhausted and outstanding >= window:
                occupancy.stalled()
            if not len(queue):
                break
            key, ticket, base = queue.take()
            if ticket is None:
                result = manifest.result_for(key)
                span.inc("resumed_units")
                if stats is not None:
                    stats.resumed_units += 1
            else:
                _stall_if_planned(executor.resilience, key)
                (result, quarantined), span_dicts, ack = executor.result(
                    ticket, tracer=tracer
                )
                outstanding -= 1
                occupancy.collected()
                collected = tracer.now()
                if registry is not None:
                    registry.histogram("queue_depth").observe(outstanding)
                    if ack is not None:
                        latency = collected - base - ack.get("busy", 0.0)
                        registry.histogram(
                            "dispatch_latency_seconds"
                        ).observe(max(0.0, latency))
                if bus is not None and ack is not None:
                    bus.record_ack(ack, done_at=collected)
                if traced and span_dicts is not None:
                    # Spans came back with the result (inline, or a
                    # bus-less engine); tag them the way the bus would
                    # so trace consumers see one shape.
                    for grafted in graft_span_dicts(
                        tracer, span_dicts, base=base
                    ):
                        grafted.attrs.setdefault("unit", key)
                if stats is not None:
                    stats.quarantined_entries += quarantined
                if manifest is not None:
                    manifest.record(key, result)
                    if stats is not None:
                        stats.journaled_units += 1
                progress.set_in_flight(outstanding)
            alignments.extend(result.alignments)
            workload.merge(result.workload)
            span.inc("chromosome_pairs")
            progress.advance(
                units=1,
                cells=result.workload.filter_cells
                + result.workload.extension_cells,
            )
        occupancy.close()
        span.set(
            occupancy=round(occupancy.occupancy(), 6),
            backpressure_stalls=occupancy.backpressure_stalls,
            peak_in_flight=occupancy.peak_in_flight,
        )
        if registry is not None:
            registry.counter("stream_backpressure_stalls").inc(
                occupancy.backpressure_stalls
            )
            registry.gauge("stream_occupancy").set(occupancy.occupancy())
            registry.gauge("stream_peak_in_flight").set(
                occupancy.peak_in_flight
            )
        if bus is not None:
            missing = bus.drain()
            idle_tail = bus.idle_tail_seconds(tracer.now())
            span.set(
                idle_tail_seconds=round(idle_tail, 6),
                undelivered_events=missing,
            )
            if registry is not None:
                registry.gauge("idle_tail_seconds").set(idle_tail)
    alignments.sort(key=lambda a: -a.score)
    return WGAResult(alignments=alignments, workload=workload)
