"""The pipelines the benchmark drives, untraced and traced.

Untraced runs call the aligners as a user would.  The traced rebuild
reproduces the same serial pipelines from package exports only, timing
every call into a layer from here (nothing inside ``src/repro`` is
instrumented):

* Darwin: ``read_fasta`` -> ``SeedIndex.build`` -> ``dsoft_seed`` ->
  ``gapped_filter`` -> (``CoverageGrid`` absorb check + ``gact_x_extend``
  per anchor) -> ``build_chains`` -> ``hw.simulate`` -> MAF writer;
* LASTZ: the same, with ``all_seed_hits`` and ``ungapped_filter`` in
  place of D-SOFT and the gapped filter, and no hardware model (the
  accelerator only runs Darwin's pipeline).

Multi-chromosome inputs are aligned unit by unit in (target, query)
order and sorted by score at the end, exactly as ``align_assemblies``
does, so every path writes the same MAF bytes.
"""

from __future__ import annotations

import hashlib
import io
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.chain import GapCosts, build_chains, total_matches
from repro.core import (
    CoverageGrid,
    DarwinWGA,
    DarwinWGAConfig,
    Workload,
    gact_x_extend,
    gapped_filter,
)
from repro.genome import make_species_pair, read_fasta
from repro.hw import default_fpga, simulate
from repro.io import read_maf, write_assembly_maf, write_chains
from repro.lastz import LastzAligner, LastzConfig, ungapped_filter
from repro.parallel import ExecutionEngine
from repro.seed import SeedIndex, all_seed_hits, dsoft_seed

from perfbench.inputs import PAIR_SPECS
from perfbench.stats import LayerClock, remainder

ALIGNERS = ("darwin", "lastz")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(files) -> Tuple[list, list]:
    return read_fasta(files.target), read_fasta(files.query)


def build_indexes(targets) -> list:
    seed = DarwinWGAConfig().seed
    if LastzConfig().seed != seed:
        raise RuntimeError("Darwin and LASTZ seeds differ; index per aligner")
    return [SeedIndex.build(target, seed) for target in targets]


def maf_text(alignments, targets, queries) -> str:
    buffer = io.StringIO()
    write_assembly_maf(alignments, targets, queries, buffer)
    return buffer.getvalue()


def chain_job_text(maf_path, targets, queries) -> str:
    """What a ``repro serve`` chain job writes for this MAF."""
    chains = build_chains(read_maf(maf_path), GapCosts.loose())
    target, query = targets[0], queries[0]
    buffer = io.StringIO()
    write_chains(
        chains,
        target.name or "target",
        len(target),
        query.name or "query",
        len(query),
        buffer,
    )
    return buffer.getvalue()


def align_units(aligner, targets, queries, indexes, streams=None):
    """Align every (target, query) unit; returns (alignments, workload).

    ``streams``, when given, collects the aligner's ``last_stream``
    summary after each call.
    """
    alignments: list = []
    workload = Workload()
    for target, index in zip(targets, indexes):
        for query in queries:
            result = aligner.align(target, query, index=index)
            alignments.extend(result.alignments)
            workload.merge(result.workload)
            if streams is not None:
                streams.append(aligner.last_stream)
    alignments.sort(key=lambda a: -a.score)
    return alignments, workload


def start_engine(workers: int = 2, engine_class=ExecutionEngine):
    """A process pool whose workers are all running when this returns."""
    engine = engine_class(workers)
    futures = [engine.submit(time.perf_counter) for _ in range(workers)]
    for future in futures:
        future.result()
    return engine


def warm_up(engine=None) -> None:
    """Align a small close pair serially, with LASTZ and on ``engine``
    (when given).

    The first calls pay one-off costs (lazy imports in the parent and
    in freshly forked workers, allocator growth) that a user's steady
    state does not; measured runs start after this.
    """
    pair = make_species_pair(
        4_000, 0.11, np.random.default_rng(0), alignable_fraction=0.35
    )
    aligners = [DarwinWGA(), LastzAligner()]
    if engine is not None:
        aligners.append(DarwinWGA(engine=engine))
    for aligner in aligners:
        aligner.align(pair.target.genome, pair.query.genome)


class CountingEngine(ExecutionEngine):
    """Counts anchors sent to workers for extension (speculation)."""

    dispatched_extensions = 0

    def dispatch(self, fn, /, *args, key: str = ""):
        if key.startswith("extend:"):
            # extend_batch_task(target, query, batch, scoring, params, ...)
            self.dispatched_extensions += len(args[2])
        return super().dispatch(fn, *args, key=key)


def parallel_metrics(pool_start_s: float, dispatched: int, counts: Counter,
                     summaries: List[Dict]) -> Dict[str, float]:
    """Engine metrics of workers=2 runs, from each call's ``last_stream``.

    The speculation ratio is anchors dispatched for extension over the
    extensions the serial run made (1.0: nothing wasted).
    """
    extended = counts["darwin.anchors"] - counts["darwin.absorbed_anchors"]
    window = sum(s["window_seconds"] * s["slots"] for s in summaries)
    busy = sum(s["busy_slot_seconds"] for s in summaries)
    return {
        "parallel.pool_start_s": pool_start_s,
        "parallel.occupancy": _ratio(busy, window),
        "parallel.idle_tail_s": sum(s["idle_tail_seconds"] for s in summaries),
        "parallel.speculation_ratio": (
            dispatched / extended if extended else 1.0
        ),
    }


def _untraced(files, name: str) -> str:
    """One pair through the library's own serial aligner: the rebuild's
    steps, untraced.  Returns the MAF digest."""
    aligner = DarwinWGA() if name == "darwin" else LastzAligner()
    targets, queries = load(files)
    alignments, workload = align_units(
        aligner, targets, queries, build_indexes(targets)
    )
    build_chains(alignments)
    if name == "darwin":
        simulate(workload, default_fpga())
    return digest(maf_text(alignments, targets, queries))


def _extend(clock, layer, target, query, anchors, scoring, params,
            granularity, workload, keep_tile_traces):
    """Serial extension with anchor absorption (one strand)."""
    alignments: list = []
    seen: set = set()
    grid = CoverageGrid(granularity)
    with clock(layer):
        for anchor in anchors:
            if grid.absorbs(anchor):
                workload.absorbed_anchors += 1
                continue
            extension = gact_x_extend(target, query, anchor, scoring, params)
            workload.extension_tiles += extension.tile_count
            workload.extension_cells += extension.cells
            if keep_tile_traces:
                workload.extension_tile_traces.extend(extension.tiles)
            alignment = extension.alignment
            if alignment is not None:
                grid.add_alignment(alignment)
                span = (
                    alignment.target_start,
                    alignment.target_end,
                    alignment.query_start,
                    alignment.query_end,
                )
                if span not in seen:
                    seen.add(span)
                    alignments.append(alignment)
    return alignments


def _seed_filter(clock, name, config, target, query, index, strand, counts):
    """One strand's seeding and filtering; returns (anchors, workload)."""
    if name == "darwin":
        with clock("seed.dsoft"):
            seeding = dsoft_seed(index, query, config.dsoft)
        with clock("core.gapped_filter"):
            filtered = gapped_filter(
                target,
                query,
                seeding.target_positions,
                seeding.query_positions,
                config.scoring,
                config.filtering,
                strand=strand,
            )
        tiles = filtered.tiles
    else:
        with clock("seed.all_hits"):
            seeding = all_seed_hits(index, query, seed_limit=config.seed_limit)
        with clock("lastz.ungapped_filter"):
            filtered = ungapped_filter(
                target,
                query,
                seeding.target_positions,
                seeding.query_positions,
                config.scoring,
                config.filtering,
                strand=strand,
            )
        tiles = filtered.hits
    counts[f"{name}.seed_hits"] += seeding.raw_hit_count
    counts[f"{name}.candidates"] += seeding.candidate_count
    workload = Workload(
        seed_hits=seeding.raw_hit_count,
        filter_tiles=tiles,
        filter_cells=filtered.cells,
        anchors=len(filtered.anchors),
    )
    anchors = sorted(filtered.anchors, key=lambda a: -a.filter_score)
    return anchors, workload


def _traced(files, name: str, clock: LayerClock, counts: Counter):
    """One pair through the rebuilt serial pipeline, a span around every
    layer call.  Returns (MAF digest, chain matched bp)."""
    config = DarwinWGAConfig() if name == "darwin" else LastzConfig()
    platform = default_fpga()
    with clock("genome.read_fasta"):
        targets, queries = load(files)
    with clock("seed.index_build"):
        indexes = [SeedIndex.build(target, config.seed) for target in targets]
    layer = "core.gact_x" if name == "darwin" else "lastz.extend"
    strands = (1, -1) if config.both_strands else (1,)
    alignments: list = []
    total = Workload()
    for target, index in zip(targets, indexes):
        for query in queries:
            unit: list = []
            for strand in strands:
                oriented = query if strand == 1 else query.reverse_complement()
                anchors, workload = _seed_filter(
                    clock, name, config, target, oriented, index, strand,
                    counts,
                )
                unit.extend(
                    _extend(
                        clock, layer, target, oriented, anchors,
                        config.scoring, config.extension,
                        config.absorb_granularity, workload,
                        keep_tile_traces=name == "darwin",
                    )
                )
                total.merge(workload)
            unit.sort(key=lambda a: -a.score)
            alignments.extend(unit)
    alignments.sort(key=lambda a: -a.score)
    with clock("chain.build"):
        chains = build_chains(alignments)
    if name == "darwin":
        with clock("hw.simulate"):
            report = simulate(total, platform)
        clock_hz = platform.array_config.clock_hz
        counts["hw.filter_cycles"] += round(
            report.filter.makespan_seconds * clock_hz
        )
        counts["hw.extension_cycles"] += round(
            report.extension.makespan_seconds * clock_hz
        )
    with clock("io.write_maf"):
        text = maf_text(alignments, targets, queries)
    counts["chain.chains"] += len(chains)
    for field in (
        "filter_tiles",
        "filter_cells",
        "anchors",
        "absorbed_anchors",
        "extension_tiles",
        "extension_cells",
    ):
        counts[f"{name}.{field}"] += getattr(total, field)
    return digest(text), total_matches(chains)


@dataclass
class TracePass:
    """Both serial pipelines over every pair, untraced and traced."""

    clock: LayerClock = field(default_factory=LayerClock)
    counts: Counter = field(default_factory=Counter)
    untraced_s: float = 0.0
    traced_s: float = 0.0
    #: aligner -> one MAF digest per pair.
    untraced: Dict[str, List[str]] = field(
        default_factory=lambda: {name: [] for name in ALIGNERS}
    )
    traced: Dict[str, List[str]] = field(
        default_factory=lambda: {name: [] for name in ALIGNERS}
    )
    #: aligner -> chain matched bp per pair (Table III's measure).
    matched: Dict[str, List[int]] = field(
        default_factory=lambda: {name: [] for name in ALIGNERS}
    )


def trace_pass(pair_files) -> TracePass:
    """Run each pair and aligner both untraced and traced, alternating
    which goes first, so machine-speed drift and warm caches fall on
    both sides of the overhead."""
    run = TracePass()
    jobs = [(files, name) for files in pair_files for name in ALIGNERS]
    for number, (files, name) in enumerate(jobs):
        for traced in ((False, True) if number % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced:
                text_digest, matched = _traced(
                    files, name, run.clock, run.counts
                )
                run.traced_s += time.perf_counter() - start
                run.traced[name].append(text_digest)
                run.matched[name].append(matched)
            else:
                run.untraced[name].append(_untraced(files, name))
                run.untraced_s += time.perf_counter() - start
    return run


#: The wga workloads send no service requests.
IDLE_SERVICE = {
    "service.submit_s": 0.0,
    "service.queue_wait_s": 0.0,
    "service.run_s": 0.0,
    "service.shed": 0,
    "service.generator_lag_s": 0.0,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(run: TracePass) -> Dict[str, float]:
    """Per-layer metrics of one trace pass."""
    clock, counts, matched = run.clock, run.counts, run.matched
    seconds = clock.seconds
    darwin = {key[7:]: value for key, value in counts.items()
              if key.startswith("darwin.")}
    lastz = {key[6:]: value for key, value in counts.items()
             if key.startswith("lastz.")}
    extended = darwin["anchors"] - darwin["absorbed_anchors"]
    return {
        "genome.read_fasta_s": seconds["genome.read_fasta"],
        "seed.index_build_s": seconds["seed.index_build"],
        "seed.dsoft_s": seconds["seed.dsoft"],
        "seed.all_hits_s": seconds["seed.all_hits"],
        "seed.hits": darwin["seed_hits"],
        "seed.candidates": darwin["candidates"],
        "core.gapped_filter_s": seconds["core.gapped_filter"],
        "core.filter_tiles": darwin["filter_tiles"],
        "core.filter_tiles_per_call": _ratio(
            darwin["filter_tiles"], clock.calls["core.gapped_filter"]
        ),
        "core.filter_cells_per_s": _ratio(
            darwin["filter_cells"], seconds["core.gapped_filter"]
        ),
        "core.filter_pass_ratio": _ratio(
            darwin["anchors"], darwin["filter_tiles"]
        ),
        "core.gact_x_s": seconds["core.gact_x"],
        "core.extension_cells": darwin["extension_cells"],
        "core.extension_cells_per_s": _ratio(
            darwin["extension_cells"], seconds["core.gact_x"]
        ),
        "core.extension_tiles_per_anchor": _ratio(
            darwin["extension_tiles"], extended
        ),
        "core.absorbed_ratio": _ratio(
            darwin["absorbed_anchors"], darwin["anchors"]
        ),
        "core.matched_bp": sum(matched["darwin"]),
        "lastz.ungapped_filter_s": seconds["lastz.ungapped_filter"],
        "lastz.extend_s": seconds["lastz.extend"],
        "lastz.filter_pass_ratio": _ratio(
            lastz["anchors"], lastz["filter_tiles"]
        ),
        "lastz.matched_bp": sum(matched["lastz"]),
        "chain.build_s": seconds["chain.build"],
        "chain.chains": counts["chain.chains"],
        "hw.simulate_s": seconds["hw.simulate"],
        "hw.filter_cycles": counts["hw.filter_cycles"],
        "hw.extension_cycles": counts["hw.extension_cycles"],
        "io.write_maf_s": seconds["io.write_maf"],
        "traced_s": run.traced_s,
        "unattributed_s": remainder(run.traced_s, seconds),
        "trace_overhead_s": run.traced_s - run.untraced_s,
    }


def quality_metrics(workload: str, run: TracePass) -> Dict[str, int]:
    """The paper's quality counts, exact: Table III's chain matched bp
    per species pair on ``four-pairs`` and section VI-B's false-positive
    bp (every matched base) on ``null-shuffled``; 0 elsewhere."""
    metrics = {}
    for name in ALIGNERS:
        for index, (pair, _, _) in enumerate(PAIR_SPECS):
            metrics[f"quality.{name}_bp.{pair}"] = (
                run.matched[name][index] if workload == "four-pairs" else 0
            )
        metrics[f"quality.{name}_false_positive_bp"] = (
            sum(run.matched[name]) if workload == "null-shuffled" else 0
        )
    return metrics
