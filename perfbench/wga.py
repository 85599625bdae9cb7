"""``four-pairs`` and ``null-shuffled``: whole genome alignment runs.

``--trace 0`` times, per pass over the workload's pairs, serial
``DarwinWGA.align``, serial ``LastzAligner.align`` and
``DarwinWGA(workers=2).align``, and repeats whole passes while they fit
in ``--seconds`` (at least one).  ``--trace 1`` runs the library's own
serial pipelines untraced, the workers=2 run, and the traced rebuild
of :mod:`perfbench.pipelines`, and checks all three agree.

A job here is one pass: aligning every pair with each of the three
aligners, passes run back to back (a closed loop), so a job's latency
is the pass's alignment time.  A run holds one to a few passes: too few for
a p90 under the tail rule, so ``job_latency_p90_s`` reports the median,
like ``job_latency_p50_s``.
On null-shuffled every matched base is a false positive (section VI-B).
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List

from repro import DarwinWGA, LastzAligner

from perfbench import pipelines, stats
from perfbench.stats import Outcome
from perfbench.pipelines import CountingEngine, align_units, build_indexes

SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(pair_files, engine_class=pipelines.ExecutionEngine):
    """Parse, index and start the pool, several times; returns the
    median seconds, the loaded pairs and the last (live) engine."""
    seconds, engine = [], None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        start = time.perf_counter()
        loaded = []
        for files in pair_files:
            targets, queries = pipelines.load(files)
            loaded.append((targets, queries, build_indexes(targets)))
        pool_start = time.perf_counter()
        engine = pipelines.start_engine(engine_class=engine_class)
        end = time.perf_counter()
        seconds.append((end - start, end - pool_start))
    return (
        stats.median(s for s, _ in seconds),
        stats.median(p for _, p in seconds),
        loaded,
        engine,
    )


def _digest(alignments, loaded) -> str:
    targets, queries, _ = loaded
    return pipelines.digest(pipelines.maf_text(alignments, targets, queries))


def end_to_end(pair_files, seconds: float, pinned) -> Outcome:
    setup_s, _, loaded_pairs, engine = setup(pair_files)
    passes: List[Dict[str, float]] = []
    outcome = Outcome()
    try:
        pipelines.warm_up(engine)
        start = time.perf_counter()
        while not passes or (
            time.perf_counter() - start + passes[-1]["wall"] <= seconds
        ):
            began = time.perf_counter()
            sums = {"darwin_s": 0.0, "lastz_s": 0.0, "darwin_w2_s": 0.0}
            for index, loaded in enumerate(loaded_pairs):
                outputs: Dict[str, Dict[str, str]] = {"darwin": {}, "lastz": {}}
                for metric, aligner, name in (
                    ("darwin_s", DarwinWGA(), "darwin"),
                    ("lastz_s", LastzAligner(), "lastz"),
                    ("darwin_w2_s", DarwinWGA(engine=engine), "darwin"),
                ):
                    took = time.perf_counter()
                    alignments, _ = align_units(aligner, *loaded)
                    sums[metric] += time.perf_counter() - took
                    outputs[name][metric] = _digest(alignments, loaded)
                for name, found in outputs.items():
                    outcome.check(found, pinned(index, name))
            sums["wall"] = time.perf_counter() - began
            passes.append(sums)
    finally:
        engine.close()
    jobs = [p["darwin_s"] + p["lastz_s"] + p["darwin_w2_s"] for p in passes]
    outcome.metrics = {
        "setup_s": setup_s,
        "darwin_s": stats.median(p["darwin_s"] for p in passes),
        "lastz_s": stats.median(p["lastz_s"] for p in passes),
        "darwin_w2_s": stats.median(p["darwin_w2_s"] for p in passes),
        "job_latency_p50_s": stats.median(jobs),
        "job_latency_p90_s": stats.tail(jobs),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes.append(f"{len(passes)} pass(es) (one job each)")
    return outcome


def parallel_run(loaded_pairs, engine) -> tuple:
    """Darwin at workers=2 over every pair; returns (digests,
    stream summaries)."""
    digests, summaries = [], []
    for loaded in loaded_pairs:
        alignments, _ = align_units(
            DarwinWGA(engine=engine), *loaded, streams=summaries
        )
        digests.append(_digest(alignments, loaded))
    return digests, summaries


def traced(workload: str, pair_files, pinned) -> Outcome:
    """The per-layer run: untraced reference, workers=2, traced rebuild."""
    _, pool_start_s, loaded_pairs, engine = setup(
        pair_files, engine_class=CountingEngine
    )
    try:
        pipelines.warm_up(engine)
        engine.dispatched_extensions = 0
        w2_digests, summaries = parallel_run(loaded_pairs, engine)
        dispatched = engine.dispatched_extensions
    finally:
        engine.close()
    run = pipelines.trace_pass(pair_files)
    outcome = Outcome()
    for index, files in enumerate(pair_files):
        outcome.check(
            {
                "untraced": run.untraced["darwin"][index],
                "workers=2": w2_digests[index],
                "traced": run.traced["darwin"][index],
            },
            pinned(index, "darwin"),
        )
        outcome.check(
            {
                "untraced": run.untraced["lastz"][index],
                "traced": run.traced["lastz"][index],
            },
            pinned(index, "lastz"),
        )
        outcome.notes.append(
            f"matched bp (chains) {files.name}: "
            f"darwin {run.matched['darwin'][index]:,}  "
            f"lastz {run.matched['lastz'][index]:,}"
        )
    outcome.metrics = pipelines.layer_metrics(run)
    outcome.metrics.update(pipelines.quality_metrics(workload, run))
    outcome.metrics.update(
        pipelines.parallel_metrics(
            pool_start_s, dispatched, run.counts, summaries
        )
    )
    outcome.metrics.update(pipelines.IDLE_SERVICE)
    return outcome
