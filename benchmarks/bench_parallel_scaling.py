"""Streamed scheduling of the parallel extension stage.

Runs the most distant (most extension-heavy) species pair end-to-end at
several worker counts through the streamed bounded-queue dataflow (the
only extension scheduler), asserting every run is byte-identical to
serial, and records the study into ``BENCH_PIPELINE.json`` under
``parallel_scaling``:

* per-worker-count wall-clock (best of ``ROUNDS`` to damp scheduler
  noise) under ``modes.streamed``,
* ``idle_tail_seconds`` / ``occupancy`` from the schedule's
  :class:`repro.obs.occupancy.StreamStats`,
* the ceilings ``repro bench check`` gates against at workers=2.

The ceilings keep the bar the earlier barrier-vs-streamed gate set
(streamed >= 1.3x faster than the barrier schedule, and >= 50% less
idle tail), fixed against the barrier numbers committed in
``benchmarks/baseline.json`` (w2: 3.787 s wall, 0.748 s idle tail)
before the barrier path was removed: 3.787 / 1.3 and 0.5 x 0.748.
"""

import json
import time

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.genome import make_species_pair

from .conftest import (
    BENCH_PIPELINE_PATH,
    EXON_COUNT,
    GENOME_LENGTH,
    PAIR_MODEL,
    PAIR_SPECS,
    print_table,
)

WORKER_COUNTS = (1, 2, 4)

#: Repeats per worker count; best wall-clock is recorded.
ROUNDS = 2

#: Gated by ``repro bench check`` against the current artifact.
TARGETS = {
    "streamed_wall_seconds": 2.913,
    "streamed_idle_tail_seconds": 0.374,
    "at_workers": "2",
}


def _run(target, query, workers):
    """Best-of-ROUNDS wall clock; returns stream stats of the fastest
    round alongside the result."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        with DarwinWGA(workers=workers) as aligner:
            result = aligner.align(target, query)
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, result, aligner.last_stream)
    return best


def _record_scaling(pair_name, study):
    """Merge the scaling study into the aggregate artifact."""
    try:
        artifact = json.loads(BENCH_PIPELINE_PATH.read_text())
    except (OSError, ValueError):
        artifact = {"version": 1}
    artifact["parallel_scaling"] = dict(
        study,
        pair=pair_name,
        genome_length=GENOME_LENGTH,
        targets=TARGETS,
    )
    BENCH_PIPELINE_PATH.write_text(
        json.dumps(artifact, indent=2, sort_keys=True)
    )


@pytest.mark.benchmark(group="parallel_scaling")
def test_parallel_scaling(benchmark):
    name, distance, seed = PAIR_SPECS[-1]
    pair = make_species_pair(
        GENOME_LENGTH,
        distance,
        np.random.default_rng(seed),
        exon_count=EXON_COUNT,
        **PAIR_MODEL,
    )
    target, query = pair.target.genome, pair.query.genome

    def sweep():
        serial_wall, serial, _ = _run(target, query, 1)
        streamed = {}
        identical = True
        for workers in WORKER_COUNTS[1:]:
            wall, result, stream = _run(target, query, workers)
            identical = identical and (
                result.alignments == serial.alignments
            )
            streamed[str(workers)] = {
                "wall_seconds": wall,
                "idle_tail_seconds": stream["idle_tail_seconds"],
                "occupancy": stream["occupancy"],
                "peak_in_flight": stream["peak_in_flight"],
                "backpressure_stalls": stream["backpressure_stalls"],
                "dispatched_tasks": stream["dispatched_tasks"],
            }
        return serial_wall, streamed, identical

    serial_wall, streamed, identical = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    assert identical, "a parallel run changed the output"

    _record_scaling(
        name,
        {
            "serial_seconds": serial_wall,
            "modes": {"streamed": streamed},
            "identical_output": identical,
        },
    )

    rows = [
        (
            w,
            f"{streamed[w]['wall_seconds']:.2f}",
            f"{serial_wall / streamed[w]['wall_seconds']:.2f}x",
            f"{streamed[w]['idle_tail_seconds']:.3f}",
            f"{streamed[w]['occupancy']:.2f}",
        )
        for w in sorted(streamed)
    ]
    print_table(
        f"Streamed scaling ({name}, {GENOME_LENGTH:,} bp, "
        f"serial {serial_wall:.2f}s)",
        ("workers", "wall s", "speedup", "idle tail s", "occupancy"),
        rows,
    )
