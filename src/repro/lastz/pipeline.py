"""A LASTZ-like whole genome aligner — the paper's software baseline.

The pipeline mirrors LASTZ's default mode: the same 12of19
transition-tolerant seeding as Darwin-WGA but with *every* seed hit
examined individually (no D-SOFT banding), an **ungapped** X-drop filter
at ``hspthresh = 3000``, and gapped extension of qualifying anchors.

Only the seed+filter stage is LASTZ's own: :class:`LastzAligner` is the
shared :class:`~repro.core.pipeline.WholeGenomeAligner` with that stage
bound, so extension runs the same GACT-X tiled engine and scheduler as
Darwin-WGA, with LASTZ's Y-drop parameter.  The paper attributes the
entire sensitivity difference to the filtering stage, so keeping
extension identical between the two pipelines isolates exactly that
variable (and full-memory Y-drop extension over megabase
spans would be equivalent anyway — GACT-X's tiling exists to bound
*hardware* memory, producing the same empirically-optimal alignments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.config import ExtensionParams
from ..core.pipeline import (
    SeedFilterStage,
    WGAResult,
    WholeGenomeAligner,
    Workload,
)
from ..align.matrices import lastz_default
from ..align.scoring import ScoringScheme
from ..genome.sequence import Sequence
from ..seed.dsoft import all_seed_hits
from ..seed.patterns import SpacedSeed
from .ungapped_filter import UngappedFilterParams, ungapped_filter


@dataclass(frozen=True)
class LastzConfig:
    """LASTZ-default configuration (scoring identical to Darwin-WGA)."""

    scoring: ScoringScheme = field(default_factory=lastz_default)
    seed: SpacedSeed = field(default_factory=SpacedSeed)
    filtering: UngappedFilterParams = field(
        default_factory=UngappedFilterParams
    )
    extension: ExtensionParams = field(
        default_factory=lambda: ExtensionParams(threshold=3000)
    )
    both_strands: bool = True
    seed_limit: int = 0
    absorb_granularity: int = 64


def lastz_seed_filter(config, target, query, index, strand, tracer):
    """LASTZ's stage: every seed hit, then the ungapped X-drop filter."""
    seeding = all_seed_hits(
        index, query, seed_limit=config.seed_limit, tracer=tracer
    )
    with tracer.span("ungapped_filter") as filter_span:
        filter_result = ungapped_filter(
            target,
            query,
            seeding.target_positions,
            seeding.query_positions,
            config.scoring,
            config.filtering,
            strand=strand,
        )
        filter_span.inc("filter_tiles", filter_result.hits)
        filter_span.inc("filter_cells", filter_result.cells)
        filter_span.inc("anchors", len(filter_result.anchors))
    workload = Workload(
        seed_hits=seeding.raw_hit_count,
        filter_tiles=filter_result.hits,
        filter_cells=filter_result.cells,
        anchors=len(filter_result.anchors),
    )
    return filter_result.anchors, workload


class LastzAligner(WholeGenomeAligner):
    """Seed / ungapped-filter / extend aligner in LASTZ's default mode.

    Everything but the seed+filter stage is
    :class:`repro.core.pipeline.WholeGenomeAligner`, shared with
    :class:`~repro.core.pipeline.DarwinWGA`.  LASTZ runs never feed the
    hardware model, so extension tile traces are not kept.
    """

    config_class = LastzConfig
    stage = SeedFilterStage(
        "lastz", lastz_seed_filter, keep_tile_traces=False
    )


def align_pair_lastz(
    target: Sequence,
    query: Sequence,
    config: Optional[LastzConfig] = None,
    tracer=None,
    workers: int = 1,
    index_cache=None,
) -> WGAResult:
    """One-call convenience wrapper around :class:`LastzAligner`."""
    with LastzAligner(
        config, tracer=tracer, workers=workers, index_cache=index_cache
    ) as aligner:
        return aligner.align(target, query)
