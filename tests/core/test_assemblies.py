"""Whole-assembly alignment tests."""

import numpy as np
import pytest

from repro.chain import build_chains
from repro.core import align_assemblies
from repro.core import stream as stream_module
from repro.genome import Assembly, Sequence
from repro.genome.synthesis import markov_genome
from repro.lastz import LastzAligner
from repro.obs import TelemetryOptions, Tracer
from repro.obs.progress import NullProgress
from repro.resilience import FaultPlan, RecoveryStats, ResilienceOptions


@pytest.fixture(scope="module")
def assembly_pair():
    rng = np.random.default_rng(77)
    genome = markov_genome(16000, rng, name="anc")
    # two "chromosomes" per species, sharing content pairwise
    target = Assembly(
        name="asmT",
        chromosomes=[
            Sequence(genome.codes[:8000], name="chr1"),
            Sequence(genome.codes[8000:], name="chr2"),
        ],
    )
    # query chromosomes swap order so cross-chromosome homology exists
    query = Assembly(
        name="asmQ",
        chromosomes=[
            Sequence(genome.codes[8000:], name="chrA"),
            Sequence(genome.codes[:8000], name="chrB"),
        ],
    )
    return target, query


class TestAlignAssemblies:
    def test_all_chromosome_pairs_aligned(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        pairs = {
            (a.target_name, a.query_name) for a in result.alignments
        }
        assert ("chr1", "chrB") in pairs
        assert ("chr2", "chrA") in pairs

    def test_chains_partition_by_chromosome(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        chains = build_chains(result.alignments)
        for chain in chains:
            names = {
                (b.target_name, b.query_name) for b in chain.blocks
            }
            assert len(names) == 1

    def test_workload_accumulates(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        assert result.workload.filter_tiles > 0
        assert result.workload.seed_hits > 0

    def test_lastz_aligner_class(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(
            target, query, aligner_class=LastzAligner
        )
        assert result.alignments

    def test_matches_cover_shared_content(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        assert result.total_matches > 15000


class _ProgressRecorder(NullProgress):
    """Records the units of every ``advance`` call."""

    def __init__(self):
        self.advanced = []

    def advance(self, units=0, cells=0):
        self.advanced.append(units)


def _assemblies_span(tracer):
    return next(s for s in tracer.walk() if s.name == "align_assemblies")


class TestSerialIsTheUnitStream:
    """A serial assembly run is the unit stream over the inline
    executor: same progress, faults, index handling and trace shape as
    the serial loop it replaced."""

    def test_progress_advances_once_per_chromosome_pair(self, assembly_pair):
        target, query = assembly_pair
        progress = _ProgressRecorder()
        align_assemblies(
            target, query, telemetry=TelemetryOptions(progress=progress)
        )
        assert progress.advanced == [1, 1, 1, 1]

    def test_stall_plan_injects_nothing(
        self, assembly_pair, tmp_path, monkeypatch
    ):
        target, query = assembly_pair
        sleeps = []
        monkeypatch.setattr(stream_module, "_sleep", sleeps.append)
        options = ResilienceOptions(fault_plan=FaultPlan(5, {"stall": 1.0}))
        align_assemblies(
            target,
            query,
            checkpoint=tmp_path / "run.manifest",
            resilience=options,
        )
        align_assemblies(
            target,
            query,
            checkpoint=tmp_path / "run.manifest",
            resume=True,
            resilience=options,
        )
        assert sleeps == []
        assert options.stats == RecoveryStats(
            journaled_units=4, resumed_units=4
        )

    def test_index_cache_warms_each_target_once(
        self, assembly_pair, tmp_path
    ):
        target, query = assembly_pair
        tracer = Tracer()
        align_assemblies(target, query, tracer=tracer, index_cache=tmp_path)
        span = _assemblies_span(tracer)
        indexes = [c for c in span.children if c.name == "build_index"]
        warmed = [s for s in indexes if "unit" not in s.attrs]
        assert [s.attrs["target"] for s in warmed] == ["chr1", "chr2"]
        assert [s.attrs["cache"] for s in warmed] == ["miss", "miss"]
        # Every unit then loads its target's index as a cache hit.
        loaded = [s for s in indexes if "unit" in s.attrs]
        assert [s.attrs["cache"] for s in loaded] == ["hit"] * 4

    def test_trace_grafts_one_unit_subtree_per_pair(self, assembly_pair):
        target, query = assembly_pair
        tracer = Tracer()
        align_assemblies(target, query, tracer=tracer)
        span = _assemblies_span(tracer)
        assert span.counters["chromosome_pairs"] == 4
        units = [c for c in span.children if "unit" in c.attrs]
        assert [c.name for c in units] == ["align"] * 4
        assert [c.attrs["unit"] for c in units] == [
            "0:chr1|0:chrA",
            "0:chr1|1:chrB",
            "1:chr2|0:chrA",
            "1:chr2|1:chrB",
        ]
