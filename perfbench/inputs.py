"""Seeded workload inputs, written as the FASTA files the program reads.

The program under test never sees the seed: the benchmark turns
``--seed`` into FASTA files, and every measured step starts by parsing
them.  The same seed always yields byte-identical files.

Why each workload exists — a change that speeds up one layer should
show on one workload and be predicted flat on another:

``four-pairs``
    The paper's sensitivity setting (Table III): synthetic stand-ins
    for dm6-droSim1, dm6-droYak2, dm6-dp4 and ce11-cb4 at 30 kbp, run
    through serial Darwin, serial LASTZ and Darwin at workers=2.
    GACT-X extension does most of the work here, so extension and
    traceback-memory changes show on ``darwin_s`` and ``peak_rss_mb``.
``null-shuffled``
    The section V-E null model: the ce11-cb4 model at 90 kbp with the
    target 2-mer-shuffled, so every aligned base is a false positive
    (section VI-B).  Seeding and filtering do all the work and
    extension none: a filter change shows its full effect here, and an
    extension change must show no change.
``serve-mixed``
    ``repro serve --workers 2`` fed open-loop with a fixed mix of
    Darwin, LASTZ and chain jobs over eight small 2-chromosome
    distant-pair assemblies.  The only workload where the service layer (HTTP,
    fsync'd journal, scheduler) and the parallel engine dominate and
    the kernels matter little; chain jobs never touch the engine, so
    they separate service cost from engine cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro.genome import make_species_pair, shuffle_preserving_kmers
from repro.genome import write_fasta

WORKLOADS = ("four-pairs", "null-shuffled", "serve-mixed")

#: Stand-ins for the paper's four species pairs, closest first:
#: (name, substitutions/site, stream id mixed with ``--seed``).
PAIR_SPECS = (
    ("dm6-droSim1", 0.11, 42),
    ("dm6-droYak2", 0.23, 43),
    ("dm6-dp4", 0.55, 44),
    ("ce11-cb4", 1.32, 45),
)

#: Mosaic model shared with ``benchmarks/conftest.py``: ~35% of each
#: genome alignable in ~300 bp islands.
PAIR_MODEL = dict(
    alignable_fraction=0.35,
    island_mean_length=300,
    island_distance_cap=0.4,
    indel_per_substitution=0.14,
    exon_indel_per_substitution=0.05,
)

PAIR_BP = 30_000
PAIR_EXONS = 14
NULL_BP = 90_000
NULL_EXONS = 14
SERVE_ASSEMBLIES = 8
SERVE_CHROMOSOMES = 2
SERVE_CHROMOSOME_BP = 2_000


@dataclass(frozen=True)
class PairFiles:
    """One target/query assembly pair on disk."""

    name: str
    target: Path
    query: Path


def _write_pair(directory: Path, name: str, targets, queries) -> PairFiles:
    files = PairFiles(
        name, directory / f"{name}.target.fa", directory / f"{name}.query.fa"
    )
    write_fasta(targets, files.target)
    write_fasta(queries, files.query)
    return files


def write_inputs(workload: str, seed: int, directory: Path) -> List[PairFiles]:
    """Write ``workload``'s inputs for ``seed`` under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "four-pairs":
        pairs = []
        for name, distance, stream in PAIR_SPECS:
            pair = make_species_pair(
                PAIR_BP,
                distance,
                np.random.default_rng([seed, stream]),
                exon_count=PAIR_EXONS,
                **PAIR_MODEL,
            )
            pairs.append(
                _write_pair(
                    directory, name, [pair.target.genome], [pair.query.genome]
                )
            )
        return pairs
    if workload == "null-shuffled":
        name, distance, stream = PAIR_SPECS[-1]
        rng = np.random.default_rng([seed, stream])
        pair = make_species_pair(
            NULL_BP, distance, rng, exon_count=NULL_EXONS, **PAIR_MODEL
        )
        shuffled = shuffle_preserving_kmers(pair.target.genome, rng, k=2)
        return [
            _write_pair(
                directory, f"{name}-null", [shuffled], [pair.query.genome]
            )
        ]
    if workload == "serve-mixed":
        name, distance, stream = PAIR_SPECS[-1]
        assemblies = []
        for number in range(SERVE_ASSEMBLIES):
            rng = np.random.default_rng([seed, stream, number])
            targets, queries = [], []
            for chromosome in range(1, SERVE_CHROMOSOMES + 1):
                pair = make_species_pair(
                    SERVE_CHROMOSOME_BP,
                    distance,
                    rng,
                    exon_count=2,
                    target_name=f"target_chr{chromosome}",
                    query_name=f"query_chr{chromosome}",
                    **PAIR_MODEL,
                )
                targets.append(pair.target.genome)
                queries.append(pair.query.genome)
            assemblies.append(
                _write_pair(directory, f"assembly{number}", targets, queries)
            )
        return assemblies
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(pair_files: List[PairFiles]) -> str:
    """SHA-256 over every input file, in order."""
    digest = hashlib.sha256()
    for files in pair_files:
        for path in (files.target, files.query):
            digest.update(path.read_bytes())
    return digest.hexdigest()
