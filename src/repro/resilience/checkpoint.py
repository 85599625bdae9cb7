"""Append-only run manifests: checkpoint/resume for long alignments.

A whole-assembly alignment decomposes into independent (target
chromosome, query chromosome) units — the explicit dataflow that makes
seed-filter-extend pipelines restartable.  :class:`RunManifest`
journals each completed unit to a JSON-lines file as it finishes
(flushed and fsynced, so a crash loses at most the unit in flight), and
``--resume`` replays the journal instead of recomputing.

Safety properties:

* the header pins digests of the aligner, its configuration and both
  input assemblies; :meth:`verify` refuses to resume against different
  inputs or parameters;
* every unit record carries a SHA-256 over its payload — torn or
  corrupted lines (including a partially written final line from the
  crash itself) are skipped, never trusted (the shared record format of
  :mod:`repro.resilience.records`);
* records are pure values keyed by unit, so resuming interleaves
  journaled and freshly computed units in the original serial order and
  the final output is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Dict, Union

from .records import append_record, create_records, load_records

__all__ = [
    "MANIFEST_VERSION",
    "ManifestError",
    "ManifestMismatch",
    "RunManifest",
    "config_digest",
    "sequences_digest",
]

#: Bump when the journal format changes; old manifests are refused.
MANIFEST_VERSION = 1


class ManifestError(RuntimeError):
    """The manifest file is unusable (bad header, wrong version)."""


class ManifestMismatch(ManifestError):
    """The manifest was written by a different run configuration."""


def config_digest(config) -> str:
    """Digest of an aligner configuration object.

    Configurations are (nested) frozen dataclasses; their pickled form
    is stable for identical parameter values within a Python version,
    and a spurious mismatch merely refuses to resume — the safe
    direction.
    """
    return hashlib.sha256(
        pickle.dumps(config, protocol=4)
    ).hexdigest()


def sequences_digest(sequences) -> str:
    """Digest of an ordered collection of named sequences.

    Works on any iterable of objects with ``name`` and ``codes``
    (an :class:`~repro.genome.assembly.Assembly`, a list of
    :class:`~repro.genome.sequence.Sequence`), hashing names and code
    arrays in order.
    """
    digest = hashlib.sha256()
    for seq in sequences:
        digest.update((seq.name or "").encode())
        digest.update(b"\0")
        digest.update(seq.codes.tobytes())
        digest.update(b"\0")
    return digest.hexdigest()


class RunManifest:
    """Journal of completed work units for one configured run.

    Construction goes through :meth:`create` (start a fresh journal) or
    :meth:`load` (parse an existing one); :meth:`attach` picks between
    them for the resume workflow.
    """

    def __init__(self, path: Union[str, Path], header: Dict) -> None:
        self.path = Path(path)
        self.header = header
        self._units: Dict[str, bytes] = {}
        self.skipped_records = 0

    # -- construction ------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        *,
        aligner: str,
        config: str,
        target: str,
        query: str,
    ) -> "RunManifest":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        header = {
            "kind": "header",
            "version": MANIFEST_VERSION,
            "aligner": aligner,
            "config": config,
            "target": target,
            "query": query,
        }
        create_records(path, header)
        return cls(path, header)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Parse an existing journal, skipping torn/corrupt records."""
        header, units, skipped = load_records(
            path,
            label="manifest",
            version=MANIFEST_VERSION,
            kind="unit",
            error=ManifestError,
            parse=lambda record, payload: (record["unit"], payload),
        )
        manifest = cls(path, header)
        manifest.skipped_records = skipped
        # A torn tail or corrupted record is simply recomputed.
        manifest._units = dict(units)
        return manifest

    @classmethod
    def attach(
        cls,
        path: Union[str, Path],
        *,
        aligner: str,
        config: str,
        target: str,
        query: str,
        resume: bool,
    ) -> "RunManifest":
        """Open for a run: load-and-verify when resuming, else create.

        Resuming against a missing manifest starts a fresh journal (the
        first attempt of a run that plans to be resumable later).
        """
        path = Path(path)
        if resume and path.exists():
            manifest = cls.load(path)
            manifest.verify(
                aligner=aligner, config=config, target=target, query=query
            )
            return manifest
        return cls.create(
            path, aligner=aligner, config=config, target=target, query=query
        )

    # -- integrity ---------------------------------------------------
    def verify(
        self, *, aligner: str, config: str, target: str, query: str
    ) -> None:
        """Refuse to resume a journal from a different run setup."""
        expected = {
            "aligner": aligner,
            "config": config,
            "target": target,
            "query": query,
        }
        for field_name, value in expected.items():
            recorded = self.header.get(field_name)
            if recorded != value:
                raise ManifestMismatch(
                    f"{self.path}: manifest {field_name} digest "
                    f"{recorded!r} does not match this run ({value!r}) — "
                    "inputs or configuration changed; refusing to resume"
                )

    # -- journal access ----------------------------------------------
    def __contains__(self, unit: str) -> bool:
        return unit in self._units

    def __len__(self) -> int:
        return len(self._units)

    @property
    def units(self):
        """Completed unit keys, in journal order."""
        return list(self._units)

    def result_for(self, unit: str):
        """Unpickle the journaled result of a completed unit."""
        return pickle.loads(self._units[unit])

    def record(self, unit: str, result) -> None:
        """Append one completed unit (flushed + fsynced)."""
        payload = pickle.dumps(result, protocol=4)
        append_record(self.path, "unit", payload, unit=unit)
        self._units[unit] = payload
