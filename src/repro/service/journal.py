"""Crash-safe job journal: fsync'd append-only JSONL events.

The serving daemon must survive ``kill -9`` without losing or
double-running work, which is the durability problem
:class:`~repro.resilience.checkpoint.RunManifest` solves for
chromosome-pair units, so the journal is the same record file
(:mod:`repro.resilience.records`: a crash loses at most the line in
flight, and a torn or corrupted line is skipped, never trusted).
Events are append-only facts (``submitted`` / ``started`` / ``done`` /
``failed`` / ``expired`` / ``cancelled``); the current job table is a
pure fold over them (:func:`repro.service.jobs.replay_jobs`), so replay
after a crash reconstructs exactly the pre-crash state: completed jobs
keep their recorded results, in-flight jobs go back to the queue and
resume from their per-job checkpoints.

Appends may come from the HTTP loop thread (admission) and the runner
thread (execution) concurrently; the journal serialises them under a
lock.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Union

from ..resilience.records import append_record, create_records, load_records

__all__ = ["JOURNAL_VERSION", "JobJournal", "JournalError"]

#: Bump when the journal format changes; old journals are refused.
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal file is unusable (bad header, wrong version)."""


class JobJournal:
    """Append-only event log for one serving state directory."""

    def __init__(self, path: Union[str, Path], header: Dict) -> None:
        self.path = Path(path)
        self.header = header
        self.events: List[Dict] = []
        self.skipped_records = 0
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------
    @classmethod
    def create(cls, path: Union[str, Path]) -> "JobJournal":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        header = {"kind": "header", "version": JOURNAL_VERSION}
        create_records(path, header)
        return cls(path, header)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "JobJournal":
        """Parse an existing journal, skipping torn/corrupt records.

        A skipped event never durably happened.  For ``submitted`` the
        client saw no ack (the journal is written before the HTTP
        response); for ``done`` the job simply re-runs from its
        checkpoint.
        """
        header, events, skipped = load_records(
            path,
            label="journal",
            version=JOURNAL_VERSION,
            kind="event",
            error=JournalError,
            parse=lambda record, payload: json.loads(payload.decode("utf-8")),
        )
        journal = cls(path, header)
        journal.skipped_records = skipped
        journal.events = events
        return journal

    @classmethod
    def attach(cls, path: Union[str, Path]) -> "JobJournal":
        """Open for serving: load when present, else start fresh."""
        path = Path(path)
        if path.exists():
            try:
                return cls.load(path)
            except JournalError:
                # A crash during create() can leave a torn header only
                # (load chops it to zero bytes): nothing durable was
                # ever acknowledged, so starting fresh is sound.
                if path.stat().st_size == 0:
                    return cls.create(path)
                raise
        return cls.create(path)

    # -- appending ---------------------------------------------------
    def append(self, event: Dict) -> Dict:
        """Durably append one event (flushed + fsynced) and return it."""
        payload = json.dumps(event, sort_keys=True).encode("utf-8")
        with self._lock:
            append_record(self.path, "event", payload)
            self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)
