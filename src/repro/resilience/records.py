"""Crash-safe append-only record files, the format of both durable
journals: checkpoint manifests
(:class:`~repro.resilience.checkpoint.RunManifest`) and the service's
job journal (:class:`~repro.service.journal.JobJournal`).

One JSON object per line (sorted keys), a versioned header first; every
write is flushed and fsynced, so a crash loses at most the line in
flight.  Each record carries its ``kind``, a base64 ``payload`` and a
SHA-256 over the payload: a corrupted record is skipped, never trusted,
and a torn tail is truncated away on load.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Type, Union

__all__ = ["append_record", "create_records", "load_records"]


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _write_line(path: Path, mode: str, obj: Dict) -> None:
    with open(path, mode) as handle:
        handle.write(json.dumps(obj, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def create_records(path: Union[str, Path], header: Dict) -> None:
    """Start a fresh file holding only ``header`` (truncating any old one)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_line(path, "w", header)


def append_record(
    path: Union[str, Path], kind: str, payload: bytes, **fields
) -> None:
    """Durably append one ``kind`` record of ``payload`` plus ``fields``."""
    record = dict(fields)
    record.update(
        kind=kind,
        sha256=_checksum(payload),
        payload=base64.b64encode(payload).decode("ascii"),
    )
    _write_line(Path(path), "a", record)


def load_records(
    path: Union[str, Path],
    *,
    label: str,
    version: int,
    kind: str,
    error: Type[Exception],
    parse: Callable[[Dict, bytes], object],
) -> Tuple[Dict, List[object], int]:
    """Parse a record file; returns ``(header, items, skipped)``.

    ``parse(record, payload)`` turns each verified ``kind`` record into
    an item; a record it rejects (``ValueError``, ``KeyError``) is
    skipped like a malformed or corrupt one.  ``skipped`` counts those
    plus a truncated torn tail.  An unusable header raises ``error``,
    with ``label`` ("manifest", "journal") in the message.
    """
    path = Path(path)
    raw = path.read_bytes()
    skipped = 0
    if raw and not raw.endswith(b"\n"):
        # The crash interrupted the final write mid-line.  Chop the
        # torn bytes now: they can never parse, and leaving them in
        # place would make the next append continue the partial line —
        # merging a good record into garbage that a later load would
        # then skip.
        keep = raw.rfind(b"\n") + 1
        with open(path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
        raw = raw[:keep]
        skipped = 1
    lines = raw.decode("utf-8").splitlines()
    if not lines:
        raise error(f"{path}: empty {label}")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise error(f"{path}: unreadable {label} header")
    if header.get("kind") != "header":
        raise error(f"{path}: first record is not a header")
    if header.get("version") != version:
        raise error(
            f"{path}: unsupported {label} version {header.get('version')!r}"
        )
    items: List[object] = []
    for line in lines[1:]:
        try:
            record = json.loads(line)
            if record.get("kind") != kind:
                raise ValueError(f"not a {kind} record")
            payload = base64.b64decode(record["payload"])
            if _checksum(payload) != record["sha256"]:
                raise ValueError("checksum mismatch")
            items.append(parse(record, payload))
        except (ValueError, KeyError, TypeError, AttributeError):
            # Malformed (even not a JSON object) or corrupt: skipped.
            skipped += 1
    return header, items, skipped
