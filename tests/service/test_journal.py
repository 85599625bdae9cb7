"""Crash-safety of the job journal: torn tails, replay, idempotence."""

import json
import shutil
from pathlib import Path

import pytest

from repro.service import JobJournal, JournalError, replay_jobs

EVENTS = [
    {"event": "submitted", "id": "job-000000", "seq": 0, "kind": "align",
     "priority": "default", "deadline": None,
     "spec": {"target": "t.fa", "query": "q.fa"}},
    {"event": "started", "id": "job-000000"},
    {"event": "done", "id": "job-000000", "summary": {"alignments": 3}},
    {"event": "submitted", "id": "job-000001", "seq": 1, "kind": "align",
     "priority": "batch", "deadline": None,
     "spec": {"target": "t.fa", "query": "q.fa"}},
    {"event": "started", "id": "job-000001"},
]


def write_journal(path, events):
    journal = JobJournal.create(path)
    for event in events:
        journal.append(event)
    return journal


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS)
        loaded = JobJournal.load(path)
        assert loaded.events == EVENTS
        assert loaded.skipped_records == 0

    def test_attach_creates_then_loads(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert not path.exists()
        journal = JobJournal.attach(path)
        assert path.exists()
        journal.append(EVENTS[0])
        again = JobJournal.attach(path)
        assert again.events == [EVENTS[0]]

    def test_len_counts_events(self, tmp_path):
        journal = write_journal(tmp_path / "j.jsonl", EVENTS)
        assert len(journal) == len(EVENTS)


class TestTornTail:
    def test_truncated_mid_record_skips_only_the_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS)
        raw = path.read_bytes()
        # Cut the file mid-way through the final record, as kill -9
        # during the final write would.
        path.write_bytes(raw[: len(raw) - 17])
        loaded = JobJournal.load(path)
        assert loaded.events == EVENTS[:-1]
        assert loaded.skipped_records == 1

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 5])
    def test_every_truncation_point_keeps_the_prefix(self, tmp_path, cut):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS)
        lines = path.read_bytes().splitlines(keepends=True)
        # Truncate exactly at a record boundary: a clean prefix, no
        # torn line at all.
        path.write_bytes(b"".join(lines[:cut]))
        loaded = JobJournal.load(path)
        assert loaded.events == EVENTS[: cut - 1]
        assert loaded.skipped_records == 0

    def test_corrupted_payload_is_skipped_not_trusted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        # Flip one character of the base64 payload; the checksum no
        # longer matches, so the record must be dropped.
        payload = record["payload"]
        record["payload"] = payload[:-2] + ("A" if payload[-2] != "A" else "B") + payload[-1]
        lines[2] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        loaded = JobJournal.load(path)
        assert loaded.skipped_records == 1
        assert EVENTS[1] not in loaded.events
        assert loaded.events[0] == EVENTS[0]

    def test_appends_continue_after_torn_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS[:2])
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        journal = JobJournal.load(path)
        assert journal.events == EVENTS[:1]
        journal.append(EVENTS[2])
        reloaded = JobJournal.load(path)
        # Loading chopped the torn bytes, so the append started a fresh
        # line instead of merging into the partial record.
        assert reloaded.events == [EVENTS[0], EVENTS[2]]
        assert reloaded.skipped_records == 0


class TestHeaderValidation:
    def test_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            JobJournal.load(path)

    def test_garbage_header_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError, match="header"):
            JobJournal.load(path)

    def test_wrong_version_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        with pytest.raises(JournalError, match="version"):
            JobJournal.load(path)


class TestReplay:
    def test_done_jobs_keep_results_inflight_requeue(self, tmp_path):
        jobs = replay_jobs(EVENTS)
        assert jobs["job-000000"].state == "done"
        assert jobs["job-000000"].summary == {"alignments": 3}
        # started but never done: the crash interrupted it.
        assert jobs["job-000001"].state == "queued"

    def test_terminal_events_apply(self):
        events = list(EVENTS[:1]) + [
            {"event": "failed", "id": "job-000000", "error": "boom"}
        ]
        jobs = replay_jobs(events)
        assert jobs["job-000000"].state == "failed"
        assert jobs["job-000000"].error == "boom"
        events[-1] = {"event": "expired", "id": "job-000000"}
        assert replay_jobs(events)["job-000000"].state == "expired"
        events[-1] = {"event": "cancelled", "id": "job-000000"}
        assert replay_jobs(events)["job-000000"].state == "cancelled"

    def test_orphan_events_are_ignored(self):
        # A torn tail can eat a `submitted` but keep later events for
        # the same id (they were separate appends): replay must not
        # invent half-known jobs.
        jobs = replay_jobs([{"event": "started", "id": "ghost"}])
        assert jobs == {}


#: A version-1 journal as the format was first written (the first three
#: EVENTS); the bytes a journal puts on disk must never drift from it.
V1_JOURNAL = Path(__file__).parent / "data" / "job_journal_v1.jsonl"


class TestOnDiskFormat:
    def test_loads_a_version_1_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        shutil.copyfile(V1_JOURNAL, path)
        loaded = JobJournal.load(path)
        assert loaded.header == {"kind": "header", "version": 1}
        assert loaded.events == EVENTS[:3]
        assert loaded.skipped_records == 0

    def test_writes_version_1_bytes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS[:3])
        assert path.read_bytes() == V1_JOURNAL.read_bytes()
