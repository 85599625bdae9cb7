"""Run manifests: journal/replay, torn tails, digest verification."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.genome import markov_genome
from repro.resilience import (
    ManifestError,
    ManifestMismatch,
    RunManifest,
    config_digest,
    sequences_digest,
)


def make_manifest(path, **overrides):
    fields = dict(
        aligner="DarwinWGA", config="c0", target="t0", query="q0"
    )
    fields.update(overrides)
    return RunManifest.create(path, **fields)


class TestDigests:
    def test_config_digest_tracks_values(self):
        from repro.core import DarwinWGAConfig

        base = config_digest(DarwinWGAConfig())
        assert config_digest(DarwinWGAConfig()) == base
        assert (
            config_digest(DarwinWGAConfig(both_strands=False)) != base
        )

    def test_sequences_digest_tracks_content_order_and_names(self, rng):
        a = markov_genome(300, rng, name="a")
        b = markov_genome(300, rng, name="b")
        base = sequences_digest([a, b])
        assert sequences_digest([a, b]) == base
        assert sequences_digest([b, a]) != base
        renamed = markov_genome(300, np.random.default_rng(0), name="a2")
        assert sequences_digest([a, renamed]) != base


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("0:t|0:q", {"alignments": [1, 2]})
        manifest.record("0:t|1:q", {"alignments": []})
        loaded = RunManifest.load(path)
        assert len(loaded) == 2
        assert loaded.units == ["0:t|0:q", "0:t|1:q"]
        assert "0:t|0:q" in loaded
        assert loaded.result_for("0:t|0:q") == {"alignments": [1, 2]}
        assert loaded.skipped_records == 0

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "first")
        manifest.record("u2", "second")
        text = path.read_text()
        # Simulate a crash mid-write of the final record.
        path.write_text(text[: len(text) - 40])
        loaded = RunManifest.load(path)
        assert loaded.units == ["u1"]
        assert loaded.skipped_records == 1

    def test_corrupted_payload_is_skipped(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "value")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"payload": "', '"payload": "AAAA')
        path.write_text("\n".join(lines) + "\n")
        loaded = RunManifest.load(path)
        assert loaded.units == []
        assert loaded.skipped_records == 1

    def test_rejects_missing_or_bad_header(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("")
        with pytest.raises(ManifestError, match="empty"):
            RunManifest.load(empty)
        garbled = tmp_path / "garbled"
        garbled.write_text("not json\n")
        with pytest.raises(ManifestError, match="header"):
            RunManifest.load(garbled)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "run.manifest"
        make_manifest(path)
        text = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(text)
        with pytest.raises(ManifestError, match="version"):
            RunManifest.load(path)

    def test_verify_refuses_different_run(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.verify(
            aligner="DarwinWGA", config="c0", target="t0", query="q0"
        )
        with pytest.raises(ManifestMismatch, match="config"):
            manifest.verify(
                aligner="DarwinWGA",
                config="different",
                target="t0",
                query="q0",
            )
        with pytest.raises(ManifestMismatch, match="target"):
            manifest.verify(
                aligner="DarwinWGA",
                config="c0",
                target="different",
                query="q0",
            )

    def test_attach_resume_loads_and_verifies(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "value")
        resumed = RunManifest.attach(
            path,
            aligner="DarwinWGA",
            config="c0",
            target="t0",
            query="q0",
            resume=True,
        )
        assert resumed.units == ["u1"]
        with pytest.raises(ManifestMismatch):
            RunManifest.attach(
                path,
                aligner="DarwinWGA",
                config="changed",
                target="t0",
                query="q0",
                resume=True,
            )

    def test_attach_resume_without_file_creates(self, tmp_path):
        path = tmp_path / "fresh.manifest"
        manifest = RunManifest.attach(
            path,
            aligner="DarwinWGA",
            config="c0",
            target="t0",
            query="q0",
            resume=True,
        )
        assert path.exists()
        assert len(manifest) == 0

    def test_attach_without_resume_truncates(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "value")
        fresh = RunManifest.attach(
            path,
            aligner="DarwinWGA",
            config="c0",
            target="t0",
            query="q0",
            resume=False,
        )
        assert len(fresh) == 0
        assert len(RunManifest.load(path)) == 0


#: A version-1 manifest as the format was first written; the bytes a
#: manifest puts on disk must never drift from it.
V1_MANIFEST = Path(__file__).parent / "data" / "run_manifest_v1.jsonl"
V1_HEADER = dict(
    aligner="DarwinWGA", config="c0ffee", target="7a96e7", query="9e7a11"
)
V1_UNITS = {
    "0:chr1|0:chrA": ["chr1", "chrA", 3, 1.5],
    "0:chr1|1:chrB": {"alignments": 0, "matched_bp": 0},
}


class TestOnDiskFormat:
    def test_loads_a_version_1_manifest(self, tmp_path):
        path = tmp_path / "run.manifest"
        shutil.copyfile(V1_MANIFEST, path)
        manifest = RunManifest.load(path)
        manifest.verify(**V1_HEADER)
        assert manifest.units == list(V1_UNITS)
        for unit, value in V1_UNITS.items():
            assert manifest.result_for(unit) == value
        assert manifest.skipped_records == 0

    def test_writes_version_1_bytes(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = RunManifest.create(path, **V1_HEADER)
        for unit, value in V1_UNITS.items():
            manifest.record(unit, value)
        assert path.read_bytes() == V1_MANIFEST.read_bytes()
