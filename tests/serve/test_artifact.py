"""The v2 binary artifact codec and its integration into the store."""

import json

import numpy as np
import pytest

from repro.api import release_from_json
from repro.serve import (
    ArtifactError,
    ArtifactIntegrityError,
    ReleaseStore,
    artifact_info,
    read_artifact,
    write_artifact,
)

from ..api.conftest import FAST_PARAMS
from .conftest import QUERY_BOXES, QUERY_CODES, fit_release


def _answers(release, kind):
    if kind == "spatial":
        return release.query_many(QUERY_BOXES)
    return release.query_many(QUERY_CODES)


def _downgrade_to_envelope(store, release_id, release):
    """Turn a stored entry's files into a pre-v2 store's: the v1 JSON
    envelope in place of the binary artifact."""
    (store.root / "releases" / f"{release_id}.json").write_text(
        json.dumps(release.to_json())
    )
    (store.root / "releases" / f"{release_id}.bin").unlink()


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_every_method_round_trips_bit_identically(
        self, name, tmp_path, uniform_2d, sequence_data
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        n_bytes = write_artifact(release, path)
        assert n_bytes == path.stat().st_size
        restored = read_artifact(path)
        assert type(restored) is type(release)
        assert restored.method == release.method
        assert restored.epsilon_spent == release.epsilon_spent
        assert np.array_equal(_answers(restored, kind), _answers(release, kind))

    @pytest.mark.parametrize("name", ["privtree", "pst", "ngram", "ag"])
    def test_mmap_answers_match_json_loaded_answers(
        self, name, tmp_path, uniform_2d, sequence_data
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        from_binary = read_artifact(path)
        from_json = release_from_json(json.loads(json.dumps(release.to_json())))
        assert np.array_equal(
            _answers(from_binary, kind), _answers(from_json, kind)
        )

    def test_json_envelope_survives_binary_round_trip(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        assert read_artifact(path).to_json() == release.to_json()

    def test_artifact_info_reads_header_only(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        n_bytes = write_artifact(release, path)
        info = artifact_info(path)
        assert info["format"] == "repro.release_artifact"
        assert info["version"] == 2
        assert info["kind"] == "spatial-tree"
        assert info["method"] == "privtree"
        assert info["bytes"] == n_bytes
        assert "counts" in info["segments"]


class TestIntegrity:
    @pytest.fixture
    def artifact(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        return path

    def test_truncated_file_rejected(self, artifact):
        data = artifact.read_bytes()
        artifact.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError):
            read_artifact(artifact)

    def test_bit_flip_in_payload_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0x01
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            read_artifact(artifact)

    def test_bit_flip_near_end_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[-60] ^= 0x80  # inside the last segment, before the footer
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            read_artifact(artifact)

    def test_wrong_magic_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[:8] = b"NOTREPRO"
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            read_artifact(artifact)

    def test_integrity_error_is_artifact_and_value_error(self):
        assert issubclass(ArtifactIntegrityError, ArtifactError)
        assert issubclass(ArtifactError, ValueError)


class TestStoreIntegration:
    def test_put_writes_exactly_the_bin(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release, release_id="one")
        assert [p.name for p in (store.root / "releases").iterdir()] == ["one.bin"]
        entry = store.manifest_entry(release_id)
        assert entry["artifact_format"] == "binary-v2"
        assert entry["path"] == entry["binary_path"] == "releases/one.bin"
        assert (
            entry["artifact_bytes"]
            == (store.root / "releases" / "one.bin").stat().st_size
        )

    def test_kind_without_codec_is_stored_as_json(self, store, uniform_2d, monkeypatch):
        release, _ = fit_release("privtree", uniform_2d, None)

        def no_codec(release, path):
            raise ArtifactError("no binary codec")

        monkeypatch.setattr("repro.serve.store.write_artifact", no_codec)
        store.put(release, release_id="plain")
        assert [p.name for p in (store.root / "releases").iterdir()] == ["plain.json"]
        entry = store.manifest_entry("plain")
        assert entry["path"] == "releases/plain.json"
        assert entry["artifact_format"] == "json-v1"
        assert entry["artifact_bytes"] is None
        restored = store.get("plain")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_get_prefers_binary_artifact(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="pref")
        # Corrupt the JSON envelope: a v2-preferring get never parses it.
        (store.root / "releases" / "pref.json").write_text("{not json")
        restored = store.get("pref")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_v1_only_store_still_loads(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="legacy")
        _downgrade_to_envelope(store, "legacy", release)
        restored = store.get("legacy")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_migrate_upgrades_v1_entries(self, store, uniform_2d, sequence_data):
        spatial, _ = fit_release("privtree", uniform_2d, None)
        sequence, _ = fit_release("pst", None, sequence_data)
        store.put(spatial, release_id="a")
        store.put(sequence, release_id="b")
        # Simulate a pre-v2 store: the JSON envelopes replace the binaries,
        # and the manifest loses its artifact fields.
        for release_id, release in (("a", spatial), ("b", sequence)):
            _downgrade_to_envelope(store, release_id, release)
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["releases"].values():
            for key in ("artifact_format", "artifact_bytes", "binary_path"):
                entry.pop(key, None)
        manifest_path.write_text(json.dumps(manifest))

        assert sorted(store.migrate()) == ["a", "b"]
        for release_id in ("a", "b"):
            assert (store.root / "releases" / f"{release_id}.bin").exists()
            assert (
                store.manifest_entry(release_id)["artifact_format"] == "binary-v2"
            )
        # Idempotent: a second run has nothing left to upgrade.
        assert store.migrate() == []

    def test_corrupt_binary_fails_load_loudly(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="bad")
        path = store.root / "releases" / "bad.bin"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x04
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            store.get("bad")
