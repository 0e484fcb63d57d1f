"""CheckpointStore: atomic writes, checksums, manifest discipline."""

import json

import pytest

from repro.cluster.store import (
    MANIFEST_VERSION,
    CheckpointCorrupt,
    CheckpointStore,
)

pytestmark = pytest.mark.lock_check


class TestDocuments:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.write("state", {"generation": 3, "values": [1, 2, 3]})
        assert store.exists("state")
        loaded = store.read("state")
        assert loaded["generation"] == 3
        assert loaded["values"] == [1, 2, 3]

    def test_creates_root_directory(self, tmp_path):
        root = tmp_path / "a" / "b"
        CheckpointStore(root)
        assert root.is_dir()

    def test_rejects_path_separators_in_names(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.path("../escape")
        with pytest.raises(ValueError):
            store.path("nested\\name")

    def test_bit_flip_is_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("state", {"payload": "x" * 64})
        path = store.path("state")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x04
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorrupt):
            store.read("state")

    def test_missing_document_is_corrupt_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupt):
            store.read("never-written")

    def test_overwrite_leaves_no_tmp_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("state", {"generation": 1})
        store.write("state", {"generation": 2})
        assert store.read("state")["generation"] == 2
        leftovers = [
            p for p in store.root.iterdir() if p.suffix != ".json"
        ]
        assert leftovers == []


class TestManifest:
    def test_roundtrip_with_kind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert not store.has_manifest()
        store.write_manifest("learn", {"env_id": "CartPole-v0", "seed": 7})
        assert store.has_manifest()
        manifest = store.read_manifest("learn")
        assert manifest["env_id"] == "CartPole-v0"
        assert manifest["seed"] == 7
        assert manifest["manifest_version"] == MANIFEST_VERSION

    def test_missing_manifest_raises_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointCorrupt, match="nothing"):
            store.read_manifest()

    def test_kind_mismatch_raises_value_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_manifest("other", {"seed": 0})
        with pytest.raises(ValueError, match="expected 'learn'"):
            store.read_manifest("learn")

    def test_unsupported_version_raises_value_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_manifest("learn", {"seed": 0})
        doc = json.loads(store.path("manifest").read_text())
        doc["manifest_version"] = 99
        # recompute the checksum so version checking (not corruption
        # detection) is what trips
        from repro.neat.checkpoint import atomic_write_json

        doc.pop("crc32", None)
        atomic_write_json(store.path("manifest"), doc)
        with pytest.raises(ValueError, match="manifest version"):
            store.read_manifest()
