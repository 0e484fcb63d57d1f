"""Durable checkpoint storage: the run outlives the driver process.

:class:`CheckpointStore` is a directory of atomically-written,
CRC32-checksummed JSON documents plus a versioned manifest describing
the run they belong to, so a SIGKILLed driver does not lose the run.
The write primitive is shared with
:func:`repro.neat.checkpoint.save_population` (tmp file +
``os.replace``), so a crash at any instant leaves either the previous
complete document or the new complete document on disk — never a torn
one.

Its client is ``repro learn --checkpoint-dir``: it persists the
engine's state once per generation, and ``--resume`` reconstructs the
driver from the manifest and continues bit-identically (every RNG stream
is name-derived, so there is no hidden generator state to lose).
"""

from __future__ import annotations

import pathlib

from repro.neat.checkpoint import (
    CheckpointCorrupt,
    atomic_write_json,
    checked_read_json,
)

__all__ = ["CheckpointStore", "CheckpointCorrupt", "MANIFEST_VERSION"]

#: format version of the manifest document
MANIFEST_VERSION = 1

_MANIFEST_NAME = "manifest"


class CheckpointStore:
    """A directory of checksummed checkpoint documents + a manifest.

    Every document is written atomically and carries a CRC32 checksum;
    reads raise :class:`repro.neat.checkpoint.CheckpointCorrupt` on any
    damage. Names are flat identifiers (no path separators) mapped to
    ``<name>.json`` files, so the directory stays human-inspectable.
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- generic documents -------------------------------------------------

    def path(self, name: str) -> pathlib.Path:
        """Filesystem path backing document ``name``."""
        if "/" in name or "\\" in name:
            raise ValueError(f"checkpoint names are flat, got {name!r}")
        return self.root / f"{name}.json"

    def write(self, name: str, payload: dict) -> None:
        """Atomically persist ``payload`` as document ``name``."""
        atomic_write_json(self.path(name), payload)

    def read(self, name: str) -> dict:
        """Load document ``name``, verifying its checksum."""
        return checked_read_json(self.path(name))

    def exists(self, name: str) -> bool:
        """Whether document ``name`` has been written."""
        return self.path(name).exists()

    # -- the manifest ------------------------------------------------------

    def write_manifest(self, kind: str, payload: dict) -> None:
        """Persist the run manifest.

        ``kind`` identifies the writer (``"learn"`` for resumable CLI
        runs) so a resume attempt against the wrong kind of store fails
        loudly instead of misinterpreting fields.
        """
        document = dict(payload)
        document["manifest_version"] = MANIFEST_VERSION
        document["kind"] = kind
        self.write(_MANIFEST_NAME, document)

    def read_manifest(self, kind: str | None = None) -> dict:
        """Load the manifest, optionally checking its ``kind``.

        Raises :class:`CheckpointCorrupt` when the manifest is missing or
        damaged, and :class:`ValueError` on a version or kind mismatch.
        """
        if not self.exists(_MANIFEST_NAME):
            raise CheckpointCorrupt(
                f"no manifest in checkpoint store {self.root} — nothing "
                "to resume from"
            )
        manifest = self.read(_MANIFEST_NAME)
        version = manifest.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {version!r} in {self.root}"
            )
        if kind is not None and manifest.get("kind") != kind:
            raise ValueError(
                f"checkpoint store {self.root} holds a "
                f"{manifest.get('kind')!r} run, expected {kind!r}"
            )
        return manifest

    def has_manifest(self) -> bool:
        """Whether a manifest has been written."""
        return self.exists(_MANIFEST_NAME)
