"""Run manifests: resolved flags, seeds, input digests, tool version.

Every result file a command emits either embeds the manifest digest (JSON
and SVG outputs) or carries it in a leading comment line (CSV outputs).
The digest is computed over the manifest without its timestamp, so reruns
with equal inputs and flags produce byte-identical result payloads.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

from . import __version__
from .tensor import write_artifact


def canonical_json(obj) -> str:
    """Deterministic JSON rendering (sorted keys, repr floats, '\\n' ending)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def build_manifest(subcommand: str, flags: dict, seed: int | None,
                   input_paths: dict | None = None,
                   derived_seeds: dict | None = None) -> dict:
    inputs = {
        name: {"path": str(path), "digest": file_sha256(path)}
        for name, path in (input_paths or {}).items()
    }
    manifest = {
        "tool": "uqeval",
        "tool_version": __version__,
        "subcommand": subcommand,
        "flags": flags,
        "seed": seed,
        "inputs": inputs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if derived_seeds is not None:
        manifest["derived_seeds"] = derived_seeds
    return manifest


# Presentation-only flags: they pick where and how results render, never
# what gets computed, so the digest ignores them along with the timestamp.
NON_COMPUTATION_FLAGS = ("out", "format")


def manifest_digest(manifest: dict) -> str:
    """Digest over the computation-relevant part of the manifest."""
    stripped = {k: v for k, v in manifest.items() if k != "timestamp"}
    flags = stripped.get("flags")
    if isinstance(flags, dict):
        stripped["flags"] = {
            k: v for k, v in flags.items() if k not in NON_COMPUTATION_FLAGS
        }
    payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_manifest(manifest: dict, path) -> str:
    digest = manifest_digest(manifest)
    payload = dict(manifest)
    payload["digest"] = digest
    write_artifact(path, canonical_json(payload))
    return digest
