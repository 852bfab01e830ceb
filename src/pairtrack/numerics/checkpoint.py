"""Checkpoint serialization: text manifest plus a flat float64 blob.

The manifest has one tab-separated line per parameter: name, shape as a
comma-joined list, and byte offset into the blob. The blob concatenates
every parameter's values as little-endian 64-bit floats in manifest order.
Round-trips are byte-exact.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ContractError
from .params import ParamStore

MANIFEST_NAME = "checkpoint.manifest"
BLOB_NAME = "checkpoint.blob"


def save_checkpoint(store: ParamStore, directory: str) -> tuple[str, str]:
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    lines = []
    offset = 0
    with open(blob_path, "wb") as blob:
        for p in store:
            raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
            shape = ",".join(str(d) for d in p.shape) if p.shape else ""
            lines.append(f"{p.name}\t{shape}\t{offset}\n")
            blob.write(raw)
            offset += len(raw)
    with open(manifest_path, "w", encoding="utf-8") as mf:
        mf.writelines(lines)
    return manifest_path, blob_path


def load_checkpoint(store: ParamStore, directory: str) -> None:
    """Load values into an existing store; names and shapes must match."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    try:
        with open(blob_path, "rb") as blob:
            raw = blob.read()
    except OSError as exc:
        raise ContractError(f"cannot read checkpoint blob: {exc}") from exc
    with open(manifest_path, "r", encoding="utf-8") as mf:
        for line in mf:
            line = line.rstrip("\n")
            if not line:
                continue
            name, shape_text, offset_text = line.split("\t")
            shape = tuple(int(d) for d in shape_text.split(",")) if shape_text else ()
            offset = int(offset_text)
            n = int(np.prod(shape)) if shape else 1
            if offset < 0 or offset + 8 * n > len(raw):
                raise ContractError(f"checkpoint entry {name} runs past the blob's end")
            values = np.frombuffer(raw, dtype="<f8", count=n, offset=offset)
            if name not in store:
                raise ContractError(f"checkpoint names unknown parameter {name}")
            store.set_values(name, values.reshape(shape))
