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
    """Write blob and manifest to temp files, then move each in place.

    The blob is replaced first and the manifest, which names what the blob
    holds, last; a save that fails before then leaves the previous
    checkpoint as it was and removes its temp files.
    """
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    blob_temp, manifest_temp = (f"{path}.{os.getpid()}.tmp" for path in (blob_path, manifest_path))
    lines = []
    offset = 0
    try:
        with open(blob_temp, "wb") as blob:
            for p in store:
                raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                shape = ",".join(str(d) for d in p.shape) if p.shape else ""
                lines.append(f"{p.name}\t{shape}\t{offset}\n")
                blob.write(raw)
                offset += len(raw)
        with open(manifest_temp, "w", encoding="utf-8") as mf:
            mf.writelines(lines)
        os.replace(blob_temp, blob_path)
        os.replace(manifest_temp, manifest_path)
    except BaseException:
        for temp in (blob_temp, manifest_temp):
            if os.path.exists(temp):
                os.remove(temp)
        raise
    return manifest_path, blob_path


def load_checkpoint(store: ParamStore, directory: str) -> None:
    """Load values into an existing store, all or nothing.

    Every manifest line must hold a name, an integer shape and an integer
    offset; every store parameter must appear exactly once, with its shape.
    The entries must tile the blob in manifest order: each starts where the
    one before it ends, and the last ends at the blob's end. Any failure
    raises ContractError before a value is set.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    try:
        with open(blob_path, "rb") as blob:
            raw = blob.read()
        with open(manifest_path, "r", encoding="utf-8") as mf:
            lines = mf.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read checkpoint: {exc}") from exc
    values = {}
    end = 0  # where the entries read so far end
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            name, shape_text, offset_text = line.split("\t")
            shape = tuple(int(d) for d in shape_text.split(",")) if shape_text else ()
            offset = int(offset_text)
        except ValueError as exc:
            raise ContractError(f"checkpoint manifest line {number} is malformed: {line!r}") from exc
        if name not in store:
            raise ContractError(f"checkpoint names unknown parameter {name}")
        if name in values:
            raise ContractError(f"checkpoint names parameter {name} twice")
        if shape != store[name].shape:
            raise ContractError(
                f"checkpoint entry {name} has shape {shape}, the model {store[name].shape}"
            )
        n = int(np.prod(shape)) if shape else 1
        if offset != end:
            raise ContractError(
                f"checkpoint entry {name} starts at byte {offset}, not at {end} "
                "where the entry before it ends")
        end += 8 * n
        if end > len(raw):
            raise ContractError(f"checkpoint entry {name} runs past the blob's end")
        # a copy: a view of the blob's bytes would be read-only
        values[name] = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape).copy()
    missing = [p.name for p in store if p.name not in values]
    if missing:
        raise ContractError(f"checkpoint lacks parameters: {', '.join(missing)}")
    if end != len(raw):
        raise ContractError(f"checkpoint blob holds {len(raw) - end} bytes past its last entry")
    for name, array in values.items():
        store.set_values(name, array)
