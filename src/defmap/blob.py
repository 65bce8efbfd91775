"""The one file layout behind model, train-state and MLP checkpoints.

A file is a magic line, one sorted-key JSON header line, then raw
little-endian float64 arrays stored back to back. The header says where each
array sits (``offset`` in bytes into the payload, ``count`` of values and,
for arrays that keep their shape, ``shape``). Every malformed file raises
:class:`~defmap.errors.CheckpointError`.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CheckpointError, check_keys


def layout(*sections: dict) -> list[dict]:
    """Header entries for each section's arrays, stored back to back in
    order: section after section, each in its dict order."""
    out, offset = [], 0
    for arrays in sections:
        entries = {}
        for name, arr in arrays.items():
            entries[name] = {"shape": list(arr.shape), "offset": offset,
                             "count": int(arr.size)}
            offset += 8 * arr.size
        out.append(entries)
    return out


def write(path, magic: bytes, header: dict, arrays) -> None:
    """Magic, the header as one sorted-key JSON line, then ``arrays``."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read(path, magic: bytes, what: str, keys) -> tuple[dict, bytes]:
    """(header, payload) of a file written by :func:`write` with ``magic``,
    whose header holds exactly the fields ``keys``."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(magic):
        raise CheckpointError(f"not a {what} checkpoint")
    nl = data.find(b"\n", len(magic))
    if nl < 0:
        raise CheckpointError(f"{what} header is not terminated")
    try:
        header = json.loads(data[len(magic):nl])
    except ValueError as e:
        raise CheckpointError(f"malformed {what} header: {e}") from e
    check_keys(header, keys, f"{what} header", CheckpointError)
    return header, data[nl + 1:]


def array(payload: bytes, entry: dict) -> np.ndarray:
    """A fresh copy of the array one header entry points at."""
    offset, count = entry["offset"], entry["count"]
    if len(payload) < offset + 8 * count:
        raise CheckpointError("checkpoint payload truncated")
    vals = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
    return vals.reshape(entry.get("shape", -1)).copy()
