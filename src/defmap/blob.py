"""The one file layout behind model, train-state and MLP checkpoints.

A file is a magic line, one sorted-key JSON header line, then raw
little-endian float64 arrays stored back to back. The header says where each
array sits (``offset`` in bytes into the payload, ``count`` of values and,
for arrays that keep their shape, ``shape``). Every malformed file raises
:class:`~defmap.errors.CheckpointError`, a missing or unreadable one
:class:`~defmap.errors.IoError`.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CheckpointError, IoError, check_keys


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
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise IoError(f"cannot read {path!r}: {e}") from e
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


def array(payload: bytes, entry, shape, what: str,
          keys=("count", "offset", "shape")) -> np.ndarray:
    """A fresh copy of the array header entry ``entry`` points at.

    The entry must hold exactly the fields ``keys`` and describe an array
    of ``shape`` (a ``None`` axis takes the stored length) that lies inside
    ``payload``. An entry without a ``shape`` field is read as ``shape``.
    """
    check_keys(entry, keys, what, CheckpointError)
    stored = entry.get("shape", list(shape))
    offset, count = entry["offset"], entry["count"]
    if not (isinstance(stored, list) and len(stored) == len(shape)
            and all(type(n) is int and n >= 0 for n in (offset, count, *stored))
            and all(want in (None, n) for n, want in zip(stored, shape))
            and count == int(np.prod(stored))):
        raise CheckpointError(f"{what}: entry {entry} is not a {shape} array")
    if len(payload) < offset + 8 * count:
        raise CheckpointError(f"{what}: checkpoint payload truncated")
    vals = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
    return vals.reshape(stored).copy()
