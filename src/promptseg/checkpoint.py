"""Flat named-array checkpoint files.

Layout: an 8-byte little-endian header length, a JSON header mapping each
array name to its shape and byte offset within the payload, then the raw
float64 buffers back to back.  Round-trips are byte-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

_MAGIC = b"PSCK"


def save_arrays(path, named: dict[str, np.ndarray]) -> None:
    entries = []
    offset = 0
    payload = []
    for name, arr in named.items():
        buf = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payload.append(buf)
        offset += len(buf)
    header = json.dumps({"format": "promptseg-flat-v1", "arrays": entries}).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for buf in payload:
            f.write(buf)


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a file without the magic, or cut short, raises
    ``ValueError`` naming it."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path} is not a promptseg checkpoint")
    # base >= 12, so a file cut inside the length field fails the check too
    base = 12 + int.from_bytes(raw[4:12], "little")
    if len(raw) < base:
        raise ValueError(f"{path}: checkpoint header is cut short")
    header = json.loads(raw[12:base])
    out: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        start = base + entry["offset"]
        if start + 8 * count > len(raw):
            raise ValueError(f"{path}: checkpoint payload is shorter than its header says")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=start)
        out[entry["name"]] = arr.reshape(shape).copy()
    return out
