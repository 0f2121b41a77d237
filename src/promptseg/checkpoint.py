"""Flat named-array checkpoint files.

Layout: an 8-byte little-endian header length, a JSON header mapping each
array name to its shape and byte offset within the payload, then the raw
float64 buffers back to back.  Round-trips are byte-exact; the tests hold
the read side.
"""

from __future__ import annotations

import json
import struct

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

