"""Binary persistence for time traces.

Container layout (little-endian throughout):

    header   struct '<dII'   half_length f64, size u32, sample_count u32
    times    sample_count f64
    coeffs   sample_count x size c128, C order

A JSON sidecar (same stem, .json suffix) carries everything that is not
raw array data: realness flag, config echo, free-form diagnostics.  Both
files are written atomically (temp file in the target directory, then
os.replace).
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .spacetime import TimeTrace
from .spectral import Grid1D, hermitian_breaks

_HEADER = struct.Struct("<dII")
_MAGIC = b"GKTR\x01\x00"


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def jsonable(obj):
    """Recursively coerce report payloads to strict-JSON values.

    Infinities and NaN have no JSON spelling, so they are emitted as the
    strings "inf", "-inf", "nan"; numpy scalars collapse to Python numbers.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    return obj


def atomic_write_json(path: Path, payload: dict) -> None:
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    atomic_write_text(Path(path), text)


def sidecar_path(path: Path) -> Path:
    return Path(path).with_suffix(".json")


def write_trace(path, trace: TimeTrace, metadata: Optional[dict] = None) -> None:
    path = Path(path)
    m, n = trace.coeffs.shape
    parts = [
        _MAGIC,
        _HEADER.pack(trace.grid.half_length, trace.grid.size, m),
        np.ascontiguousarray(trace.times, dtype="<f8").tobytes(),
        np.ascontiguousarray(trace.coeffs, dtype="<c16").tobytes(),
    ]
    _atomic_write_bytes(path, b"".join(parts))
    side = dict(metadata or {})
    side["is_real"] = trace.is_real
    side["format"] = {"magic": _MAGIC.decode("latin1"), "header": "<dII",
                      "times": "<f8", "coeffs": "<c16"}
    atomic_write_json(sidecar_path(path), side)


def read_trace(path) -> Tuple[TimeTrace, dict]:
    """Read a trace container and its sidecar; returns (trace, metadata).

    is_real holds when every row meets the Hermitian tolerance of a real
    SpectralField; a sidecar declaring it for other data raises ValueError.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw.startswith(_MAGIC):
        raise ValueError(f"{path} is not a trace container (bad magic)")
    off = len(_MAGIC)
    half_length, size, m = _HEADER.unpack_from(raw, off)
    off += _HEADER.size
    tbytes = 8 * m
    cbytes = 16 * m * size
    if len(raw) != off + tbytes + cbytes:
        raise ValueError(
            f"{path}: expected {off + tbytes + cbytes} bytes for "
            f"{m} samples on {size} modes, found {len(raw)}"
        )
    times = np.frombuffer(raw, dtype="<f8", count=m, offset=off).astype(np.float64)
    coeffs = (
        np.frombuffer(raw, dtype="<c16", count=m * size, offset=off + tbytes)
        .astype(np.complex128)
        .reshape(m, size)
    )
    del raw
    side_file = sidecar_path(path)
    metadata = json.loads(side_file.read_text()) if side_file.exists() else {}
    claimed = metadata.get("is_real")
    broken = 0 if claimed is False else int(np.count_nonzero(hermitian_breaks(coeffs)))
    if claimed and broken:
        raise ValueError(f"{path}: the sidecar declares is_real, but {broken} of {m} "
                         "rows break Hermitian symmetry")
    is_real = claimed is not False and broken == 0
    grid = Grid1D(half_length, int(size))
    return TimeTrace(grid, times, coeffs, is_real=is_real), metadata
