"""Binary persistence for time traces.

Container layout (little-endian throughout):

    magic    6 bytes         b"GKTR\x02\x00" (version 2)
    header   struct '<dII'   half_length f64, size N u32, sample_count M u32
    times    M f64
    coeffs   M rows of c128, C order: N/2 + 1 half-spectrum modes per row
             (k = 0 .. N/2-1, then -N/2)

Only version 2 is read and written; files of the full-band version 1 are
refused for their magic.  A JSON sidecar (same stem, .json suffix) carries
everything that is not raw array data: realness flag, the container format,
config echo, free-form diagnostics.  Both files are written atomically
(temp file in the target directory, then os.replace) with mode
0o666 & ~umask.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .spacetime import TimeTrace
from .spectral import _LAYOUT, Grid1D, hermitian_breaks

_HEADER = struct.Struct("<dII")
_MAGIC = b"GKTR\x02\x00"  # version 2: half-spectra


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    # O_EXCL with mode 0o666: the kernel applies the umask, as for open(path, "w").
    # Not the secrets module: it loads OpenSSL, 3 MB of resident memory.
    while True:
        tmp = path.parent / f"{path.name}.{os.urandom(4).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
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
    """Write a trace container, as version 2, and its sidecar."""
    path = Path(path)
    m, width = trace.coeffs.shape
    head = _MAGIC + _HEADER.pack(trace.grid.half_length, trace.grid.size, m)
    # one buffer, filled in place: no per-part copies of the rows
    payload = bytearray(len(head) + 8 * m + 16 * m * width)
    payload[:len(head)] = head
    np.frombuffer(payload, dtype="<f8", count=m, offset=len(head))[:] = trace.times
    np.frombuffer(payload, dtype="<c16", offset=len(head) + 8 * m).reshape(m, width)[:] = \
        trace.coeffs
    _atomic_write_bytes(path, payload)
    side = dict(metadata or {})
    side["is_real"] = True
    side["format"] = {"magic": _MAGIC.decode("latin1"), "header": "<dII",
                      "times": "<f8", "coeffs": "<c16",
                      "modes": "half-spectrum, N/2 + 1 per row"}
    atomic_write_json(sidecar_path(path), side)


def read_trace(path) -> Tuple[TimeTrace, dict]:
    """Read a trace container and its sidecar; returns (trace, metadata).

    A file that is not a version-2 container, a sidecar declaring the trace
    complex, and a row beyond the Hermitian tolerance of
    spectral.hermitian_breaks (a complex zero or unpaired mode) raise
    ValueError.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a version-2 trace container (bad magic)")
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        half_length, size, m = _HEADER.unpack(head)
        width = size // 2 + 1
        expected = len(_MAGIC) + _HEADER.size + 8 * m + 16 * m * width
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise ValueError(
                f"{path}: expected {expected} bytes for {m} samples of {width} "
                f"modes on {size} points, found {found}"
            )
        times = np.empty(m, dtype="<f8")
        coeffs = np.empty((m, width), dtype="<c16")
        fh.readinto(times)
        fh.readinto(coeffs)
    times = times.astype(np.float64, copy=False)
    coeffs = coeffs.astype(np.complex128, copy=False)
    side_file = sidecar_path(path)
    metadata = json.loads(side_file.read_text()) if side_file.exists() else {}
    if metadata.get("is_real") is False:
        raise ValueError(f"{path}: the sidecar declares a complex trace, but traces "
                         f"are read as {_LAYOUT}")
    broken = int(np.count_nonzero(hermitian_breaks(coeffs)))
    if broken:
        raise ValueError(f"{path}: {broken} of {m} rows have a complex zero or unpaired "
                         f"mode, so they are not {_LAYOUT}")
    return TimeTrace(Grid1D(half_length, int(size)), times, coeffs), metadata
