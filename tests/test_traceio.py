"""Trace container round trips and JSON sanitation."""

import json
import math
import os
import stat
import struct

import numpy as np
import pytest

from gkdvlab.spacetime import free_evolution
from gkdvlab.spectral import Grid1D, _unfold, gaussian_profile, random_band_limited
from gkdvlab.traceio import (
    atomic_write_json,
    jsonable,
    read_trace,
    sidecar_path,
    write_trace,
)

GRID = Grid1D(16.0, 32)


def _trace():
    f = random_band_limited(GRID, decay=1.0, band=8, seed=1)
    return free_evolution(f, np.linspace(0.0, 1.0, 5))


def test_round_trip(tmp_path):
    trace = _trace()
    path = tmp_path / "run.trace"
    write_trace(path, trace, {"note": "round trip", "alpha": 5.0})
    back, meta = read_trace(path)
    assert back.grid == trace.grid
    assert back.is_real == trace.is_real
    np.testing.assert_array_equal(back.times, trace.times)
    np.testing.assert_array_equal(back.coeffs, trace.coeffs)
    assert meta["note"] == "round trip"
    assert meta["alpha"] == 5.0


def test_sidecar_and_no_temp_litter(tmp_path):
    trace = _trace()
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    assert sidecar_path(path).exists()
    leftovers = [p for p in tmp_path.iterdir()
                 if p.name not in ("run.trace", "run.json")]
    assert leftovers == []


def test_truncated_file_rejected(tmp_path):
    trace = _trace()
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError):
        read_trace(path)
    path.write_bytes(data[:12])
    with pytest.raises(ValueError, match="truncated header"):
        read_trace(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bogus.trace"
    path.write_bytes(b"not a trace container at all")
    with pytest.raises(ValueError):
        read_trace(path)


def test_gaussian_trace_survives_exactly(tmp_path):
    f = gaussian_profile(GRID, 0.3)
    trace = free_evolution(f, np.array([0.0, 0.25, 1.0, 4.0]))
    path = tmp_path / "g.trace"
    write_trace(path, trace)
    back, _ = read_trace(path)
    assert back.times[-1] == 4.0
    np.testing.assert_array_equal(back.coeffs, trace.coeffs)


def test_jsonable_extended_values():
    doc = jsonable({
        "a": math.inf, "b": -math.inf, "c": math.nan,
        "d": np.float64(1.5), "e": np.int32(7), "f": np.bool_(True),
        "g": [np.float32(2.0), (1, 2)], "h": {"k": np.arange(3)},
    })
    assert doc["a"] == "inf" and doc["b"] == "-inf" and doc["c"] == "nan"
    assert doc["d"] == 1.5 and doc["e"] == 7 and doc["f"] is True
    assert doc["g"] == [2.0, [1, 2]]
    assert doc["h"]["k"] == [0, 1, 2]
    json.dumps(doc)  # must be plain-JSON clean


def test_atomic_write_json(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"x": math.inf, "y": np.float64(2.0)})
    loaded = json.loads(path.read_text())
    assert loaded == {"x": "inf", "y": 2.0}
    assert path.read_text().endswith("\n")


def _version_1_file(path, trace, broken=False):
    """The full-band layout of traces before half-spectrum files, byte by byte."""
    full = _unfold(trace.coeffs)
    if broken:
        full[2, GRID.size // 2 + 3] += 0.5j  # its mirror mode is left alone
    m = trace.sample_count
    path.write_bytes(b"GKTR\x01\x00" + struct.pack("<dII", GRID.half_length, GRID.size, m)
                     + trace.times.astype("<f8").tobytes() + full.astype("<c16").tobytes())


@pytest.mark.parametrize("broken", [False, True])
def test_missing_sidecar_infers_realness_from_the_data(tmp_path, broken):
    trace = _trace()
    path = tmp_path / "run.trace"
    _version_1_file(path, trace, broken)
    if broken:
        # complex data: not the N/2 + 1 half-spectrum of a real trace
        with pytest.raises(ValueError, match=r"1 of 5 rows break Hermitian symmetry, so "
                                             r"they are not .*N/2 \+ 1 modes in rfft layout"):
            read_trace(path)
        return
    back, meta = read_trace(path)
    assert meta == {}
    assert back.is_real
    np.testing.assert_array_equal(back.coeffs, trace.coeffs)


def test_sidecar_claiming_realness_of_complex_data_is_rejected(tmp_path):
    path = tmp_path / "run.trace"
    _version_1_file(path, _trace(), broken=True)
    side = sidecar_path(path)
    side.write_text(json.dumps({"is_real": True}))
    with pytest.raises(ValueError, match="1 of 5 rows break Hermitian symmetry"):
        read_trace(path)
    side.write_text(json.dumps({"is_real": False}))
    with pytest.raises(ValueError, match="declares a complex trace"):
        read_trace(path)


def test_real_trace_is_written_as_half_spectrum_rows(tmp_path):
    trace = _trace()
    m, half = trace.coeffs.shape
    assert half == GRID.size // 2 + 1
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    data = path.read_bytes()
    assert data[:6] == b"GKTR\x02\x00"
    assert len(data) == 6 + 16 + 8 * m + 16 * m * half
    assert data[22 + 8 * m:] == trace.coeffs.astype("<c16").tobytes()
    side = json.loads(sidecar_path(path).read_text())
    assert side["format"]["magic"] == "GKTR\x02\x00"
    assert side["format"]["modes"].startswith("half-spectrum")
    back, _ = read_trace(path)
    assert back.is_real and back.coeffs.shape == (m, half)
    assert back.coeffs.tobytes() == trace.coeffs.tobytes()
    assert back.times.tobytes() == trace.times.tobytes()


@pytest.mark.parametrize("sidecar", [None, True])
def test_version_1_file_of_a_real_trace_still_reads(tmp_path, sidecar):
    trace = _trace()
    path = tmp_path / "old.trace"
    _version_1_file(path, trace)
    if sidecar is not None:
        sidecar_path(path).write_text(json.dumps({"is_real": sidecar}))
    back, _ = read_trace(path)
    assert back.is_real and back.grid == GRID
    assert back.coeffs.tobytes() == trace.coeffs.tobytes()
    np.testing.assert_array_equal(back.times, trace.times)


@pytest.mark.parametrize("mode", [0, -1])
def test_version_2_row_with_a_complex_end_mode_is_rejected(tmp_path, mode):
    trace = _trace()
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    coeffs = trace.coeffs.copy()
    coeffs[3, mode] += 0.5j  # the zero or the unpaired mode
    data = path.read_bytes()
    path.write_bytes(data[:22 + 8 * 5] + coeffs.astype("<c16").tobytes())
    with pytest.raises(ValueError, match="1 of 5 rows have a complex zero or unpaired mode"):
        read_trace(path)
    sidecar_path(path).unlink()
    with pytest.raises(ValueError, match="complex zero or unpaired mode"):
        read_trace(path)


def test_version_2_file_with_a_complex_sidecar_is_rejected(tmp_path):
    path = tmp_path / "run.trace"
    write_trace(path, _trace())
    side = sidecar_path(path)
    side.write_text(json.dumps(dict(json.loads(side.read_text()), is_real=False)))
    with pytest.raises(ValueError, match="declares a complex trace"):
        read_trace(path)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_trace(tmp_path / "run.trace", _trace())
        atomic_write_json(tmp_path / "report.json", {"x": 1.0})
    finally:
        os.umask(old)
    for name in ("run.trace", "run.json", "report.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name
