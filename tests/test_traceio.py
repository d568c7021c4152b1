"""Trace container round trips and JSON sanitation."""

import json
import math

import numpy as np
import pytest

from gkdvlab.spacetime import TimeTrace, free_evolution
from gkdvlab.spectral import Grid1D, gaussian_profile, random_band_limited
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


def _broken_row(trace):
    coeffs = trace.coeffs.copy()
    coeffs[2, GRID.size // 2 + 3] += 0.5j  # its mirror mode is left alone
    return TimeTrace(trace.grid, trace.times, coeffs, is_real=False)


@pytest.mark.parametrize("broken", [False, True])
def test_missing_sidecar_infers_realness_from_the_data(tmp_path, broken):
    trace = _broken_row(_trace()) if broken else _trace()
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    sidecar_path(path).unlink()
    back, meta = read_trace(path)
    assert meta == {}
    assert back.is_real is (not broken)
    np.testing.assert_array_equal(back.coeffs, trace.coeffs)


def test_sidecar_claiming_realness_of_complex_data_is_rejected(tmp_path):
    path = tmp_path / "run.trace"
    write_trace(path, _broken_row(_trace()))
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    assert doc["is_real"] is False
    assert read_trace(path)[0].is_real is False
    doc["is_real"] = True
    side.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="1 of 5 rows break Hermitian symmetry"):
        read_trace(path)
