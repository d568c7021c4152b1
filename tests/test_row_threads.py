"""The row kernels on two threads: the same bytes as on one, and the same failures.

apply_pointwise_matrix and mixed_norm map their row blocks on the calling
thread and a helper thread, started for the call and joined before it
returns, when a trace spans several blocks and the process may use more
than one CPU.  spectral._cpus is the seam that turns
the helper on or off here.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from gkdvlab import spectral
from gkdvlab.solver import NonlinearityG
from gkdvlab.spacetime import free_evolution, mixed_norm
from gkdvlab.spectral import Grid1D, apply_pointwise_matrix, gaussian_profile, random_band_limited

G5 = NonlinearityG(alpha=5.0)
GRIDS = {1024: Grid1D(256.0, 1024), 4096: Grid1D(1024.0, 4096)}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(spectral, "_cpus", lambda: n)


def _trace(size):
    """257 rows: several row blocks at N = 1024 and N = 4096."""
    grid = GRIDS[size]
    datum = gaussian_profile(grid, 0.3) + random_band_limited(grid, 1.0, size // 8, size)
    return free_evolution(datum, np.linspace(0.0, 2.0, 257))


def _on_caller(seen):
    """Append to seen whether this is the calling thread; slow the calling
    thread down, so the helper takes blocks however busy the machine is."""
    seen.append(threading.current_thread() is threading.main_thread())
    if seen[-1]:
        time.sleep(0.002)


def _recording(func, seen):
    def wrapped(v):
        _on_caller(seen)
        return func(v)
    return wrapped


class _Recording(np.ndarray):
    """An array whose row slices are recorded as they are taken."""

    seen: list = []

    def __getitem__(self, key):
        _on_caller(_Recording.seen)
        return np.asarray(self)[key]


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pad", [2, 3])
@pytest.mark.parametrize("size", [1024, 4096])
@pytest.mark.parametrize("stack", [False, True])
def test_pointwise_map_on_two_threads_matches_one_bytewise(size, pad, stack, monkeypatch):
    trace = _trace(size)
    coeffs = np.stack((trace.coeffs, trace.coeffs[::-1])) if stack else trace.coeffs
    func = (lambda w: w[0] * w[1]) if stack else G5.apply_values

    def mapped(f):  # the product of a stack has the rows of one trace
        return apply_pointwise_matrix(coeffs, trace.grid, f, pad=pad,
                                      out=np.empty(trace.coeffs.shape, dtype=complex))

    halves = len(spectral._row_blocks(coeffs, halved=True))
    assert 1 < len(spectral._row_blocks(coeffs)) < halves
    _cpus(monkeypatch, 1)
    want = mapped(func)
    _cpus(monkeypatch, 2)
    seen = []
    got = mapped(_recording(func, seen))
    _same_bytes(got, want)
    assert len(seen) == halves and 0 < seen.count(False) < halves
    _same_bytes(mapped(func), want)


def test_halved_blocks_cover_the_rows_once():
    """Half blocks from row 0 on, each row once; one block splits into two halves."""
    for size, count in ((1024, 4), (4096, 14)):
        coeffs = _trace(size).coeffs
        rows = [range(257)[r[-2]] for r in spectral._row_blocks(coeffs, halved=True)]
        assert len(rows) == count and rows[0].start == 0
        assert [i for block in rows for i in block] == list(range(257))
        whole = range(257)[spectral._row_blocks(coeffs)[0][-2]]
        assert 2 * len(rows[0]) <= len(whole)
    short = _trace(1024).coeffs[:129]
    assert len(spectral._row_blocks(short)) == 1
    assert [range(129)[r[-2]] for r in spectral._row_blocks(short, halved=True)] == \
        [range(0, 65), range(65, 129)]


NORMS = {
    "s=0": dict(p=4.0, q=6.0),
    "s!=0": dict(p=8.0, q=4.0, s=0.5),
    "negative s": dict(p=1.6, q=3.0, s=-0.25),
    "q=inf": dict(p=4.0, q=math.inf, s=-0.25),
    "p=q=inf": dict(p=math.inf, q=math.inf),
}


@pytest.mark.parametrize("size", [1024, 4096])
@pytest.mark.parametrize("case", sorted(NORMS))
def test_mixed_norm_on_two_threads_matches_one_bytewise(size, case, monkeypatch):
    trace = _trace(size)
    kw = NORMS[case]
    assert len(spectral._row_blocks(trace.coeffs)) > 1
    _cpus(monkeypatch, 1)
    want = mixed_norm(trace, **kw)
    _cpus(monkeypatch, 2)
    _Recording.seen = []
    trace.coeffs = trace.coeffs.view(_Recording)
    got = mixed_norm(trace, **kw)
    assert got.hex() == want.hex()
    assert 0 < _Recording.seen.count(False) < len(_Recording.seen)


def test_a_shape_error_on_the_helper_reaches_the_caller(monkeypatch):
    _cpus(monkeypatch, 2)
    trace = _trace(1024)
    helper = []

    def func(v):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.01)
            return G5.apply_values(v)
        helper.append(v.shape)
        return v[..., ::2]

    with pytest.raises(ValueError, match="pointwise map returned shape") as info:
        apply_pointwise_matrix(trace.coeffs, trace.grid, func)
    assert helper and info.value.args[0].startswith(
        f"pointwise map returned shape {helper[0][:-1] + (trace.grid.size,)}")
    # the helper is free again and maps the next call's blocks
    _cpus(monkeypatch, 1)
    want = apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values)
    _cpus(monkeypatch, 2)
    seen = []
    got = apply_pointwise_matrix(trace.coeffs, trace.grid, _recording(G5.apply_values, seen))
    _same_bytes(got, want)
    assert False in seen


@pytest.mark.parametrize("on_helper", [False, True])
def test_errstate_holds_on_both_threads(on_helper, monkeypatch):
    """np.errstate is a context variable: the helper runs in a copy of the caller's context."""
    _cpus(monkeypatch, 2)
    trace = _trace(1024)
    overflowed = []

    def func(v):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller:
            time.sleep(0.01)
        if on_caller != on_helper:
            overflowed.append(on_caller)
            return v * 1e308 * 1e308
        return np.array(v)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            apply_pointwise_matrix(trace.coeffs, trace.grid, func)
    assert overflowed and all(on_caller != on_helper for on_caller in overflowed)
    with np.errstate(all="ignore"):
        out = apply_pointwise_matrix(trace.coeffs, trace.grid, func)
    assert not np.all(np.isfinite(out))


def test_one_block_or_one_cpu_maps_on_the_caller(monkeypatch):
    grid = GRIDS[1024]
    short = free_evolution(gaussian_profile(grid, 0.3), np.linspace(0.0, 0.5, 65))
    assert len(spectral._row_blocks(short.coeffs)) == 1
    seen = []
    _cpus(monkeypatch, 2)
    apply_pointwise_matrix(short.coeffs, grid, _recording(G5.apply_values, seen))
    _cpus(monkeypatch, 1)
    trace = _trace(1024)
    apply_pointwise_matrix(trace.coeffs, grid, _recording(G5.apply_values, seen))
    assert seen == [True] * (1 + len(spectral._row_blocks(trace.coeffs)))


def test_no_helper_thread_outlives_a_map(monkeypatch):
    _cpus(monkeypatch, 2)
    trace = _trace(1024)
    seen = []
    apply_pointwise_matrix(trace.coeffs, trace.grid, _recording(G5.apply_values, seen))
    assert False in seen
    assert not [t for t in threading.enumerate() if t.name == "gkdvlab-rows"]


def test_a_map_inside_a_map_runs_on_its_own_thread(monkeypatch):
    """A func that maps a trace itself finds the helper taken: no deadlock, the same bytes."""
    trace = _trace(1024)
    _cpus(monkeypatch, 1)
    want = (apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values),
            mixed_norm(trace, 4.0, 6.0))
    _cpus(monkeypatch, 2)
    inner = []

    def func(v):
        inner.append(mixed_norm(trace, 4.0, 6.0).hex())
        return G5.apply_values(v)

    got = []
    outer = threading.Thread(target=lambda: got.append(
        apply_pointwise_matrix(trace.coeffs, trace.grid, func)), daemon=True)
    outer.start()
    outer.join(timeout=120)
    assert not outer.is_alive() and len(got) == 1
    _same_bytes(got[0], want[0])
    assert set(inner) == {want[1].hex()}


def test_concurrent_callers_each_get_their_own_bytes(monkeypatch):
    """Four threads map their own traces at once, with a short switch interval:
    whichever holds the helper, each gets the bytes of a one-thread map, and
    none waits forever."""
    times = np.linspace(0.0, 2.0, 257)
    traces = [free_evolution(random_band_limited(GRIDS[1024], 1.0, 100, seed), times)
              for seed in range(4)]
    _cpus(monkeypatch, 1)
    want = [(apply_pointwise_matrix(t.coeffs, t.grid, G5.apply_values),
             mixed_norm(t, 4.0, 6.0, 0.5)) for t in traces]
    _cpus(monkeypatch, 2)
    got = [[] for _ in traces]

    def work(i):
        try:
            for _ in range(3):
                got[i].append((apply_pointwise_matrix(traces[i].coeffs, traces[i].grid,
                                                      G5.apply_values),
                               mixed_norm(traces[i], 4.0, 6.0, 0.5)))
        except BaseException as exc:  # reported below
            got[i].append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(len(traces))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for mine, (rows, norm) in zip(got, want):
        assert len(mine) == 3
        for result in mine:
            assert isinstance(result, tuple), result
            _same_bytes(result[0], rows)
            assert result[1].hex() == norm.hex()
