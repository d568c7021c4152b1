"""The row kernels on the two threads of a verify leg: the same bytes as alone, and the same failures.

apply_pointwise_matrix and mixed_norm map their row blocks on the calling
thread only.  A verify leg maps its ensemble samples on the calling thread
and a helper thread through spectral._map_items, and a kernel called inside
a sample there maps its rows in half blocks.  spectral._cpus is the seam
that turns the leg's helper on or off here.
"""

import math
import threading

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


def _on_two_threads(task):
    """task() once on each thread of one _map_items call, both at the same time,
    as two ensemble samples run; the results in no particular order."""
    together, got = threading.Barrier(2), {}

    def item(_):
        together.wait(timeout=60)  # one item on each thread
        got[threading.current_thread()] = task()

    spectral._map_items([0, 1], item)
    assert len(got) == 2
    return list(got.values())


def _recording(func, seen):
    def wrapped(v):
        seen.append(threading.current_thread())
        return func(v)
    return wrapped


class _Recording(np.ndarray):
    """An array whose row slices are recorded, by thread, as they are taken."""

    seen: list = []

    def __getitem__(self, key):
        _Recording.seen.append(threading.current_thread())
        return np.asarray(self)[key]


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pad", [2, 3])
@pytest.mark.parametrize("size", [1024, 4096])
@pytest.mark.parametrize("stack", [False, True])
def test_pointwise_map_on_two_threads_matches_one_bytewise(size, pad, stack, monkeypatch):
    """Each thread of a leg maps in half blocks, on itself, with the bytes of a lone map."""
    trace = _trace(size)
    coeffs = np.stack((trace.coeffs, trace.coeffs[::-1])) if stack else trace.coeffs
    func = (lambda w: w[0] * w[1]) if stack else G5.apply_values

    def mapped(f):  # the product of a stack has the rows of one trace
        return apply_pointwise_matrix(coeffs, trace.grid, f, pad=pad,
                                      out=np.empty(trace.coeffs.shape, dtype=complex))

    halves = len(spectral._row_blocks(coeffs, halved=True))
    assert 1 < len(spectral._row_blocks(coeffs)) < halves
    want = mapped(func)
    _cpus(monkeypatch, 2)
    alone = []

    def task():
        seen = []
        rows = mapped(_recording(func, seen))
        alone.append(seen == [threading.current_thread()] * halves)
        return rows

    for got in _on_two_threads(task):
        _same_bytes(got, want)
    assert alone == [True, True]


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
    """Each thread of a leg takes its trace's rows in half blocks, with the bits of a lone norm."""
    trace = _trace(size)
    kw = NORMS[case]
    halves = len(spectral._row_blocks(trace.coeffs, halved=True))
    assert 1 < len(spectral._row_blocks(trace.coeffs)) < halves
    want = mixed_norm(trace, **kw)
    _cpus(monkeypatch, 2)
    _Recording.seen = []
    trace.coeffs = trace.coeffs.view(_Recording)
    got = _on_two_threads(lambda: mixed_norm(trace, **kw))
    assert [g.hex() for g in got] == [want.hex()] * 2
    # each thread sizes its work from its first half block, then maps every one
    assert sorted(_Recording.seen.count(t) for t in set(_Recording.seen)) == [halves + 1] * 2


def test_a_shape_error_on_the_helper_reaches_the_caller(monkeypatch):
    """A map's shape error inside a sample on the leg's helper thread is the leg's error."""
    _cpus(monkeypatch, 2)
    trace = _trace(1024)
    helper = []

    def func(v):
        if threading.current_thread() is threading.main_thread():
            return G5.apply_values(v)
        helper.append(v.shape)
        return v[..., ::2]

    with pytest.raises(ValueError, match="pointwise map returned shape") as info:
        _on_two_threads(lambda: apply_pointwise_matrix(trace.coeffs, trace.grid, func))
    assert helper and info.value.args[0].startswith(
        f"pointwise map returned shape {helper[0][:-1] + (trace.grid.size,)}")
    # the helper is free again and the next leg maps on both threads
    want = apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values)
    for got in _on_two_threads(
            lambda: apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values)):
        _same_bytes(got, want)


@pytest.mark.parametrize("on_helper", [False, True])
def test_errstate_holds_on_both_threads(on_helper, monkeypatch):
    """np.errstate is a context variable: the leg's helper runs in a copy of the caller's context."""
    _cpus(monkeypatch, 2)
    trace = _trace(1024)
    overflowed = []

    def func(v):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller != on_helper:
            overflowed.append(on_caller)
            return v * 1e308 * 1e308
        return np.array(v)

    def task():
        return apply_pointwise_matrix(trace.coeffs, trace.grid, func)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _on_two_threads(task)
    assert overflowed and all(on_caller != on_helper for on_caller in overflowed)
    with np.errstate(all="ignore"):
        outs = _on_two_threads(task)
    assert sorted(bool(np.all(np.isfinite(out))) for out in outs) == [False, True]


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
    assert seen == [threading.main_thread()] * (1 + len(spectral._row_blocks(trace.coeffs)))


def test_no_helper_thread_outlives_a_map(monkeypatch):
    """A map of several blocks on two CPUs starts no thread: it maps on the caller, in whole blocks."""
    _cpus(monkeypatch, 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a row kernel started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    trace = _trace(1024)
    blocks = len(spectral._row_blocks(trace.coeffs))
    assert blocks > 1
    seen = []
    apply_pointwise_matrix(trace.coeffs, trace.grid, _recording(G5.apply_values, seen))
    mixed_norm(trace, 4.0, 6.0, 0.5)
    assert seen == [threading.main_thread()] * blocks
    assert not [t for t in threading.enumerate() if t.name == "gkdvlab-rows"]


def test_a_map_inside_a_map_runs_on_its_own_thread():
    """A func that maps a trace itself: no deadlock, the same bytes."""
    trace = _trace(1024)
    want = (apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values),
            mixed_norm(trace, 4.0, 6.0))
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
