"""The row kernels read no thread state: their blocks follow the work-buffer scope alone.

apply_pointwise_matrix, mixed_norm, retarded_integral and the Picard pass
(solver._duhamel_rows, duhamel_map) map their rows on the calling thread.
Inside a spectral._work_buffer() scope, which each thread of a verify leg
and each Picard loop holds, they take half blocks; outside every scope,
whole blocks.  Rows never mix, so both give the same bytes.  No test here
starts a thread; tests/test_ensemble_threads.py checks the leg's threads.
"""

import contextlib
import math
import threading

import numpy as np
import pytest

from gkdvlab import solver, spacetime, spectral
from gkdvlab.solver import NonlinearityG, SolverConfig, retarded_integral
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


def _recording(func, seen):
    def wrapped(v):
        seen.append(threading.current_thread())
        return func(v)
    return wrapped


def _counting(monkeypatch, module, name):
    """Record a call of module.name per call, for the kernels that make one per row block."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pad", [2, 3])
@pytest.mark.parametrize("size", [1024, 4096])
@pytest.mark.parametrize("stack", [False, True])
def test_pointwise_map_on_two_threads_matches_one_bytewise(size, pad, stack):
    """Inside a work-buffer scope, as on either thread of a verify leg, a map takes
    half blocks on the calling thread, with the bytes of a map outside every scope."""
    trace = _trace(size)
    coeffs = np.stack((trace.coeffs, trace.coeffs[::-1])) if stack else trace.coeffs
    func = (lambda w: w[0] * w[1]) if stack else G5.apply_values

    def mapped(seen):  # the product of a stack has the rows of one trace
        return apply_pointwise_matrix(coeffs, trace.grid, _recording(func, seen), pad=pad,
                                      out=np.empty(trace.coeffs.shape, dtype=complex))

    whole, halves = [], []
    want = mapped(whole)
    with spectral._work_buffer():
        got = mapped(halves)
        assert len(halves) == len(spectral._row_blocks(coeffs))
    assert 1 < len(whole) == len(spectral._row_blocks(coeffs)) < len(halves)
    assert set(whole + halves) == {threading.current_thread()}
    _same_bytes(got, want)


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
    """Inside a work-buffer scope, as on either thread of a verify leg, a norm takes
    its trace's rows in half blocks, with the bits of a norm outside every scope."""
    trace = _trace(size)
    kw = NORMS[case]
    blocks = _counting(monkeypatch, spacetime, "_real_samples")  # one per block
    want = mixed_norm(trace, **kw)
    whole = len(blocks)
    blocks.clear()
    with spectral._work_buffer():
        got = mixed_norm(trace, **kw)
        assert len(blocks) == len(spectral._row_blocks(trace.coeffs))
    assert 1 < whole == len(spectral._row_blocks(trace.coeffs)) < len(blocks)
    assert got.hex() == want.hex()


@pytest.mark.parametrize("size", [1024, 4096])
def test_retarded_and_picard_kernels_in_a_work_buffer_scope_match_them_outside_bytewise(
        size, monkeypatch):
    """retarded_integral and the Picard pass take half blocks inside a scope, with the
    bytes of their whole blocks outside; duhamel_map opens a scope of its own."""
    trace = _trace(size)
    u0 = trace.field(0)
    cfg = SolverConfig(grid=trace.grid, t_start=0.0, t_end=2.0)
    steps = []
    rows_of = solver._retarded_rows

    def counting(*args):  # the retarded block step runs once per block in every kernel
        up, step = rows_of(*args)

        def counted(*block):
            steps.append(1)
            step(*block)

        return up, counted

    monkeypatch.setattr(solver, "_retarded_rows", counting)

    def duhamel_rows():
        rows = trace.coeffs.copy()
        solver._duhamel_rows(rows, trace.times, u0, G5, cfg.pad)
        return rows

    def run(kernel):
        steps.clear()
        return kernel(), len(steps)

    kernels = (lambda: retarded_integral(trace).coeffs, duhamel_rows)
    outside = [run(k) for k in kernels]
    with spectral._work_buffer():
        halves = len(spectral._row_blocks(trace.coeffs))
        inside = [run(k) for k in kernels]
    whole = len(spectral._row_blocks(trace.coeffs))
    assert 1 < whole < halves
    assert [n for _, n in outside] == [whole] * 2 and [n for _, n in inside] == [halves] * 2
    for (want, _), (got, _) in zip(outside, inside):
        _same_bytes(got, want)
    mapped, blocks = run(lambda: solver.duhamel_map(trace, u0, G5, cfg).coeffs)
    assert blocks == halves and spectral._work.get() is None
    _same_bytes(mapped, outside[1][0])


def test_one_block_or_one_cpu_maps_on_the_caller(monkeypatch):
    """The CPUs change no kernel's blocks: outside a scope a trace of one block maps
    in one call of func and a longer one in whole blocks, inside a scope both in
    half blocks, every call on the calling thread."""
    grid = GRIDS[1024]
    short = free_evolution(gaussian_profile(grid, 0.3), np.linspace(0.0, 0.5, 65))
    trace = _trace(1024)
    assert len(spectral._row_blocks(short.coeffs)) == 1
    calls = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        for scope in (contextlib.nullcontext, spectral._work_buffer):
            seen = []
            with scope():
                for c in (short.coeffs, trace.coeffs):
                    apply_pointwise_matrix(c, grid, _recording(G5.apply_values, seen))
                want = sum(len(spectral._row_blocks(c)) for c in (short.coeffs, trace.coeffs))
            assert seen == [threading.main_thread()] * want
            calls[cpus, scope] = len(seen)
    whole, halves = calls[1, contextlib.nullcontext], calls[1, spectral._work_buffer]
    assert whole == 1 + len(spectral._row_blocks(trace.coeffs)) and halves > whole + 1
    assert calls[2, contextlib.nullcontext] == whole and calls[2, spectral._work_buffer] == halves


def test_no_helper_thread_outlives_a_map(monkeypatch):
    """A row kernel starts no thread, on two CPUs too, inside a work-buffer scope or outside."""
    _cpus(monkeypatch, 2)

    def no_thread(*args, **kwargs):
        raise AssertionError("a row kernel started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    trace = _trace(1024)
    for scope in (contextlib.nullcontext, spectral._work_buffer):
        with scope():
            blocks = len(spectral._row_blocks(trace.coeffs))
            seen = []
            apply_pointwise_matrix(trace.coeffs, trace.grid, _recording(G5.apply_values, seen))
            mixed_norm(trace, 4.0, 6.0, 0.5)
            retarded_integral(trace)
        assert blocks > 1 and seen == [threading.main_thread()] * blocks
    assert not [t for t in threading.enumerate() if t.name == "gkdvlab-rows"]


def test_a_map_inside_a_map_gives_the_same_bytes():
    """Outside every scope, a func that maps a trace itself gets and gives the lone bytes."""
    trace = _trace(1024)
    want = (apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values),
            mixed_norm(trace, 4.0, 6.0))
    inner = []

    def func(v):
        inner.append(mixed_norm(trace, 4.0, 6.0).hex())
        return G5.apply_values(v)

    _same_bytes(apply_pointwise_matrix(trace.coeffs, trace.grid, func), want[0])
    assert len(inner) == len(spectral._row_blocks(trace.coeffs)) and set(inner) == {want[1].hex()}
