"""Ensemble samples on two threads: the same reports as on one, and the same failures.

estimates._ensemble maps a leg's samples on the calling thread and a
helper thread, started for the leg and joined before it ends, through
spectral._map_items.  spectral._cpus is the seam that
turns the helper on or off here.  A sample that fails makes the run fail
with the error of the lowest failing sample, as a run on one thread does;
a shape error or np.errstate on the helper reaches the caller as its own.
"""

import sys
import threading
import time
from contextvars import copy_context
from dataclasses import replace

import numpy as np
import pytest

from gkdvlab import spacetime, spectral
from gkdvlab.cli import main
from gkdvlab.estimates import ESTIMATE_IDS, EstimateSpec, _REGISTRY, _ensemble
from gkdvlab.solver import NonlinearityG
from gkdvlab.spacetime import _airy_table, _phi2_weights, _shared_tables, free_evolution
from gkdvlab.spectral import Grid1D, apply_pointwise_matrix, gaussian_profile, random_band_limited

G5 = NonlinearityG(alpha=5.0)
SMALL = ["--size", "64", "--half-length", "16", "--ensemble", "6", "--seed", "3"]
TRACED = [i for i in ESTIMATE_IDS if not _REGISTRY[i].static]
ROWS = dict(_REGISTRY)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(spectral, "_cpus", lambda: n)


def _verify(tmp, name, argv, capsys, monkeypatch):
    """Exit code and standard error of verify, run in tmp / name: report.json echoes --out."""
    (tmp / name).mkdir()
    monkeypatch.chdir(tmp / name)
    code = main(["verify", *argv, "--out", "out"])
    return code, capsys.readouterr().err


def _slow_caller():
    """Slow the calling thread down, so the helper takes samples however busy the machine is."""
    if threading.current_thread() is threading.main_thread():
        time.sleep(0.01)


def _patched(monkeypatch, estimate_id, wrap):
    """Patch the registry row of estimate_id so its samples go through wrap(one, index, args)."""
    row = ROWS[estimate_id]

    def run(spec, rp):
        one, extras = row.run(spec, rp)
        return (lambda *args: wrap(one, args[-1].spawn_key[-1], args)), extras

    monkeypatch.setitem(_REGISTRY, estimate_id, replace(row, run=run))


@pytest.mark.parametrize("estimate_id", TRACED)
def test_two_threads_write_the_reports_of_one(estimate_id, tmp_path, monkeypatch, capsys):
    argv = ["--id", estimate_id, *SMALL]
    _cpus(monkeypatch, 1)
    want = _verify(tmp_path, "one", argv, capsys, monkeypatch)
    _cpus(monkeypatch, 2)
    got = _verify(tmp_path, "two", argv, capsys, monkeypatch)
    assert got == want
    for name in ("report.json", "samples.csv"):
        two, one = (tmp_path / run / "out" / name for run in ("two", "one"))
        assert two.read_bytes() == one.read_bytes()


def test_the_helper_takes_samples_and_one_cpu_never_wakes_it(tmp_path, monkeypatch, capsys):
    seen = []

    def wrap(one, i, args):
        seen.append(threading.current_thread() is threading.main_thread())
        _slow_caller()
        return one(*args)

    _patched(monkeypatch, "stein_tomas", wrap)
    argv = ["--id", "stein_tomas", *SMALL]
    _cpus(monkeypatch, 1)
    want = _verify(tmp_path, "one", argv, capsys, monkeypatch)
    assert seen and all(seen)
    seen.clear()
    _cpus(monkeypatch, 2)
    assert _verify(tmp_path, "two", argv, capsys, monkeypatch) == want
    assert 0 < seen.count(False) < len(seen)
    assert (tmp_path / "two/out/samples.csv").read_bytes() \
        == (tmp_path / "one/out/samples.csv").read_bytes()


def test_no_helper_thread_outlives_verify(tmp_path, monkeypatch, capsys):
    seen = []

    def wrap(one, i, args):
        seen.append(threading.current_thread() is threading.main_thread())
        _slow_caller()
        return one(*args)

    _patched(monkeypatch, "stein_tomas", wrap)
    _cpus(monkeypatch, 2)
    assert _verify(tmp_path, "two", ["--id", "stein_tomas", *SMALL], capsys, monkeypatch)[0] == 0
    assert False in seen
    assert not [t for t in threading.enumerate() if t.name == "gkdvlab-rows"]


def test_the_lowest_failing_sample_is_reported(tmp_path, monkeypatch, capsys):
    """Samples 0 and 3 fail, and sample 0 only once sample 3 has failed on the
    other thread: sample 0 is reported, the CLI exits as on one thread, and
    no sample starts after the first failure."""
    started, failed, third = [], [], threading.Event()

    def wrap(one, i, args):
        started.append(i)
        if i not in (0, 3):
            return one(*args)
        if i == 0 and spectral._cpus() > 1:
            assert third.wait(timeout=60)
        failed.append((i, threading.current_thread()))
        third.set()
        raise ValueError(f"sample {i} failed")

    _patched(monkeypatch, "stein_tomas", wrap)
    argv = ["--id", "stein_tomas", *SMALL]
    _cpus(monkeypatch, 1)
    want = _verify(tmp_path, "one", argv, capsys, monkeypatch)
    assert want == (1, "error: sample 0 failed\n") and [i for i, _ in failed] == [0]
    failed.clear()
    third.clear()
    _cpus(monkeypatch, 2)
    assert _verify(tmp_path, "two", argv, capsys, monkeypatch) == want
    assert [i for i, _ in failed] == [3, 0] and sorted(started) == [0, 0, 1, 2, 3]
    assert {t.name for _, t in failed} == {threading.current_thread().name, "gkdvlab-rows"}
    assert not (tmp_path / "two/out/report.json").exists()
    # the helper is free again: the next run maps on both threads
    _patched(monkeypatch, "stein_tomas", lambda one, i, args: one(*args))
    assert _verify(tmp_path, "after", argv, capsys, monkeypatch)[0] == 0


def test_no_sample_starts_after_a_failure(tmp_path, monkeypatch, capsys):
    """Sample 3 fails while sample 0 runs on the other thread: once sample 0 is
    done, that thread takes no further sample."""
    started, third = [], threading.Event()

    def wrap(one, i, args):
        started.append(i)
        if i == 0 and spectral._cpus() > 1:
            assert third.wait(timeout=60)
        if i == 3:
            third.set()
            raise ValueError(f"sample {i} failed")
        return one(*args)

    _patched(monkeypatch, "stein_tomas", wrap)
    argv = ["--id", "stein_tomas", *SMALL]
    _cpus(monkeypatch, 1)
    want = _verify(tmp_path, "one", argv, capsys, monkeypatch)
    assert want == (1, "error: sample 3 failed\n") and started == [0, 1, 2, 3]
    started.clear()
    third.clear()
    _cpus(monkeypatch, 2)
    assert _verify(tmp_path, "two", argv, capsys, monkeypatch) == want
    assert sorted(started) == [0, 1, 2, 3]


def test_a_degenerate_denominator_names_the_sample_of_one_thread(tmp_path, monkeypatch, capsys):
    """Samples 1 and 4 have a zero right-hand side, and sample 1 is done only once
    sample 4 is: the error names sample 1, as on one thread."""
    fourth = threading.Event()

    def wrap(one, i, args):
        num, den = one(*args)
        if i == 1 and spectral._cpus() > 1:
            assert fourth.wait(timeout=60)
        if i == 4:
            fourth.set()
        return (num, 0.0) if i in (1, 4) else (num, den)

    _patched(monkeypatch, "leibniz", wrap)
    argv = ["--id", "leibniz", *SMALL]
    _cpus(monkeypatch, 1)
    want = _verify(tmp_path, "one", argv, capsys, monkeypatch)
    assert want == (1, "error: degenerate right-hand side for sample 1\n")
    _cpus(monkeypatch, 2)
    assert _verify(tmp_path, "two", argv, capsys, monkeypatch) == want


def test_a_multi_block_map_inside_a_sample_maps_alone(monkeypatch):
    """Each sample maps a trace of several row blocks and one of a single block:
    on the sample's own thread, in the half blocks of its thread's work-buffer
    scope (the single block halved too), with the bytes of a map outside
    every scope, and no wait."""
    grid = Grid1D(256.0, 1024)
    long = free_evolution(random_band_limited(grid, 1.0, 128, 9), np.linspace(0.0, 2.0, 257))
    short = long.restricted(1.0).coeffs
    assert len(spectral._row_blocks(long.coeffs)) > 1 and len(spectral._row_blocks(short)) == 1
    with spectral._work_buffer():  # the half blocks of a scope
        halves = [len(spectral._row_blocks(c)) for c in (long.coeffs, short)]
    traces = [(c, apply_pointwise_matrix(c, grid, G5.apply_values).tobytes(), n)
              for c, n in zip((long.coeffs, short), halves)]
    assert halves[0] > len(spectral._row_blocks(long.coeffs)) and halves[1] == 2
    runs = []

    def one(grid_, times, band, decay, child):
        for coeffs, want, halves in traces:
            mine, seen = threading.current_thread(), []

            def func(v):
                seen.append(threading.current_thread())
                if seen[-1] is outer:  # so the helper takes samples however busy the machine is
                    time.sleep(0.002)
                return G5.apply_values(v)

            rows = apply_pointwise_matrix(coeffs, grid, func)
            runs.append((mine, set(seen) == {mine} and len(seen) == halves
                         and rows.tobytes() == want))
        return 1.0, 1.0

    _cpus(monkeypatch, 2)
    spec = EstimateSpec("stein_tomas", size=64, half_length=16.0, ensemble=4)
    done = []
    outer = threading.Thread(target=lambda: done.append(_ensemble(spec, one)), daemon=True)
    outer.start()
    outer.join(timeout=120)
    assert not outer.is_alive() and len(done) == 1
    assert len(runs) == 8 and len({mine for mine, _ in runs}) == 2
    assert all(ok for _, ok in runs)


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


def _long_trace():
    """257 rows at N = 1024: several row blocks."""
    grid = Grid1D(256.0, 1024)
    datum = gaussian_profile(grid, 0.3) + random_band_limited(grid, 1.0, 128, 1024)
    return free_evolution(datum, np.linspace(0.0, 2.0, 257))


def test_a_shape_error_on_the_helper_reaches_the_caller(monkeypatch):
    """A map's shape error inside a sample on the leg's helper thread is the leg's
    error, raised once the helper is joined."""
    _cpus(monkeypatch, 2)
    trace = _long_trace()
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
    assert not [t for t in threading.enumerate() if t.name == "gkdvlab-rows"]
    # the next call maps on both threads again
    want = apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values)
    for got in _on_two_threads(
            lambda: apply_pointwise_matrix(trace.coeffs, trace.grid, G5.apply_values)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("on_helper", [False, True])
def test_errstate_holds_on_both_threads(on_helper, monkeypatch):
    """np.errstate is a context variable: the leg's helper runs in a copy of the caller's context."""
    _cpus(monkeypatch, 2)
    trace = _long_trace()
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


def test_two_threads_in_one_scope_build_a_table_once(monkeypatch):
    """Both threads of a leg ask for the same phase table at the same moment:
    it is built once, and both get the same object."""
    grid = Grid1D(16.0, 64)
    times = np.linspace(0.0, 1.0, 33)
    builds = []

    def slow_plan(half_length, size, _plan=spacetime._plan):
        builds.append(threading.current_thread())
        time.sleep(0.02)  # the other thread reaches the memo while the table is built
        return _plan(half_length, size)

    monkeypatch.setattr(spacetime, "_plan", slow_plan)
    _cpus(monkeypatch, 2)
    together = threading.Barrier(2)
    got = {}

    def item(_):
        together.wait(timeout=60)  # one item on each thread, at the same time
        got[threading.current_thread()] = _airy_table(grid, times, 1j)

    with _shared_tables():
        spectral._map_items([0, 1], item)
    assert len(got) == 2 and len({id(table) for table in got.values()}) == 1
    assert len(builds) == 1


def test_the_shared_memo_stays_bounded_under_four_threads():
    """Four threads in one scope, more than the CPUs, cycle through more tables
    and weight rows than it holds, switching often: the least recently used of
    each kind goes without a race."""
    grid = Grid1D(64.0, 256)  # tables large enough that numpy lets the others run
    keys = [np.linspace(0.0, 1.0 + k / 8, 65) for k in range(5)]
    want = [_airy_table(grid, times, 1j).tobytes() for times in keys]
    steps = [1 / 64, 1 / 32, 1 / 16]
    rows = [_phi2_weights(grid, h).tobytes() for h in steps]
    errors = []

    def work():
        try:
            for _ in range(100):
                for times, table in zip(keys, want):
                    assert _airy_table(grid, times, 1j).tobytes() == table
                for h, row in zip(steps, rows):
                    assert _phi2_weights(grid, h).tobytes() == row
        except BaseException as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _shared_tables():
            workers = [threading.Thread(target=copy_context().run, args=(work,), daemon=True)
                       for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
            kinds = [entry.ndim for entry in spacetime._tables.get().values()]
            assert kinds.count(2) <= spacetime._TABLES_PER_SCOPE
            assert kinds.count(1) <= spacetime._TABLES_PER_SCOPE
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
