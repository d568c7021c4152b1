"""Spectral grid, transforms, and Fourier multipliers on a periodic interval.

The domain is the symmetric interval [-L, L) with N uniform points, used as a
periodic surrogate for the whole line.  All transforms carry the continuum
normalization with the symmetric 1/sqrt(2*pi) convention, so coefficient
values approximate the continuum Fourier transform evaluated on the frequency
lattice xi_k = k*pi/L, k = -N/2 .. N/2-1, independent of N.

Every field is real, so its coefficients satisfy c(-xi) = conj(c(xi)) and
its k >= 0 half-spectrum carries it: fields, traces and kernels hold N/2 + 1
modes per row in rfft layout (k = 0 .. N/2-1, then the unpaired -N/2 mode),
and the transforms are rfft and irfft.  Any other layout raises ValueError.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with its conjugate frequency lattice.

    Attributes:
        half_length: L, half the period.
        size: N, number of points (even, at least 8).
        dx: spacing 2L/N of the physical lattice.
        dxi: spacing pi/L of the frequency lattice.
        points: x_j = -L + j*dx for j = 0..N-1.
        frequencies: xi_k = k*pi/L for k = -N/2..N/2-1, ascending.
    """

    half_length: float
    size: int
    dx: float = field(init=False)
    dxi: float = field(init=False)
    points: np.ndarray = field(init=False, repr=False)
    frequencies: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        L, N = self.half_length, self.size
        if not (0 < L < math.inf):
            raise ValueError(f"half_length must be positive and finite, got {L}")
        if N < 8 or N % 2 != 0:
            raise ValueError(f"size must be even and >= 8, got {N}")
        object.__setattr__(self, "dx", 2.0 * L / N)
        object.__setattr__(self, "dxi", math.pi / L)
        object.__setattr__(self, "points", -L + self.dx * np.arange(N))
        k = np.arange(-N // 2, N // 2)
        object.__setattr__(self, "frequencies", k * (math.pi / L))

    @property
    def max_frequency(self) -> float:
        return float(-self.frequencies[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self.half_length == other.half_length and self.size == other.size

    def __hash__(self) -> int:
        return hash((self.half_length, self.size))

    def refined(self, factor: int) -> "Grid1D":
        """The grid on the same interval with factor times as many points.

        The result is cached and shared, so its arrays are read-only.
        """
        return _plan(self.half_length, factor * self.size).grid


# A run touches a handful of grids; the bound only caps sweeps over many.
_PLAN_LIMIT = 32
_plans: dict = {}


class _Plan:
    """Read-only lattice and transform tables of one (half_length, size) grid.

    xi is the half-lattice of a real field (k = 0 .. N/2-1, then -N/2) and
    xi3 the product xi*xi*xi, which is odd bitwise, unlike numpy's SIMD
    array power xi**3.  half_forward and half_inverse are the scales on
    bins k = 0 .. N/2: (-1)^k dx / sqrt(2 pi) after an rfft, and
    (-1)^k dxi / sqrt(2 pi) before an unnormalized irfft, stored as complex
    (r, +0.0): numpy casts a real row so, through a buffer, to multiply.
    """

    __slots__ = ("grid", "xi", "xi3", "half_forward", "half_inverse")

    def __init__(self, half_length: float, size: int) -> None:
        grid = Grid1D(half_length, size)
        k = _fold(np.arange(-size // 2, size // 2))
        # (-1)^k shifts the DFT origin to x = -L.
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        self.grid = grid
        self.xi = k * (math.pi / half_length)  # as grid.frequencies, folded
        self.xi3 = self.xi * self.xi * self.xi
        self.half_forward = ((grid.dx / SQRT_2PI) * signs).astype(complex)
        self.half_inverse = ((grid.dxi / SQRT_2PI) * signs).astype(complex)
        for arr in (grid.points, grid.frequencies, self.xi, self.xi3,
                    self.half_forward, self.half_inverse):
            arr.flags.writeable = False


def _plan(half_length: float, size: int) -> _Plan:
    key = (half_length, size)
    plan = _plans.get(key)
    if plan is None:
        plan = _Plan(half_length, size)
        if len(_plans) >= _PLAN_LIMIT:  # pop: the threads of a leg may race here
            _plans.pop(next(iter(_plans)), None)
        _plans[key] = plan
    return plan


# -- The half-spectrum of a real field -----------------------------------------
#
# A real field's coefficients satisfy c(-xi) = conj(c(xi)), so the modes
# k = 0 .. N/2-1 carry it.  Its half-spectrum appends the unpaired -N/2 mode
# to them: the first N/2 + 1 entries of the coefficients in FFT bin order,
# the layout of an rfft.  The full band, in ascending order, is only a
# reference layout for tests and the complex one-sided bands of the
# counterexample.

def _fold(a: np.ndarray) -> np.ndarray:
    """Half-spectrum (last axis) of a full-band array: k = 0 .. N/2-1, then -N/2."""
    half = a.shape[-1] // 2
    return np.concatenate((a[..., half:], a[..., :1]), axis=-1)


def _real_ends(half: np.ndarray) -> np.ndarray:
    """Zero the imaginary parts of the zero and unpaired modes of half-spectra, in place."""
    half[..., 0].imag = 0.0
    half[..., -1].imag = 0.0
    return half


_LAYOUT = "the k >= 0 half-spectrum of a real field, N/2 + 1 modes in rfft layout"


def _check_modes(modes: np.ndarray, grid: Grid1D) -> None:
    """Raise unless the last axis holds the N/2 + 1 half-spectrum modes."""
    if np.shape(modes)[-1:] != (grid.size // 2 + 1,):
        raise ValueError(f"coeffs shape {np.shape(modes)} on {grid.size} points: "
                         f"expected {grid.size // 2 + 1} modes per row, {_LAYOUT}")


def _real_samples(coeffs: np.ndarray, grid: Grid1D, pad: int, out=None, spec=None) -> np.ndarray:
    """Real samples of half-spectra (last axis) on the grid refined by pad.

    One irfft: the unpaired -N/2 mode goes to bin N/2, as it is at pad 1,
    where that bin is the Nyquist bin, and as half its conjugate at
    pad >= 2, where the irfft's implied mirror puts the other half back in
    bin -N/2.  So the samples are the real part of the full band's inverse
    transform, zero-padded by pad, formed in out and spec if given, scaled
    by the plan's half_inverse.
    """
    half = grid.size // 2
    spec = np.multiply(coeffs, _plan(grid.half_length, grid.size).half_inverse, out=spec)
    if pad > 1:
        spec[..., half] = 0.5 * np.conjugate(spec[..., half])
    return np.fft.irfft(spec, n=pad * grid.size, axis=-1, norm="forward", out=out)


def values_to_coeffs(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Continuum-normalized forward transform of real samples along the last axis.

    Implements hat f(xi_k) = (dx / sqrt(2 pi)) * sum_j f(x_j) exp(-i x_j xi_k)
    via an rfft plus an alternating phase; exact for band-limited data.  The
    result is the half-spectrum, with real zero and unpaired modes.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.size:
        raise ValueError(f"last axis has length {values.shape[-1]}, expected {grid.size}")
    if not np.isrealobj(values):
        raise ValueError(f"samples must be real: fields are stored as {_LAYOUT}")
    plan = _plan(grid.half_length, grid.size)
    return _real_ends(np.fft.rfft(values, axis=-1) * plan.half_forward)


def coeffs_to_values(coeffs: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Inverse of values_to_coeffs along the last axis: real samples (an irfft).

    Implements f(x_j) = (dxi / sqrt(2 pi)) * sum_k hat f(xi_k) exp(i x_j xi_k)
    over the full band the half-spectra stand for.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    _check_modes(coeffs, grid)
    return _real_samples(coeffs, grid, 1)


class SpectralField:
    """A single-time real field stored by its Fourier coefficients.

    modes is its half-spectrum: k = 0 .. N/2-1, then the unpaired -N/2 mode,
    N/2 + 1 modes in rfft layout.  The modes k < 0 are the conjugates of
    modes -k and are not stored.  is_real is always True.
    """

    def __init__(self, grid: Grid1D, coeffs) -> None:
        self.grid = grid
        self.modes = coeffs
        # the checks stay in __post_init__, where they were in the
        # dataclass: perfbench's tracer times field construction there
        self.__post_init__()

    def __post_init__(self) -> None:
        modes = np.asarray(self.modes, dtype=complex)
        if modes.ndim != 1:
            raise ValueError(f"coeffs shape {modes.shape} is not one row of modes")
        _check_modes(modes, self.grid)
        self.modes = modes

    @property
    def is_real(self) -> bool:
        return True

    def values(self) -> np.ndarray:
        """Physical samples on grid.points."""
        return coeffs_to_values(self.modes, self.grid)

    def _combine(self, other: "SpectralField", op) -> "SpectralField":
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return SpectralField(self.grid, op(self.modes, other.modes))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "SpectralField":
        if np.iscomplexobj(scalar):
            raise ValueError(f"a complex multiple of a real field is not {_LAYOUT}")
        return SpectralField(self.grid, self.modes * scalar)

    __rmul__ = __mul__


def hermitian_defect(coeffs: np.ndarray):
    """Per row of half-spectra: the largest imaginary part of the zero and unpaired modes.

    A half-spectrum carries the symmetry coeffs(-xi) = conj(coeffs(xi)) of
    a real field except at those two modes, which must be real.
    """
    c = np.asarray(coeffs)
    return np.maximum(np.abs(c[..., 0].imag), np.abs(c[..., -1].imag))


def hermitian_breaks(coeffs: np.ndarray):
    """Per row (last axis): defect above the tolerance 1e-8 (1 + max |coeff|) of a real row."""
    c = np.asarray(coeffs)
    return hermitian_defect(c) > 1e-8 * (1.0 + np.max(np.abs(c), axis=-1))


def forward_transform(values: np.ndarray, grid: Grid1D) -> SpectralField:
    """Transform real physical samples into a SpectralField.

    Round trip with SpectralField.values is exact to round-off.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("forward_transform expects a 1-d sample array")
    return SpectralField(grid, values_to_coeffs(values, grid))


def riesz_weights(grid: Grid1D, s: float, half: bool = False) -> np.ndarray:
    """|xi|^s with the zero mode zeroed (s != 0).

    On the frequency lattice, ascending, or with half on the half-lattice
    of a real field, in the layout of SpectralField.modes.
    """
    xi = _plan(grid.half_length, grid.size).xi if half else grid.frequencies
    if s == 0:
        return np.ones(xi.size)
    absxi = np.abs(xi)
    with np.errstate(divide="ignore"):
        w = np.where(absxi == 0.0, 0.0, absxi ** s)
    return w


def airy_propagate(f: SpectralField, t: float) -> SpectralField:
    """Free Airy evolution: multiply coefficients by exp(i t xi^3).

    The unpaired -N/2 mode is projected back to its real part after the
    phase (the exact phase would break the field's symmetry at that single
    mode; it is zero for band-limited data).
    """
    xi3 = _plan(f.grid.half_length, f.grid.size).xi3
    return SpectralField(f.grid, _real_ends(f.modes * np.exp(1j * t * xi3)))


# -- Littlewood-Paley machinery ----------------------------------------------

def _smooth_step(x: np.ndarray) -> np.ndarray:
    # C-infinity step: 0 for x <= 0, 1 for x >= 1, monotone in between.
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[x <= 0.0] = 0.0
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    out[mid] = a / (a + b)
    return out


def smooth_cutoff(a: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff: 1 on [0, 1], 0 on [2, inf)."""
    return 1.0 - _smooth_step(np.asarray(a, dtype=float) - 1.0)


def dyadic_bump(y: np.ndarray) -> np.ndarray:
    """Smooth bump phi supported in 1/2 <= |y| <= 2 with sum_k phi(y/2^k) = 1.

    Built as chi(|y|) - chi(2|y|) from the smooth cutoff chi, so the dyadic
    sum telescopes exactly for y != 0.
    """
    a = np.abs(np.asarray(y, dtype=float))
    return smooth_cutoff(a) - smooth_cutoff(2.0 * a)


def dyadic_block_range(grid: Grid1D) -> range:
    """Indices k for which phi(xi/2^k) can be nonzero on the grid."""
    lo = math.floor(math.log2(grid.dxi)) - 1
    hi = math.ceil(math.log2(grid.max_frequency)) + 1
    return range(lo, hi + 1)


# -- Random band-limited ensembles -------------------------------------------

def random_band_limited(grid: Grid1D, decay: float, band: int, seed) -> SpectralField:
    """Draw a real random field with independent Gaussian Fourier modes.

    Modes 1 <= |k| <= band get complex Gaussian coefficients of standard
    deviation (1 + |xi_k|)^(-decay), Hermitian-symmetrized so the field is
    real.  The zero mode is left empty, so the ensemble is mean-free and
    negative-order multipliers are always well defined on it.

    Args:
        grid: target grid.
        decay: spectral decay exponent (larger = smoother samples).
        band: largest active integer mode; 1 <= band <= N/2 - 1.
        seed: anything accepted by numpy.random.default_rng.
    """
    N = grid.size
    if not (1 <= band <= N // 2 - 1):
        raise ValueError(f"band must lie in [1, {N // 2 - 1}], got {band}")
    rng = np.random.default_rng(seed)
    ks = np.arange(1, band + 1)
    sigma = (1.0 + np.abs(ks * grid.dxi)) ** (-decay)
    re = rng.standard_normal(band)
    im = rng.standard_normal(band)
    pos = sigma * (re + 1j * im) / math.sqrt(2.0)
    half = np.zeros(N // 2 + 1, dtype=complex)
    half[1: 1 + band] = pos
    return SpectralField(grid, half)


def gaussian_profile(grid: Grid1D, amplitude: float = 1.0,
                     width: float = 1.0) -> SpectralField:
    """Centered Gaussian bump amplitude * exp(-x^2 / (2 width^2))."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    vals = amplitude * np.exp(-grid.points ** 2 / (2.0 * width ** 2))
    return forward_transform(vals, grid)


# -- Dealiased pointwise operations ------------------------------------------

# Bytes of rows a row-blocked kernel takes at a time: its work arrays are
# block-sized, not trace-sized, and every verify trace or stack is one block.
_BLOCK_BYTES = 1280 * 1024


@contextmanager
def _scope(var: ContextVar, fresh):
    """Set var to fresh() until this scope closes; a scope opened inside another joins it."""
    if var.get() is not None:
        yield
        return
    token = var.set(fresh())
    try:
        yield
    finally:
        var.reset(token)


_work: ContextVar[list | None] = ContextVar("gkdvlab_work_buffer", default=None)


def _work_buffer():
    """Let the row kernels called in this scope reuse one work buffer.

    Each thread of a verify ensemble leg opens one, and so do each Picard
    loop and duhamel_map.  The kernels take their throwaway arrays from it,
    grown to the largest request, instead of fresh pages per sample or
    iteration, and take rows in half blocks (_row_blocks).  No kernel
    returns a view of it, and no pointwise map's func may call mixed_norm
    or apply_pointwise_matrix.
    """
    return _scope(_work, lambda: [np.empty(0, dtype=np.uint8)])


def _scratch(shape: tuple, dtype, offset: int = 0) -> np.ndarray:
    """An uninitialised array: bytes from offset on of the scope's work buffer, else a new one."""
    work = _work.get()
    if work is None:
        return np.empty(shape, dtype)
    end = offset + math.prod(shape) * np.dtype(dtype).itemsize
    if work[0].size < end:
        work[0] = None  # the old bytes go first, unless a view still holds them
        work[0] = np.empty(end, dtype=np.uint8)
    return work[0][offset:end].view(dtype).reshape(shape)


def _row_blocks(a: np.ndarray) -> list:
    """Indices of blocks of rows (axis -2) of a, _BLOCK_BYTES or one row each; 1-d or
    one whole block: [...].  Inside a _work_buffer scope, where two samples' or a
    Picard step's work is in flight, half that, at most half the rows rounded up."""
    halved = _work.get() is not None
    if a.ndim < 2 or (a.nbytes <= _BLOCK_BYTES and not halved):
        return [...]
    rows = a.shape[-2]
    step = max(1, min(_BLOCK_BYTES // (1 + halved) * rows // max(a.nbytes, 1), -(-rows >> halved)))
    return [(..., slice(i, i + step), slice(None)) for i in range(0, max(rows, 1), step)]


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _map_items(items, func) -> None:
    """Call func(item) on each item: on this thread and on a helper thread
    started for this call and joined before it returns, in a copy of this
    context (np.errstate too) with a fresh work buffer if this one has one.

    Both take items in order from one iterator.  After an exception neither
    takes another; once both are done, the one of the lowest item is re-raised
    (every item before it has run, as on one thread).  On one CPU this
    thread maps alone.
    """
    pending, errors = enumerate(items), {}

    def run():
        i = -1
        try:
            while not errors and (job := next(pending, None)) is not None:
                i, item = job
                func(item)
        except BaseException as exc:
            errors[i] = exc

    helped = _cpus() > 1
    if helped:
        ctx = copy_context()
        ctx.run(_work.set, None if _work.get() is None else [np.empty(0, dtype=np.uint8)])
        helper = threading.Thread(target=ctx.run, args=(run,), name="gkdvlab-rows", daemon=True)
        helper.start()
    run()
    if helped:
        helper.join()
    if errors:
        raise errors[min(errors)]


def _dealiased_map(block, grid, func, pad, spec, fine, target) -> None:
    """The dealiased map of a block of half-spectra rows, into arrays the caller owns.

    The block, scaled into spec (fresh if None), is irfft'd into real
    samples (pad*N per row, contiguous) in the bytes of fine, a contiguous
    array of at least the block's rows times pad*N/2 + 1 complex; func maps
    them, the rfft of its result goes into those bytes, and its bins
    0 .. N/2, scaled, into target, with real ends.
    """
    half, m = grid.size // 2, pad * grid.size
    samples = np.ndarray(block.shape[:-1] + (m,), float, fine)
    mapped = np.asarray(func(_real_samples(block, grid, pad, samples, spec)))
    if mapped.shape[-1] != m or mapped.shape[:-1] != target.shape[:-1]:
        raise ValueError(f"pointwise map returned shape {mapped.shape}, expected last "
                         f"axis {m} and the rows of out, {target.shape[:-1]}")
    fine = np.fft.rfft(mapped, axis=-1,
                       out=np.ndarray(mapped.shape[:-1] + (m // 2 + 1,), complex, fine))
    del mapped
    forward = _plan(grid.half_length, m).half_forward[:half + 1]
    _real_ends(np.multiply(fine[..., :half + 1], forward, out=target))


def apply_pointwise_matrix(coeffs: np.ndarray, grid: Grid1D, func, pad: int = 2,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Apply a real pointwise map on a padded grid to rows of real fields.

    coeffs has shape (..., M, N/2 + 1), half-spectra, or is one row.  Each
    row is spectrally interpolated onto a grid with pad*N points, func is
    applied to the real samples (an array whose last axis is contiguous;
    its rows may be strided), and the rfft of the result is truncated to
    bins 0 .. N/2 and scaled, with the zero and unpaired -N/2 modes real.
    The result is formed in out, of coeffs' shape if not given; out may be
    coeffs or a row-aligned part of it: a block's rows are read before they
    are written.  func keeps the rows along axis -2 and may combine the
    axes before it only as far as out's shape does.  The rows go through
    _row_blocks on the calling thread: each block's samples, then the rfft
    of its mapped samples, go into one fine complex block of work, and its
    coarse spectrum is fresh, freed before func runs.
    """
    coeffs = np.asarray(coeffs)
    _check_modes(coeffs, grid)
    out = np.empty(coeffs.shape, dtype=complex) if out is None else out
    blocks = _row_blocks(coeffs)
    fine = _scratch(coeffs[blocks[0]].shape[:-1] + (pad * grid.size // 2 + 1,), complex)
    for rows in blocks:
        _dealiased_map(coeffs[rows], grid, func, pad, None, fine, out[rows])
    return out
