"""Spectral grid, transforms, and Fourier multipliers on a periodic interval.

The domain is the symmetric interval [-L, L) with N uniform points, used as a
periodic surrogate for the whole line.  All transforms carry the continuum
normalization with the symmetric 1/sqrt(2*pi) convention, so coefficient
values approximate the continuum Fourier transform evaluated on the frequency
lattice xi_k = k*pi/L, k = -N/2 .. N/2-1, independent of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
        if not (L > 0):
            raise ValueError(f"half_length must be positive, got {L}")
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
    """Read-only transform tables of one (half_length, size) grid."""

    __slots__ = ("grid", "bin_signs", "forward_scale", "inverse_scale", "half")

    def __init__(self, half_length: float, size: int) -> None:
        grid = Grid1D(half_length, size)
        k = np.arange(-size // 2, size // 2)
        # (-1)^k for k = -N/2 .. N/2-1; shifts the DFT origin to x = -L.
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        forward_scale = (grid.dx / SQRT_2PI) * signs
        self.grid = grid
        self.half = size // 2
        # the signs in FFT bin order, for spectra built already half-swapped
        self.bin_signs = self.swap(signs)
        self.forward_scale = forward_scale
        self.inverse_scale = grid.size * grid.dxi / SQRT_2PI
        for arr in (grid.points, grid.frequencies, self.bin_signs, forward_scale):
            arr.flags.writeable = False

    def swap(self, a: np.ndarray) -> np.ndarray:
        """Swap the halves of the last axis: fftshift, equal to ifftshift for even N."""
        h = self.half
        return np.concatenate((a[..., h:], a[..., :h]), axis=-1)


def _plan(half_length: float, size: int) -> _Plan:
    key = (half_length, size)
    plan = _plans.get(key)
    if plan is None:
        plan = _Plan(half_length, size)
        if len(_plans) >= _PLAN_LIMIT:
            del _plans[next(iter(_plans))]
        _plans[key] = plan
    return plan


def values_to_coeffs(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Continuum-normalized forward transform along the last axis.

    Implements hat f(xi_k) = (dx / sqrt(2 pi)) * sum_j f(x_j) exp(-i x_j xi_k)
    via a standard FFT plus an alternating phase; exact for band-limited data.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.size:
        raise ValueError(
            f"last axis has length {values.shape[-1]}, expected {grid.size}"
        )
    plan = _plan(grid.half_length, grid.size)
    return plan.forward_scale * plan.swap(np.fft.fft(values, axis=-1))


def coeffs_to_values(coeffs: np.ndarray, grid: Grid1D, real: bool = False) -> np.ndarray:
    """Inverse of values_to_coeffs along the last axis.

    Implements f(x_j) = (dxi / sqrt(2 pi)) * sum_k hat f(xi_k) exp(i x_j xi_k).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[-1] != grid.size:
        raise ValueError(
            f"last axis has length {coeffs.shape[-1]}, expected {grid.size}"
        )
    vals = dealiased_samples(coeffs, grid, 1)
    return vals.real if real else vals


@dataclass
class SpectralField:
    """A single-time field stored by its Fourier coefficients.

    coeffs is ordered by ascending frequency (index i holds xi = (i - N/2)*dxi).
    is_real declares the Hermitian symmetry coeffs(-xi) = conj(coeffs(xi)); the
    unpaired mode at -N/2 must then be real.
    """

    grid: Grid1D
    coeffs: np.ndarray
    is_real: bool = False

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.grid.size,):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match grid size {self.grid.size}"
            )
        if self.is_real and hermitian_breaks(self.coeffs):
            raise ValueError(
                "is_real=True but Hermitian symmetry fails "
                f"(defect {hermitian_defect(self.coeffs):.3e})"
            )

    def values(self) -> np.ndarray:
        """Physical samples on grid.points."""
        return coeffs_to_values(self.coeffs, self.grid, real=self.is_real)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             self.is_real and other.is_real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.is_real and other.is_real)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar,
                             self.is_real and not np.iscomplexobj(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")


def hermitian_defect(coeffs: np.ndarray):
    """Max deviation from coeffs(-xi) = conj(coeffs(xi)), unpaired mode real; per row."""
    c = np.asarray(coeffs)
    pairs = np.conj(c[..., :0:-1])
    np.subtract(c[..., 1:], pairs, out=pairs)
    return np.maximum(np.abs(c[..., 0].imag), np.max(np.abs(pairs), axis=-1, initial=0.0))


def hermitian_breaks(coeffs: np.ndarray):
    """Per row (last axis): defect above the 1e-8 (1 + max |coeff|) is_real allows."""
    c = np.asarray(coeffs)
    return hermitian_defect(c) > 1e-8 * (1.0 + np.max(np.abs(c), axis=-1))


def hermitian_project(coeffs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Nearest Hermitian-symmetric coefficient array (last axis).

    out may be coeffs itself, which projects in place; the flipped
    conjugates are the only temporary either way.
    """
    c = np.asarray(coeffs, dtype=complex)
    if out is None:
        out = np.empty_like(c)
    flipped = np.conj(c[..., :0:-1])
    np.add(c[..., 1:], flipped, out=flipped)
    np.multiply(0.5, flipped, out=out[..., 1:])
    out[..., 0] = c[..., 0].real
    return out


def forward_transform(values: np.ndarray, grid: Grid1D) -> SpectralField:
    """Transform physical samples into a SpectralField.

    Real input yields is_real=True.  Round trip with SpectralField.values is
    exact to round-off.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("forward_transform expects a 1-d sample array")
    is_real = bool(np.isrealobj(values))
    return SpectralField(grid, values_to_coeffs(values, grid), is_real)


def riesz_potential(f: SpectralField, s: float) -> SpectralField:
    """Apply |D_x|^s, the Fourier multiplier |xi|^s.

    The zero mode is annihilated for every s != 0 (for negative s it is not
    defined there; for positive s it vanishes anyway, and zeroing keeps the
    operator a bijection on mean-free fields).  s = 0 is the identity.
    """
    if s == 0:
        return SpectralField(f.grid, f.coeffs.copy(), f.is_real)
    return SpectralField(f.grid, f.coeffs * riesz_weights(f.grid, s), f.is_real)


def riesz_weights(grid: Grid1D, s: float) -> np.ndarray:
    """|xi|^s on the frequency lattice with the zero mode zeroed (s != 0)."""
    if s == 0:
        return np.ones(grid.size)
    absxi = np.abs(grid.frequencies)
    with np.errstate(divide="ignore"):
        w = np.where(absxi == 0.0, 0.0, absxi ** s)
    return w


def airy_propagate(f: SpectralField, t: float) -> SpectralField:
    """Free Airy evolution: multiply coefficients by exp(i t xi^3).

    For is_real fields the unpaired -N/2 mode is projected back to its real
    part after the phase (the exact phase would break the declared symmetry
    at that single mode; it is zero for band-limited data).
    """
    c = f.coeffs * airy_phases(f.grid, t)
    if f.is_real:
        c[0] = c[0].real
    return SpectralField(f.grid, c, f.is_real)


def airy_phases(grid: Grid1D, t: float) -> np.ndarray:
    return np.exp(1j * t * grid.frequencies ** 3)


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


def littlewood_paley_block(f: SpectralField, k: int) -> SpectralField:
    """Frequency-localize f to the dyadic shell |xi| ~ 2^k."""
    w = dyadic_bump(f.grid.frequencies / 2.0 ** k)
    return SpectralField(f.grid, f.coeffs * w, f.is_real)


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
    c = np.zeros(N, dtype=complex)
    mid = N // 2
    c[mid + 1: mid + 1 + band] = pos
    c[mid - band: mid] = np.conj(pos[::-1])
    return SpectralField(grid, c, is_real=True)


def gaussian_profile(grid: Grid1D, amplitude: float = 1.0,
                     width: float = 1.0) -> SpectralField:
    """Centered Gaussian bump amplitude * exp(-x^2 / (2 width^2))."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    vals = amplitude * np.exp(-grid.points ** 2 / (2.0 * width ** 2))
    return forward_transform(vals, grid)


# -- Dealiased pointwise operations ------------------------------------------

def dealiased_samples(coeffs: np.ndarray, grid: Grid1D, pad: int) -> np.ndarray:
    """Complex samples of coeffs (last axis) on the grid refined by pad.

    The inverse transform of the zero-padded spectrum (pad = 1 is
    coeffs_to_values), in one buffer that holds that spectrum in FFT bin
    order (band mode i in bin (i - N/2) mod M).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    half = grid.size // 2
    plan = _plan(grid.half_length, pad * grid.size)
    m = plan.grid.size
    shape = coeffs.shape[:-1] + (m,)
    buf = np.zeros(shape, dtype=complex) if m > grid.size else np.empty(shape, dtype=complex)
    np.multiply(coeffs[..., half:], plan.bin_signs[:half], out=buf[..., :half])
    np.multiply(coeffs[..., :half], plan.bin_signs[m - half:], out=buf[..., m - half:])
    np.fft.ifft(buf, axis=-1, out=buf)
    buf *= plan.inverse_scale
    return buf


def apply_pointwise_matrix(coeffs: np.ndarray, grid: Grid1D, func, pad: int = 2,
                           real: bool = True) -> np.ndarray:
    """Apply a pointwise map on a padded grid; coeffs has shape (..., N).

    The input is spectrally interpolated onto a grid with pad*N points, func
    is applied to the physical samples, and the result is transformed back
    and truncated to the original band.  With real=True the result is
    Hermitian-projected (truncation orphans the finest retained mode).

    The forward FFT of values_to_coeffs writes into the samples' buffer and
    only the N retained bins are read out and scaled.
    """
    n, half = grid.size, grid.size // 2
    plan = _plan(grid.half_length, pad * n)
    m = plan.grid.size
    buf = dealiased_samples(coeffs, grid, pad)
    mapped = np.asarray(func(buf.real if real else buf))
    if mapped.shape[-1] != m:
        raise ValueError(f"pointwise map returned last axis {mapped.shape[-1]}, expected {m}")
    # func may reduce leading axes (a stacked product); then the buffer is not reused
    full = np.fft.fft(mapped, axis=-1, out=buf if mapped.shape == buf.shape else None)
    back = np.concatenate((full[..., m - half:], full[..., :half]), axis=-1)
    del buf, mapped, full  # fine-grid arrays set peak memory: free them first
    back *= plan.forward_scale[(m - n) // 2: (m + n) // 2]
    return hermitian_project(back, out=back) if real else back
