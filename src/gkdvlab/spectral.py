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
    """Read-only transform tables of one (half_length, size) grid.

    half_forward and half_inverse are the scales of the real-field path on
    bins k = 0 .. N/2: (-1)^k dx / sqrt(2 pi) after an rfft, and
    (-1)^k dxi / sqrt(2 pi) before an unnormalized irfft.
    """

    __slots__ = ("grid", "bin_signs", "forward_scale", "inverse_scale", "half",
                 "half_forward", "half_inverse")

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
        self.half_forward = (grid.dx / SQRT_2PI) * _fold(signs)
        self.half_inverse = (grid.dxi / SQRT_2PI) * _fold(signs)
        for arr in (grid.points, grid.frequencies, self.bin_signs, forward_scale,
                    self.half_forward, self.half_inverse):
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


# -- The half-spectrum of a real field -----------------------------------------
#
# A real field's coefficients satisfy c(-xi) = conj(c(xi)), so the modes
# k = 0 .. N/2-1 carry it.  Its half-spectrum appends the unpaired -N/2 mode
# to them: the first N/2 + 1 entries of the coefficients in FFT bin order,
# the layout of an rfft.  Real fields and traces store their half-spectra;
# complex ones store the full band in ascending order.

def _fold(a: np.ndarray) -> np.ndarray:
    """Half-spectrum (last axis) of a full-band array: k = 0 .. N/2-1, then -N/2."""
    half = a.shape[-1] // 2
    return np.concatenate((a[..., half:], a[..., :1]), axis=-1)


def _unfold(half: np.ndarray) -> np.ndarray:
    """Full band (last axis, ascending) of a real field's half-spectrum.

    Modes k < 0 are the conjugates of modes -k; the zero and the unpaired
    -N/2 mode are copied as stored.
    """
    h = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * h,), dtype=complex)
    full[..., h:] = half[..., :h]
    full[..., 0] = half[..., h]
    np.conjugate(half[..., h - 1:0:-1], out=full[..., 1:h])
    return full


def _real_ends(half: np.ndarray) -> np.ndarray:
    """Zero the imaginary parts of the zero and unpaired modes of half-spectra, in place."""
    half[..., 0].imag = 0.0
    half[..., -1].imag = 0.0
    return half


def _stored(coeffs, grid: "Grid1D", real: bool) -> np.ndarray:
    """The modes a field stores, from its coeffs (last axis).

    A real field's coeffs are its half-spectrum, taken as given, or its full
    band, which must meet the Hermitian tolerance of hermitian_breaks in
    every row and is then folded.  A complex field's are its full band.
    """
    c = np.asarray(coeffs, dtype=complex)
    if real and c.shape[-1:] == (grid.size // 2 + 1,):
        return c
    if c.shape[-1:] != (grid.size,):
        raise ValueError(f"coeffs shape {c.shape} does not match grid size {grid.size}")
    if not real:
        return c
    if np.any(hermitian_breaks(c)):
        raise ValueError("is_real=True but Hermitian symmetry fails "
                         f"(defect {np.max(hermitian_defect(c)):.3e})")
    return _fold(c)


def _real_samples(coeffs: np.ndarray, grid: Grid1D, pad: int) -> np.ndarray:
    """Real samples of a real field's coeffs (last axis) on the grid refined by pad.

    coeffs is the half-spectrum or the full band.  One irfft of the
    half-spectrum: the unpaired -N/2 mode goes to bin N/2, as it is at pad 1,
    where that bin is the Nyquist bin, and as half its conjugate at
    pad >= 2, where the irfft's implied mirror puts the other half back in
    bin -N/2.  So for Hermitian coeffs the samples are the real part of
    dealiased_samples.
    """
    coeffs = np.asarray(coeffs)
    half = grid.size // 2
    if coeffs.shape[-1] == grid.size:
        pos, unpaired = coeffs[..., half:], coeffs[..., 0]
    else:
        pos, unpaired = coeffs[..., :half], coeffs[..., half]
    scale = _plan(grid.half_length, grid.size).half_inverse
    spec = np.empty(coeffs.shape[:-1] + (half + 1,), dtype=complex)
    np.multiply(pos, scale[:half], out=spec[..., :half])
    unpaired = unpaired * scale[half]
    spec[..., half] = unpaired if pad == 1 else 0.5 * np.conjugate(unpaired)
    return np.fft.irfft(spec, n=pad * grid.size, axis=-1, norm="forward")


def _check_length(a: np.ndarray, grid: Grid1D, real: bool = False) -> None:
    if a.shape[-1] != grid.size and not (real and a.shape[-1] == grid.size // 2 + 1):
        expected = f"{grid.size} or {grid.size // 2 + 1}" if real else f"{grid.size}"
        raise ValueError(f"last axis has length {a.shape[-1]}, expected {expected}")


def values_to_coeffs(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Continuum-normalized forward transform along the last axis.

    Implements hat f(xi_k) = (dx / sqrt(2 pi)) * sum_j f(x_j) exp(-i x_j xi_k)
    via a standard FFT plus an alternating phase; exact for band-limited data.
    Real samples take an rfft and give the half-spectrum a real field
    stores, with real zero and unpaired modes; complex samples give the
    full band.
    """
    values = np.asarray(values)
    _check_length(values, grid)
    plan = _plan(grid.half_length, grid.size)
    if np.isrealobj(values):
        return _real_ends(np.fft.rfft(values, axis=-1) * plan.half_forward)
    return plan.forward_scale * plan.swap(np.fft.fft(values, axis=-1))


def coeffs_to_values(coeffs: np.ndarray, grid: Grid1D, real: bool = False) -> np.ndarray:
    """Inverse of values_to_coeffs along the last axis.

    Implements f(x_j) = (dxi / sqrt(2 pi)) * sum_k hat f(xi_k) exp(i x_j xi_k).
    With real=True the coeffs, a half-spectrum or a full band, are read as a
    real field: real samples from the k >= 0 half-spectrum (an irfft).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    _check_length(coeffs, grid, real)
    return _real_samples(coeffs, grid, 1) if real else dealiased_samples(coeffs, grid, 1)


class SpectralField:
    """A single-time field stored by its Fourier coefficients.

    coeffs are ordered by ascending frequency (index i holds
    xi = (i - N/2)*dxi).  is_real declares the Hermitian symmetry
    coeffs(-xi) = conj(coeffs(xi)), with the unpaired mode at -N/2 real.
    A real field stores only its half-spectrum, modes: k = 0 .. N/2-1, then
    -N/2.  It is built from that half, or from a full band that meets the
    symmetry within 1e-8 (1 + max |coeff|) and is then folded; its coeffs
    are the full band, rebuilt on each access and read-only.  A complex
    field stores its full band, and modes and coeffs are the same array.
    """

    def __init__(self, grid: Grid1D, coeffs, is_real: bool = False) -> None:
        self.grid = grid
        self.modes = coeffs
        self.is_real = is_real
        # the checks and the fold stay in __post_init__, where they were in
        # the dataclass: perfbench's tracer times field construction there
        self.__post_init__()

    def __post_init__(self) -> None:
        if np.ndim(self.modes) != 1:
            raise ValueError(f"coeffs shape {np.shape(self.modes)} does not match "
                             f"grid size {self.grid.size}")
        self.modes = _stored(self.modes, self.grid, self.is_real)

    @property
    def coeffs(self) -> np.ndarray:
        if not self.is_real:
            return self.modes
        full = _unfold(self.modes)
        full.flags.writeable = False
        return full

    def values(self) -> np.ndarray:
        """Physical samples on grid.points."""
        return coeffs_to_values(self.modes, self.grid, real=self.is_real)

    def _combine(self, other: "SpectralField", op) -> "SpectralField":
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.is_real and other.is_real:
            return SpectralField(self.grid, op(self.modes, other.modes), True)
        return SpectralField(self.grid, op(self.coeffs, other.coeffs))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "SpectralField":
        if self.is_real and not np.iscomplexobj(scalar):
            return SpectralField(self.grid, self.modes * scalar, True)
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def hermitian_defect(coeffs: np.ndarray, half: bool = False):
    """Max deviation from coeffs(-xi) = conj(coeffs(xi)), unpaired mode real; per row.

    With half the rows are half-spectra, which carry the symmetry except
    at the zero and unpaired modes: the defect is their largest imaginary
    part.
    """
    c = np.asarray(coeffs)
    if half:
        return np.maximum(np.abs(c[..., 0].imag), np.abs(c[..., -1].imag))
    pairs = np.conj(c[..., :0:-1])
    np.subtract(c[..., 1:], pairs, out=pairs)
    return np.maximum(np.abs(c[..., 0].imag), np.max(np.abs(pairs), axis=-1, initial=0.0))


def hermitian_breaks(coeffs: np.ndarray, half: bool = False):
    """Per row (last axis): defect above the 1e-8 (1 + max |coeff|) is_real allows."""
    c = np.asarray(coeffs)
    return hermitian_defect(c, half) > 1e-8 * (1.0 + np.max(np.abs(c), axis=-1))


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
        return SpectralField(f.grid, f.modes.copy(), f.is_real)
    w = riesz_weights(f.grid, s)
    return SpectralField(f.grid, f.modes * (_fold(w) if f.is_real else w), f.is_real)


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

    A real field is evolved on its half-spectrum, and its unpaired -N/2 mode
    is projected back to its real part after the phase (the exact phase
    would break the declared symmetry at that single mode; it is zero for
    band-limited data).
    """
    if not f.is_real:
        return SpectralField(f.grid, f.coeffs * airy_phases(f.grid, t))
    xi = _fold(f.grid.frequencies)
    return SpectralField(f.grid, _real_ends(f.modes * np.exp(1j * t * xi ** 3)), True)


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
    xi = _fold(f.grid.frequencies) if f.is_real else f.grid.frequencies
    return SpectralField(f.grid, f.modes * dyadic_bump(xi / 2.0 ** k), f.is_real)


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
    return SpectralField(grid, half, is_real=True)


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
    coeffs_to_values of a complex field), in one buffer that holds that
    spectrum in FFT bin order (band mode i in bin (i - N/2) mod M).
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


def apply_pointwise_matrix(coeffs: np.ndarray, grid: Grid1D, func, pad: int = 2) -> np.ndarray:
    """Apply a real pointwise map on a padded grid to rows of real fields.

    coeffs has shape (..., N/2 + 1), half-spectra, or (..., N), full bands;
    the result has the same layout.  Each row is spectrally interpolated
    onto a grid with pad*N points from its k >= 0 half-spectrum, func is
    applied to the real samples (a contiguous array), and the rfft of the
    result is truncated to bins 0 .. N/2 and scaled, with the zero and
    unpaired -N/2 modes real.  A full band is unfolded from that half, so
    it is exactly Hermitian.
    """
    coeffs = np.asarray(coeffs)
    _check_length(coeffs, grid, real=True)
    half = grid.size // 2
    plan = _plan(grid.half_length, pad * grid.size)
    m = plan.grid.size
    mapped = np.asarray(func(_real_samples(coeffs, grid, pad)))
    if mapped.shape[-1] != m:
        raise ValueError(f"pointwise map returned last axis {mapped.shape[-1]}, expected {m}")
    spec = np.fft.rfft(mapped, axis=-1)
    del mapped  # fine-grid arrays set peak memory: free them first
    out = _real_ends(spec[..., :half + 1] * plan.half_forward[:half + 1])
    return _unfold(out) if coeffs.shape[-1] == grid.size else out
