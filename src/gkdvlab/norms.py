"""Single-time norms on spectral fields.

Frequency-side norms use the lattice quadrature sum |.| * dxi, physical-side
norms use sum |.| * dx; the exponents 1 and infinity fall back to plain sums
and maxima.  numpy's pairwise summation keeps the quadratures deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import (
    SpectralField,
    _plan,
    dyadic_block_range,
    dyadic_bump,
    riesz_weights,
)


def holder_conjugate(r: float) -> float:
    """r' with 1/r + 1/r' = 1; the conventions 1' = inf and inf' = 1."""
    if not (1.0 <= r or r == math.inf):
        raise ValueError(f"exponent must lie in [1, inf], got {r}")
    if r == 1.0:
        return math.inf
    if r == math.inf:
        return 1.0
    return r / (r - 1.0)


def band_sum(terms: np.ndarray, half: bool = False):
    """Sum of each row (last axis) of per-mode terms over the full band.

    With half the rows are half-spectra of real fields (k = 0 .. N/2-1,
    then -N/2), and the modes 0 < k < N/2 count twice: once more for their
    conjugates at -k.
    """
    if not half:
        return np.sum(terms, axis=-1)
    return 2.0 * np.sum(terms[..., 1:-1], axis=-1) + terms[..., 0] + terms[..., -1]


def weighted_power_sum(magnitudes: np.ndarray, weight: float, p: float,
                       half: bool = False):
    """(sum |a|^p * weight)^(1/p) of each row (last axis), p = inf the maximum.

    The sum is band_sum's, so with half the rows are half-spectra.  A 1-d
    input gives a float.  Rows get the pairwise sum of a row on its own,
    but the root of a 2-d input is numpy's array power, which can differ in
    the last bit from the scalar power a row on its own takes (it does on
    AVX-512 CPUs).  An overflowing power sum reports infinity.
    """
    if not (p >= 1.0):
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    with np.errstate(over="ignore"):
        rows = np.max(magnitudes, axis=-1, initial=0.0) if p == math.inf \
            else (band_sum(magnitudes ** p, half) * weight) ** (1.0 / p)
    return float(rows) if np.ndim(rows) == 0 else rows


def lhat_rows(coeffs: np.ndarray, dxi: float, r: float):
    """Fourier-Lebesgue norm of each row (last axis) of half-spectra, as traces store them."""
    return weighted_power_sum(np.abs(coeffs), dxi, holder_conjugate(r), half=True)


def lhat_sup(coeffs: np.ndarray, dxi: float, r: float) -> float:
    """The largest lhat_rows of rows of half-spectra: the bits of that row's norm alone.

    The root is monotone, so the row power sums are formed in one call and
    only the largest takes the scalar root that a row on its own takes.
    """
    rprime = holder_conjugate(r)
    mags = np.abs(coeffs)
    if rprime == math.inf:
        return float(np.max(mags))
    with np.errstate(over="ignore"):
        return float((np.max(band_sum(mags ** rprime, half=True)) * dxi) ** (1.0 / rprime))


def lhat_norm(f: SpectralField, r: float) -> float:
    """Fourier-Lebesgue norm: the L^{r'} lattice norm of the coefficients."""
    return lhat_rows(f.modes, f.grid.dxi, r)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (sum |xi|^{2s} |coeff|^2 dxi)^{1/2}.

    The zero mode is excluded for s != 0, matching the Riesz convention.
    """
    w = riesz_weights(f.grid, s, half=True)
    return weighted_power_sum(np.abs(w * f.modes), f.grid.dxi, 2.0, half=True)


def besov_norm(f: SpectralField, s: float, q: float) -> float:
    """Homogeneous Besov norm: l^q over dyadic shells of 2^{ks} ||block_k||_{L^2}.

    Block L^2 norms are evaluated on the frequency side.  An overflowing
    weighted sum reports infinity rather than raising.
    """
    if not (q >= 1.0 or q == math.inf):
        raise ValueError(f"exponent must lie in [1, inf], got {q}")
    mags = np.abs(f.modes)
    xi = _plan(f.grid.half_length, f.grid.size).xi
    dxi = f.grid.dxi
    terms = []
    for k in dyadic_block_range(f.grid):
        w = dyadic_bump(xi / 2.0 ** k)
        block = weighted_power_sum(w * mags, dxi, 2.0, half=True)
        if block == 0.0:
            continue
        with np.errstate(over="ignore"):
            terms.append((2.0 ** (k * s)) * block)
    if not terms:
        return 0.0
    arr = np.asarray(terms)
    if not np.all(np.isfinite(arr)):
        return math.inf
    if q == math.inf:
        return float(np.max(arr))
    with np.errstate(over="ignore"):
        total = float(np.sum(arr ** q)) ** (1.0 / q)
    return total if math.isfinite(total) else math.inf


def weighted_norm(f: SpectralField, s: float) -> float:
    """Weighted L^2 norm || |x|^s f ||_{L^2} on the physical lattice.

    For s < 0 the sample at x = 0 is excluded (singular weight); for s >= 0
    it contributes weight |0|^s in the quadrature as usual.
    """
    vals = f.values()
    x = f.grid.points
    if s < 0:
        keep = x != 0.0
        vals, x = vals[keep], x[keep]
    with np.errstate(divide="ignore"):
        w = np.where(x == 0.0, 0.0 if s > 0 else 1.0, np.abs(x) ** s)
    return weighted_power_sum(np.abs(w * vals), f.grid.dx, 2.0)


def lebesgue_norm(f: SpectralField, p: float) -> float:
    """Physical L^p lattice norm, p = inf meaning the max of |f|."""
    if not (p >= 1.0 or p == math.inf):
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return weighted_power_sum(np.abs(f.values()), f.grid.dx, p)
