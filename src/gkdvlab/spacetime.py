"""Exponent-pair geometry and mixed space-time norms on sampled traces.

A pair (s, r) of smoothness and Fourier-Lebesgue exponent is "acceptable"
when it lies in the closed-bottom quadrangle described by classify_pair, and
"conjugate acceptable" when (1 - s, r') is acceptable.  Acceptable pairs map
to mixed Lebesgue exponents (p, q) through a fixed linear system; conjugate
pairs map to the dual exponents used for inhomogeneous estimates.
mixed_norm is the one L^p_x L^q_t quadrature of |D_x|^s u on a trace;
xnorm, snorm and ynorm are its wrappers that check the pair first.
"""

from __future__ import annotations

import math
import threading
from contextvars import ContextVar
from fractions import Fraction
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .norms import holder_conjugate, weighted_power_sum
from .spectral import (
    Grid1D,
    SpectralField,
    _check_modes,
    _plan,
    _real_ends,
    _real_samples,
    _row_blocks,
    _scope,
    _scratch,
    coeffs_to_values,
    riesz_weights,
)

_CLAMP_TOL = 1e-12


def _inverse(r):
    """1/r preserving exact arithmetic for Fraction inputs; inf maps to 0.

    The zero is a Fraction so that it survives true division in the exponent
    algebra without turning into a float; mixed arithmetic keeps float
    inputs float.
    """
    if r == math.inf:
        return Fraction(0)
    return 1 / r if not isinstance(r, float) else 1.0 / r


def _solve_exponents(s, rho):
    """((1/p, 1/q), (p, q)) solving 2/p + 1/q = rho, -1/p + 2/q = s."""
    inverses = (-s / 5 + 2 * rho / 5, 2 * s / 5 + rho / 5)
    return inverses, tuple(math.inf if x == 0 else 1 / x for x in inverses)


def exponent_map(s, r) -> Tuple[float, float]:
    """Solve 2/p + 1/q = 1/r, -1/p + 2/q = s for (p, q).

    Pure algebra, defined for every (s, r): the solution is
    1/p = -s/5 + (2/5)(1/r), 1/q = (2/5)s + (1/5)(1/r).  Fraction inputs are
    propagated exactly; a zero reciprocal yields an infinite exponent.
    """
    return _solve_exponents(s, _inverse(r))[1]


def dual_exponent_map(s, r) -> Tuple[float, float]:
    """Solve 2/p + 1/q = 2 + 1/r, -1/p + 2/q = s for (p, q).

    Same linear system as exponent_map with 1/r shifted by 2; equivalently
    both reciprocals shift by (4/5, 2/5).
    """
    return _solve_exponents(s, 2 + _inverse(r))[1]


@dataclass(frozen=True)
class PairClass:
    """Classification record for a pair (s, r).

    exponents is the (p, q) image of the pair when acceptable, dual_exponents
    the dual image when conjugate acceptable.  boundary marks acceptable
    pairs sitting exactly on a closed edge of the region (such pairs are
    usable downstream but flagged in reports).  clamped records that r was
    nudged into [1, inf] within tolerance.
    """

    s: float
    r: float
    acceptable: bool
    conjugate_acceptable: bool
    exponents: Optional[Tuple[float, float]] = None
    dual_exponents: Optional[Tuple[float, float]] = None
    boundary: bool = False
    clamped: bool = False


def _acceptable(s: float, rho: float) -> Tuple[bool, bool]:
    """Acceptability of (s, r) in terms of rho = 1/r; returns (ok, on_edge)."""
    if not (0.0 <= rho < 0.75):
        return False, False
    if rho <= 0.5:
        lo, hi = -rho / 2.0, 2.0 * rho
        if lo <= s <= hi:
            return True, s == lo or s == hi or rho == 0.0
        return False, False
    return (2.0 * rho - 1.25 < s < 2.5 - 3.0 * rho), False


def classify_pair(s: float, r: float) -> PairClass:
    """Total classification of (s, r); r is clamped into [1, inf] within 1e-12."""
    clamped = False
    if r != math.inf:
        r = float(r)
        if r < 1.0:
            if r < 1.0 - _CLAMP_TOL:
                raise ValueError(f"exponent r must lie in [1, inf], got {r}")
            r, clamped = 1.0, True
    s = float(s)
    rho = 0.0 if r == math.inf else 1.0 / r
    ok, edge = _acceptable(s, rho)
    conj_ok, _ = _acceptable(1.0 - s, 1.0 - rho)
    return PairClass(
        s=s,
        r=r,
        acceptable=ok,
        conjugate_acceptable=conj_ok,
        exponents=exponent_map(s, r) if ok else None,
        dual_exponents=dual_exponent_map(s, r) if conj_ok else None,
        boundary=edge,
        clamped=clamped,
    )


# -- Sampled traces and mixed norms ------------------------------------------

@dataclass
class TimeTrace:
    """A time-sampled real field: coefficient rows at strictly increasing times.

    Row m of coeffs holds the field at times[m], in the layout of
    SpectralField.modes: coeffs has shape (M, N/2 + 1), half-spectra.
    is_real is always True.  At least two samples are required so every
    time quadrature is defined.
    """

    grid: Grid1D
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("a trace needs at least 2 time samples")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or len(self.coeffs) != self.times.size:
            raise ValueError(f"coeffs shape {self.coeffs.shape} does not hold "
                             f"{self.times.size} rows")
        _check_modes(self.coeffs, self.grid)

    @property
    def is_real(self) -> bool:
        return True

    @property
    def sample_count(self) -> int:
        return int(self.times.size)

    def field(self, m: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[m].copy())

    def values(self) -> np.ndarray:
        """Physical samples, shape (M, N), a real array."""
        return coeffs_to_values(self.coeffs, self.grid)

    def restricted(self, t_max: float) -> "TimeTrace":
        """Sub-trace of samples with time <= t_max (at least two kept).

        The times are increasing, so the sub-trace is a prefix: its arrays
        are views of this trace's.
        """
        k = int(np.searchsorted(self.times, t_max + 1e-12, side="right"))
        if k < 2:
            raise ValueError(f"fewer than 2 samples at or before t = {t_max}")
        return TimeTrace(self.grid, self.times[:k], self.coeffs[:k])


# Memo of the open _shared_tables scope, least recently used table first;
# None outside every scope.  A context variable, so concurrent callers never
# see each other's memo; the threads of an ensemble leg share one, locked.
_tables: ContextVar[Optional[dict]] = ContextVar("gkdvlab_airy_tables", default=None)
_tables_lock = threading.Lock()

# Tables one scope holds at most, and weight rows too.  A Picard solve needs
# one of each and an ensemble leg at most two tables; segments of a glued run
# whose offsets differ in the last bit replace each other instead of piling up.
_TABLES_PER_SCOPE = 2


def _shared_tables():
    """Share Airy phase tables and weight rows between the calls made inside this scope.

    Meant for work on one grid: an ensemble leg of estimates, one Picard
    solve, or a glued run whose segments repeat the same offsets from their
    starts.  A scope opened inside another joins it.  The memo holds at
    most _TABLES_PER_SCOPE of each, dropping the least recently used, and
    is dropped when the outermost scope closes, so no table outlives it.
    """
    return _scope(_tables, dict)


def _memoised(key: tuple, build) -> np.ndarray:
    """build(), read-only and shared under key inside _shared_tables."""
    memo = _tables.get()
    with _tables_lock:  # the threads of a leg get one array, built once
        value = None if memo is None else memo.pop(key, None)
        if value is None:
            value = build()
            value.flags.writeable = memo is None
        if memo is not None:
            memo[key] = value  # reinserted: the most recently used is last
            kin = [k for k, v in memo.items() if v.ndim == value.ndim]  # tables or rows
            if len(kin) > _TABLES_PER_SCOPE:
                del memo[kin[0]]
    return value


def _airy_table(grid: Grid1D, times: np.ndarray, unit: complex) -> np.ndarray:
    """exp(unit * outer(times, xi^3)), read-only and shared inside _shared_tables.

    xi runs over the half-lattice of a real field (k = 0 .. N/2-1, then the
    unpaired -N/2 mode), and xi^3 is the plan's odd product xi*xi*xi.
    """
    def build():
        table = unit * np.outer(times, _plan(grid.half_length, grid.size).xi3)
        return np.exp(table, out=table)  # in place: one table-sized complex array

    return _memoised((grid.half_length, grid.size, unit, times.tobytes()), build)


def _phi2_weights(grid: Grid1D, h: float) -> np.ndarray:
    """h phi_2(z), z = -i h xi^3, phi_2(z) = (e^z - 1 - z)/z^2: the retarded integral's weight
    row of a step, shared like _airy_table; 12 terms of the Taylor series where |z| < 0.2."""
    def build():
        z = -1j * h * _plan(grid.half_length, grid.size).xi3
        small, series, term = np.abs(z) < 0.2, 0.5, 0.5
        for k in range(3, 14):
            term = term * z / k
            series = series + term
        z = np.where(small, 1.0, z)  # no 0/0 at the zero mode
        return h * np.where(small, series, (np.exp(z) - 1.0 - z) / (z * z))

    return _memoised((grid.half_length, grid.size, "phi2", h), build)


def free_evolution(u0: SpectralField, times: np.ndarray, t0: float = 0.0,
                   out: Optional[np.ndarray] = None) -> TimeTrace:
    """Trace of the free Airy flow of u0: coefficients times exp(i(t-t0)xi^3).

    The rows, formed in out if given, have real zero and unpaired modes.
    """
    times = np.asarray(times, dtype=float)
    coeffs = np.multiply(_airy_table(u0.grid, times - t0, 1j), u0.modes[None, :], out=out)
    return TimeTrace(u0.grid, times, _real_ends(coeffs))


def _sample_times(a: float, b: float, per_unit: int) -> np.ndarray:
    """Uniform sample times on [a, b]: round((b - a) * per_unit) intervals, at least 2."""
    return np.linspace(a, b, max(2, round((b - a) * per_unit)) + 1)


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    half = np.diff(times) / 2.0  # halving is exact, so sums of halves are halved sums
    return np.append(half, 0.0) + np.insert(half, 0, 0.0)


def _validate_exponent(name: str, e: float) -> None:
    if not (e >= 1.0 or e == math.inf):
        raise ValueError(f"{name} must lie in [1, inf], got {e}")


def mixed_norm(trace: TimeTrace, p: float, q: float, s: float = 0.0) -> float:
    """Mixed space-time norm || |D_x|^s u ||_{L^p_x L^q_t} of a trace.

    Time is inside: trapezoid weights on the stored sample times, then the
    lattice sum with weight dx over space; infinite exponents take maxima
    over the samples.  The rows go through _row_blocks into one (M, N) array
    of |.|^q (|.| at q = inf), through one block-sized coarse spectrum, both
    from the work buffer in a _work_buffer scope.
    """
    _validate_exponent("p", p)
    _validate_exponent("q", q)
    weights = None if s == 0 else riesz_weights(trace.grid, s, half=True)
    powers = _scratch((trace.sample_count, trace.grid.size), float)
    blocks = _row_blocks(trace.coeffs)
    spec = _scratch(trace.coeffs[blocks[0]].shape, complex, powers.nbytes)
    for rows in blocks:
        block, coeffs = powers[rows], trace.coeffs[rows]
        work = spec[:len(coeffs)]
        if weights is not None:
            coeffs = np.multiply(coeffs, weights, out=work)
        np.abs(_real_samples(coeffs, trace.grid, 1, block, work), out=block)
        if q != math.inf:
            block **= q
    inner = np.max(powers, axis=0) if q == math.inf \
        else np.einsum("m,mj->j", trapezoid_weights(trace.times), powers) ** (1.0 / q)
    return weighted_power_sum(inner, trace.grid.dx, p)


def xnorm(trace: TimeTrace, s: float, r: float) -> float:
    """Norm || |D_x|^s u ||_{L^p_x L^q_t} with (p, q) = exponent_map(s, r).

    Raises unless (s, r) is acceptable.
    """
    if not classify_pair(s, r).acceptable:
        raise ValueError(
            f"pair (s={s}, r={r}) is not acceptable: needs 1/r in [0, 3/4) and "
            "s in [-1/(2r), 2/r] for 1/r <= 1/2, "
            "s in (2/r - 5/4, 5/2 - 3/r) for 1/2 < 1/r < 3/4"
        )
    return mixed_norm(trace, *exponent_map(s, r), s)


def snorm(trace: TimeTrace, r: float) -> float:
    """Scattering-size norm: xnorm at smoothness zero."""
    return xnorm(trace, 0.0, r)


def ynorm(trace: TimeTrace, s: float, r: float) -> float:
    """Dual-side norm || |D_x|^s F ||_{L^ptilde_x L^qtilde_t}, at dual_exponent_map(s, r).

    Raises unless (s, r) is conjugate acceptable.
    """
    if not classify_pair(s, r).conjugate_acceptable:
        raise ValueError(
            f"pair (s={s}, r={r}) is not conjugate acceptable: "
            f"(1 - s, r') = ({1.0 - s}, {holder_conjugate(r)}) must be acceptable"
        )
    return mixed_norm(trace, *dual_exponent_map(s, r), s)
