"""Exponent-pair geometry and mixed space-time norms on sampled traces.

A pair (s, r) of smoothness and Fourier-Lebesgue exponent is "acceptable"
when it lies in the closed-bottom quadrangle described by classify_pair, and
"conjugate acceptable" when (1 - s, r') is acceptable.  Acceptable pairs map
to mixed Lebesgue exponents (p, q) through a fixed linear system; conjugate
pairs map to the dual exponents used for inhomogeneous estimates.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    _fold,
    _real_ends,
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


def exponent_map(s, r) -> Tuple[float, float]:
    """Solve 2/p + 1/q = 1/r, -1/p + 2/q = s for (p, q).

    Pure algebra, defined for every (s, r): the solution is
    1/p = -s/5 + (2/5)(1/r), 1/q = (2/5)s + (1/5)(1/r).  Fraction inputs are
    propagated exactly; a zero reciprocal yields an infinite exponent.
    """
    rho = _inverse(r)
    invp = -s / 5 + 2 * rho / 5
    invq = 2 * s / 5 + rho / 5
    p = math.inf if invp == 0 else 1 / invp
    q = math.inf if invq == 0 else 1 / invq
    return p, q


def dual_exponent_map(s, r) -> Tuple[float, float]:
    """Solve 2/p + 1/q = 2 + 1/r, -1/p + 2/q = s for (p, q).

    Same linear system as exponent_map with 1/r shifted by 2; equivalently
    both reciprocals shift by (4/5, 2/5).
    """
    rho = _inverse(r)
    invp = -s / 5 + 2 * (2 + rho) / 5
    invq = 2 * s / 5 + (2 + rho) / 5
    p = math.inf if invp == 0 else 1 / invp
    q = math.inf if invq == 0 else 1 / invq
    return p, q


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
        """Sub-trace of samples with time <= t_max (at least two kept)."""
        keep = self.times <= t_max + 1e-12
        if int(np.sum(keep)) < 2:
            raise ValueError(f"fewer than 2 samples at or before t = {t_max}")
        return TimeTrace(self.grid, self.times[keep], self.coeffs[keep])


# Memo of the innermost open _shared_tables scope; None outside every scope.
# A context variable, so concurrent threads never see each other's memo.
_tables: ContextVar[Optional[dict]] = ContextVar("gkdvlab_airy_tables", default=None)


@contextmanager
def _shared_tables():
    """Share Airy phase tables between the calls made inside this scope.

    Meant for work on one grid and one set of sample times: an ensemble leg
    of estimates, or the iteration loop of one Picard solve.  The memo is
    dropped when the scope closes, so no table outlives the leg or solve.
    """
    token = _tables.set({})
    try:
        yield
    finally:
        _tables.reset(token)


def _airy_table(grid: Grid1D, times: np.ndarray, unit: complex) -> np.ndarray:
    """exp(unit * outer(times, xi^3)), read-only and shared inside _shared_tables.

    xi runs over the half-lattice of a real field (k = 0 .. N/2-1, then the
    unpaired -N/2 mode), as spectral._fold lays it out.
    """
    memo = _tables.get()
    key = (grid.half_length, grid.size, unit, times.tobytes())
    table = None if memo is None else memo.get(key)
    if table is None:
        table = np.exp(unit * np.outer(times, _fold(grid.frequencies ** 3)))
        if memo is not None:
            table.flags.writeable = False
            memo[key] = table
    return table


def free_evolution(u0: SpectralField, times: np.ndarray, t0: float = 0.0) -> TimeTrace:
    """Trace of the free Airy flow of u0: coefficients times exp(i(t-t0)xi^3).

    The rows' zero and unpaired modes are real.
    """
    times = np.asarray(times, dtype=float)
    coeffs = _airy_table(u0.grid, times - t0, 1j) * u0.modes[None, :]
    return TimeTrace(u0.grid, times, _real_ends(coeffs))


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    dt = np.diff(times)
    w = np.empty(times.size)
    w[0] = dt[0] / 2.0
    w[-1] = dt[-1] / 2.0
    w[1:-1] = (dt[:-1] + dt[1:]) / 2.0
    return w


def _validate_exponent(name: str, e: float) -> None:
    if not (e >= 1.0 or e == math.inf):
        raise ValueError(f"{name} must lie in [1, inf], got {e}")


def mixed_norm_values(values: np.ndarray, grid: Grid1D, times: np.ndarray,
                      p: float, q: float, order: str = "x_outer") -> float:
    """Mixed norm of sampled physical values, shape (M, N).

    x_outer is the L^p_x(L^q_t) norm (time inside), t_outer the L^q_t(L^p_x)
    norm.  Time integrals use trapezoid weights on the stored sample times,
    space integrals the lattice sum with weight dx; infinite exponents take
    maxima over the samples.
    """
    _validate_exponent("p", p)
    _validate_exponent("q", q)
    if order not in ("x_outer", "t_outer"):
        raise ValueError(f"order must be x_outer or t_outer, got {order!r}")
    if times.size < 2 and q != math.inf:
        raise ValueError("time quadrature needs at least 2 samples")
    mags = np.abs(values)
    tw = trapezoid_weights(times)
    if order == "x_outer":
        if q == math.inf:
            inner = np.max(mags, axis=0)
        else:
            inner = np.einsum("m,mj->j", tw, mags ** q) ** (1.0 / q)
        return weighted_power_sum(inner, grid.dx, p)
    inner = weighted_power_sum(mags, grid.dx, p)
    if q == math.inf:
        return float(np.max(inner))
    return float(np.sum(tw * inner ** q)) ** (1.0 / q)


def mixed_norm(trace: TimeTrace, p: float, q: float, order: str = "x_outer") -> float:
    """Mixed space-time norm of a trace; see mixed_norm_values."""
    return mixed_norm_values(trace.values(), trace.grid, trace.times, p, q, order)


def _riesz_trace(trace: TimeTrace, s: float) -> TimeTrace:
    """|D_x|^s applied to every row of a trace; s = 0 returns the trace itself."""
    if s == 0:
        return trace
    w = _fold(riesz_weights(trace.grid, s))
    return TimeTrace(trace.grid, trace.times, trace.coeffs * w[None, :])


def xnorm(trace: TimeTrace, s: float, r: float, check: bool = True,
          values: Optional[np.ndarray] = None) -> float:
    """Norm || |D_x|^s u ||_{L^p_x L^q_t} with (p, q) determined by (s, r).

    Requires (s, r) acceptable unless check=False (exploratory use); the
    exponent map is still applied verbatim in that case.  values, when the
    caller already holds them, are the samples of |D_x|^s u
    (trace.values() at s = 0).
    """
    cls = classify_pair(s, r)
    if check and not cls.acceptable:
        raise ValueError(
            f"pair (s={s}, r={r}) is not acceptable: needs 1/r in [0, 3/4) and "
            "s in [-1/(2r), 2/r] for 1/r <= 1/2, "
            "s in (2/r - 5/4, 5/2 - 3/r) for 1/2 < 1/r < 3/4"
        )
    p, q = exponent_map(s, r)
    if values is None:
        values = _riesz_trace(trace, s).values()
    return mixed_norm_values(values, trace.grid, trace.times, p, q, "x_outer")


def snorm(trace: TimeTrace, r: float, check: bool = True,
          values: Optional[np.ndarray] = None) -> float:
    """Scattering-size norm: xnorm at smoothness zero (values: trace.values())."""
    return xnorm(trace, 0.0, r, check=check, values=values)


def ynorm(trace: TimeTrace, s: float, r: float, check: bool = True) -> float:
    """Dual-side norm || |D_x|^s F ||_{L^ptilde_x L^qtilde_t}.

    Requires (s, r) conjugate acceptable unless check=False.
    """
    cls = classify_pair(s, r)
    if check and not cls.conjugate_acceptable:
        raise ValueError(
            f"pair (s={s}, r={r}) is not conjugate acceptable: "
            f"(1 - s, r') = ({1.0 - s}, {holder_conjugate(r)}) must be acceptable"
        )
    p, q = dual_exponent_map(s, r)
    vals = _riesz_trace(trace, s).values()
    return mixed_norm_values(vals, trace.grid, trace.times, p, q, "x_outer")
