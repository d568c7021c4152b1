"""Contraction solver and reference integrator for the generalized KdV flow.

The equation is d_t u + d_x^3 u = mu * d_x(|u|^(alpha-1) u) for real u.  The
integral formulation is iterated in place on one whole-interval trace from
its first sample t0, a row block at a time: the retarded integral factors
the Airy phase out per Fourier mode and integrates it exactly against the
flux's linear interpolant in time (exponential quadrature with phi_2
weights, causal, so a block carries one row and a sum to the next), so its
error is second order in dt at every mode and does not grow with xi^3 dt.  Its phases are the free flow's table of offsets t - t0, so a
solve depends on where it sits in time only through those offsets, as the
autonomous flow does, and a glued run shares one table among its segments.  The backward
problem needs no solver of its own: u(t, x) -> u(-t, -x) maps it onto the
forward one.  An integrating-factor Runge-Kutta stepper of classical order
four provides an independent cross-check.  Both take their phases from
spacetime._airy_table and their flux multiplier i xi from the grid's cached
half-lattice, and both are tested against the exact travelling wave of the
focusing equation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .norms import band_sum, lhat_norm, lhat_rows
from .spacetime import (
    TimeTrace,
    _airy_table,
    _phi2_weights,
    _sample_times,
    _shared_tables,
    exponent_map,
    free_evolution,
    mixed_norm,
)
from .spectral import (
    Grid1D,
    SpectralField,
    _dealiased_map,
    _plan,
    _real_ends,
    _real_samples,
    _row_blocks,
    _scratch,
    _work_buffer,
)

ALPHA_LOWER = 21.0 / 5.0
ALPHA_UPPER = 23.0 / 3.0
ALPHA_EXPLORATORY_LOWER = 27.0 / 7.0
BLOWUP_FACTOR = 1e6

# Largest free-evolution smallness for which the iteration is observed to
# contract with factor <= 1/2 (alpha = 5, both signs of the coupling); the
# sweep of `gkdvlab calibrate-delta` measured contraction up to eps = 1.387
# (factor 0.31) and divergence at eps = 1.90, and rounds the edge down to
# two significant digits.  The edge reads 1.386787 at the sweep's 128
# samples per unit and 1.386791 at the 32 that solve, scatter and persist
# gate at; both round down to this value.
DELTA_DEFAULT = 1.3


def critical_exponent(alpha: float) -> float:
    """Scale-critical Fourier-Lebesgue exponent (alpha - 1)/2."""
    return (alpha - 1.0) / 2.0


def aux_smoothness(alpha: float) -> float:
    """Smoothness 3/4 - 1/(alpha - 1) of the auxiliary contraction norm.

    Positive auxiliary smoothness of this form exists for alpha between
    27/7 and 23/3; the value makes the pair with the critical exponent both
    acceptable and conjugate acceptable on the well-posedness range.
    """
    if not (ALPHA_EXPLORATORY_LOWER < alpha < ALPHA_UPPER):
        raise ValueError(
            f"auxiliary smoothness needs alpha in ({ALPHA_EXPLORATORY_LOWER:.6g}, "
            f"{ALPHA_UPPER:.6g}), got {alpha}"
        )
    return 0.75 - 1.0 / (alpha - 1.0)


class NumericalBlowupError(RuntimeError):
    """Raised when the discrete solution leaves the trusted regime.

    Attributes:
        time: last time with a healthy iterate.
        trace: trace of the stored samples up to that time (None when fewer
            than two were stored; reference_solve stores every store_stride-th).
            picard_solve's is None: it overwrites its iterate in place, so
            no healthy iterate is left once the first block is written.
        datum: position of the failing datum in a stacked reference_solve
            (0 for a single datum).
    """

    def __init__(self, message: str, time: float, trace: Optional[TimeTrace] = None,
                 datum: int = 0):
        super().__init__(message)
        self.time = time
        self.trace = trace
        self.datum = datum


@dataclass(frozen=True)
class NonlinearityG:
    """The power nonlinearity G(z) = |z|^(alpha-1) z entering the flux d_x G(u).

    mu is the coupling written in front of the flux; its sign selects
    defocusing (positive) or focusing (negative).
    """

    alpha: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0):
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")

    def apply_values(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """G evaluated pointwise on real samples, formed in out if given."""
        out = np.abs(values, out=out)
        np.power(out, self.alpha - 1.0, out=out)
        out *= values  # |v|^(alpha-1) v in one array: no sign pass
        return out

    def in_wellposed_range(self) -> bool:
        return ALPHA_LOWER < self.alpha < ALPHA_UPPER


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration parameters for one solve.

    The solve interval is [t_start, t_end] sampled uniformly with
    samples_per_unit intervals per unit time; the Duhamel integral starts
    at t_start.
    """

    grid: Grid1D
    t_start: float = 0.0
    t_end: float = 1.0
    samples_per_unit: int = 128
    pad: int = 2
    tolerance: float = 1e-10
    max_iterations: int = 25
    delta: float = DELTA_DEFAULT
    exploratory: bool = False
    reference_dt: float = 1.0 / 256.0

    def __post_init__(self) -> None:
        if not (self.t_end > self.t_start):
            raise ValueError("t_end must exceed t_start")
        if self.pad < 2:
            raise ValueError(f"dealias padding must be >= 2, got {self.pad}")
        if self.samples_per_unit < 2:
            raise ValueError("samples_per_unit must be >= 2")
        if not self.reference_dt > 0:
            raise ValueError(f"reference_dt must be > 0, got {self.reference_dt}")
        if not self.delta >= 0:  # inf turns the gate off, NaN would as well
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")

    def times(self) -> np.ndarray:
        return _sample_times(self.t_start, self.t_end, self.samples_per_unit)


@dataclass
class SolveResult:
    """Outcome of a contraction solve.

    update_distances[k] is the sup-in-time critical-norm distance between
    iterates k and k+1; contraction_factors are their successive ratios.
    epsilon is the free-evolution smallness the gate compares against delta.
    """

    trace: TimeTrace
    converged: bool
    iterations: int
    epsilon: float
    delta: float
    update_distances: List[float] = field(default_factory=list)
    contraction_factors: List[float] = field(default_factory=list)
    reason: str = ""


def _retarded_rows(grid: Grid1D, times: np.ndarray, carry: np.ndarray):
    """The phase table of offsets from times[0] and the retarded integral's block step.

    step(rows, forcing, out, tmp) forms rows `rows` of the integral in out (may
    be forcing) from the forcing's rows, tmp a work array of their shape, in
    order from row 0; g of a block's last row and the running sum, which
    continues np.cumsum's sequential adds, go to the next in carry's rows.
    """
    h = (times[-1] - times[0]) / (times.size - 1)
    if np.max(np.abs(np.diff(times) - h)) > 1e-9 * h:
        raise ValueError("the retarded integral needs uniformly spaced times")
    up, w = _airy_table(grid, times - times[0], 1j), _phi2_weights(grid, h)
    w_bar, done = np.conjugate(w), 0  # rows formed

    def step(rows, forcing, out, tmp):
        nonlocal done
        # the phase stays the left operand: complex products are not bytewise
        # commutative where numpy's multiply loop uses fused multiply-adds
        g = np.multiply(np.conjugate(up[rows], out=tmp), forcing, out=out)
        np.multiply(w, g[:-1], out=tmp[1:])  # w g_{k-1}, the first row's from carry
        if done:
            np.multiply(w, carry[0], out=tmp[0])
        carry[0] = g[-1]
        steps = g[not done:]  # row 0 takes no step
        np.add(np.multiply(w_bar, steps, out=steps), tmp[not done:], out=steps)
        if done > 1:
            np.add(carry[1], steps[0], out=steps[0])
        carry[1] = np.cumsum(steps, axis=0, out=steps)[-1] if len(steps) else 0.0
        if not done:
            g[0] = 0.0
        done += len(g)
        _real_ends(np.multiply(up[rows], g, out=g))

    return up, step


def retarded_integral(forcing: TimeTrace, out: Optional[np.ndarray] = None) -> TimeTrace:
    """Mode-wise retarded integral of a forcing trace from its first time t0.

    Returns the trace t -> integral_{t0}^{t} exp(i (t - t') xi^3) F(t') dt'
    for F linear between the samples, which must be uniformly spaced, exactly:
    with g_k = exp(-i (t_k - t0) xi^3) F_k and w = _phi2_weights of the step,
    step k adds w g_k + conj(w) g_{k+1} to a cumulative sum that
    exp(i (t - t0) xi^3) turns back, so the error, second order in h, does
    not grow with xi^3 h.  The phases are the table of offsets t - t0 that
    free_evolution reads, so traces whose offsets are equal bit for bit give
    the same bytes wherever they sit in time.  The result's zero and unpaired
    modes are real.  It is formed a row block at a time (_retarded_rows) in
    out, of the forcing's shape (it may be forcing.coeffs), or a new array.
    """
    result = np.empty_like(forcing.coeffs) if out is None else out
    blocks = _row_blocks(result)
    rows, n = result[blocks[0]].shape
    work = np.empty((rows + 2, n), complex)
    step = _retarded_rows(forcing.grid, forcing.times, work[rows:])[1]
    for b in blocks:
        step(b, forcing.coeffs[b], result[b], work[:len(result[b])])
    return TimeTrace(forcing.grid, forcing.times, result)


def _duhamel_rows(coeffs: np.ndarray, times: np.ndarray, u0: SpectralField,
                  G: NonlinearityG, pad: int, rc: Optional[float] = None) -> Optional[float]:
    """Overwrite an iterate's rows with its integral map (duhamel_map), in half row blocks.

    Each block runs the power map, i xi, the retarded step, mu and the free
    term with the whole trace's operands and order, so the bytes are its.
    With rc, the new rows must be finite (else NumericalBlowupError, with no
    trace), and the largest lhat_rows at rc of their change is returned.
    The block arrays are in one work buffer: the fine spectrum (the samples
    in it), the mapped samples, and new rows, a spare block and carried rows.
    """
    n, m = u0.grid.size // 2 + 1, pad * u0.grid.size
    blocks = _row_blocks(coeffs, halved=True)
    b = len(coeffs[blocks[0]])
    fine_bytes = 16 * b * (m // 2 + 1)
    # the last array first, so the buffer grows at most once
    coarse = _scratch((2 * b + 2, n), complex, fine_bytes + 8 * b * m)
    fine, mapped = _scratch((b, m // 2 + 1), complex), _scratch((b, m), float, fine_bytes)
    up, step = _retarded_rows(u0.grid, times, coarse[2 * b:])
    # i xi of the unpaired mode makes it imaginary; the integral keeps it
    # until its result's modes are made real
    i_xi, dist = 1j * _plan(u0.grid.half_length, u0.grid.size).xi, 0.0
    for rows in blocks:
        old = coeffs[rows]
        k = len(old)
        new, tmp, work = coarse[:k], coarse[b:b + k], mapped[:k]
        _dealiased_map(old, u0.grid, partial(G.apply_values, out=work), pad,
                       fine[:k].view(float)[..., :m], tmp, fine[:k], new)
        step(rows, np.multiply(i_xi, new, out=new), new, tmp)
        np.multiply(G.mu, new, out=new)
        np.add(_real_ends(np.multiply(up[rows], u0.modes, out=tmp)), new, out=new)
        if rc is not None:
            if not np.all(np.isfinite(new, out=np.ndarray(new.shape, bool, work))):
                raise NumericalBlowupError("iterate left the finite regime", time=float(times[0]))
            dist = max(dist, float(np.max(lhat_rows(np.subtract(new, old, out=tmp),
                                                    u0.grid.dxi, rc))))
        old[...] = new
    return dist if rc is not None else None


def duhamel_map(v: TimeTrace, u0: SpectralField, G: NonlinearityG,
                cfg: SolverConfig) -> TimeTrace:
    """One integral-equation application: free term plus flux integral.

    On the times of v, from their first time t0, returns
    exp(-(t - t0) d_x^3) u0 + mu * integral_{t0}^{t} exp(-(t - t') d_x^3) d_x G(v(t')) dt',
    formed in a copy of v's rows by picard_solve's pass (_duhamel_rows), its
    free term from the retarded integral's phase table with free_evolution's bytes.
    """
    if v.grid != u0.grid:
        raise ValueError("iterate and datum live on different grids")
    coeffs = v.coeffs.copy()
    _duhamel_rows(coeffs, v.times, u0, G, cfg.pad)
    return TimeTrace(v.grid, v.times, coeffs)


def _wellposed_guard(G: NonlinearityG, cfg: SolverConfig) -> None:
    """Raises outside the ranges; warns on an exploratory alpha."""
    if G.in_wellposed_range():
        return
    if cfg.exploratory and ALPHA_EXPLORATORY_LOWER < G.alpha < ALPHA_UPPER:
        warnings.warn(
            f"alpha = {G.alpha} is outside the well-posedness range "
            f"({ALPHA_LOWER:.6g}, {ALPHA_UPPER:.6g}); exploratory run, "
            "norm-pair checks disabled",
            stacklevel=3,
        )
        return
    raise ValueError(
        f"alpha = {G.alpha} needs the well-posedness range "
        f"({ALPHA_LOWER:.6g}, {ALPHA_UPPER:.6g}); pass exploratory=True for "
        f"alpha in ({ALPHA_EXPLORATORY_LOWER:.6g}, {ALPHA_UPPER:.6g})"
    )


def _size_norms(trace: TimeTrace, alpha: float) -> Tuple[float, float]:
    """The contraction's scattering norm and auxiliary norm of a trace.

    snorm and xnorm at the critical exponent, with no pair check: an
    exploratory alpha leaves the acceptable region, and the exponent map
    still applies there.
    """
    rc = critical_exponent(alpha)
    sl = aux_smoothness(alpha)
    return (mixed_norm(trace, *exponent_map(0.0, rc)),
            mixed_norm(trace, *exponent_map(sl, rc), sl))


def free_smallness(u0: SpectralField, G: NonlinearityG, cfg: SolverConfig) -> float:
    """The gate quantity: scattering norm plus auxiliary norm of the free flow."""
    free = free_evolution(u0, cfg.times(), t0=cfg.t_start)
    return sum(_size_norms(free, G.alpha))


def picard_solve(u0: SpectralField, G: NonlinearityG, cfg: SolverConfig) -> SolveResult:
    """Iterate the integral map on the whole sampled interval.

    The iteration starts from the free evolution; when the free-evolution
    smallness exceeds delta the gate declines to iterate and a not-converged
    result is returned (split the interval and retry in that case).  A NaN
    or overflow in an iterate raises NumericalBlowupError with no trace.

    Grid and sample times are fixed, so one phase table of offsets from
    t_start serves the free trace and each step (shared in a _shared_tables
    scope, which joins a glued run's).  The free trace, built for the gate,
    is the first iterate; each step overwrites it a half block of rows at a
    time (_duhamel_rows), with the update distance: it holds the table, one
    trace and block work from one _work_buffer scope, opened around the
    loop only (in it the gate's norms would keep their powers).
    """
    _wellposed_guard(G, cfg)
    times = cfg.times()
    rc = critical_exponent(G.alpha)
    with _shared_tables():
        v = free_evolution(u0, times, t0=cfg.t_start)
        eps = sum(_size_norms(v, G.alpha))
        if eps > cfg.delta:
            return SolveResult(
                trace=v, converged=False, iterations=0, epsilon=eps, delta=cfg.delta,
                reason=f"smallness gate: epsilon {eps:.6g} exceeds delta {cfg.delta:.6g}")
        dists: List[float] = []
        factors: List[float] = []
        with _work_buffer():
            for iterations in range(1, cfg.max_iterations + 1):
                dists.append(_duhamel_rows(v.coeffs, times, u0, G, cfg.pad, rc))
                if len(dists) >= 2 and dists[-2] > 0.0:
                    factors.append(dists[-1] / dists[-2])
                if dists[-1] <= cfg.tolerance:
                    break
    converged = dists[-1] <= cfg.tolerance
    return SolveResult(trace=v, converged=converged, iterations=iterations, epsilon=eps,
                       delta=cfg.delta, update_distances=dists, contraction_factors=factors,
                       reason="" if converged else "max iterations reached")


def _mass_drift(trace: TimeTrace) -> Tuple[float, float]:
    """Initial mass of a trace and its largest relative change over the rows."""
    masses = band_sum(np.abs(trace.coeffs) ** 2, half=True) * trace.grid.dxi
    m0 = masses[0]
    return float(m0), (float(np.max(np.abs(masses - m0)) / m0) if m0 > 0 else 0.0)


def solve_diagnostics(trace: TimeTrace, u0: SpectralField, G: NonlinearityG,
                      cfg: SolverConfig, eps: float) -> dict:
    """Conservation drifts, size bounds, and boundary-mass taint for a trace."""
    rc = critical_exponent(G.alpha)
    m0, mass_drift = _mass_drift(trace)
    e0 = energy(trace.field(0), G, pad=cfg.pad)
    e1 = energy(trace.field(trace.sample_count - 1), G, pad=cfg.pad)
    emid = energy(trace.field(trace.sample_count // 2), G, pad=cfg.pad)
    escale = max(abs(e0), 1e-300)
    energy_drift = float(max(abs(e1 - e0), abs(emid - e0)) / escale)
    sup_lhat = float(np.max(lhat_rows(trace.coeffs, trace.grid.dxi, rc)))
    boundary = _largest_boundary_fraction(trace)
    size = sum(_size_norms(trace, G.alpha))
    return {
        "mass_initial": m0,
        "mass_drift": mass_drift,
        "energy_initial": float(e0),
        "energy_drift": energy_drift,
        "sup_critical_lhat": sup_lhat,
        "datum_critical_lhat": lhat_norm(u0, rc),
        "size_norm": float(size),
        "small_data_bound": float(size) <= 2.0 * eps + 1e-12,
        "boundary_mass_fraction": boundary,
        "boundary_tainted": boundary > 1e-6,
    }


def boundary_mass_fraction(vals: np.ndarray, grid: Grid1D):
    """Share of the L^2 mass within the outer tenth of the domain, per row.

    vals are physical samples along the last axis; a 1-d input gives a
    float, and a row with no mass gives 0.  A row's fraction has the same
    bits however many rows come with it, so a trace's largest may be taken
    in row blocks.  The periodic interval stands in for the whole line only
    while this stays tiny; runs report it and flag values above 1e-6 as
    tainted.
    """
    # the outer tenth is a leading and a trailing range of samples; summing
    # each as a slice along the last axis gives a row the same bits however
    # many rows come with it
    inner = np.flatnonzero(np.abs(grid.points) < 0.9 * grid.half_length)
    lo, hi = inner[0], inner[-1] + 1
    num = (np.sum(np.abs(vals[..., :lo]) ** 2, axis=-1)
           + np.sum(np.abs(vals[..., hi:]) ** 2, axis=-1))
    den = np.sum(np.abs(vals) ** 2, axis=-1)
    with np.errstate(invalid="ignore"):
        frac = np.where(den > 0, num / den, 0.0)
    return float(frac) if frac.ndim == 0 else frac


def _largest_boundary_fraction(trace: TimeTrace) -> float:
    """The largest boundary_mass_fraction of a trace's rows, taken one row block
    at a time, so the trace's samples are never whole."""
    return float(max(np.max(boundary_mass_fraction(
        _real_samples(trace.coeffs[rows], trace.grid, 1), trace.grid))
        for rows in _row_blocks(trace.coeffs)))


# Shortest segment a glued solve bisects down to before it gives up.
_MIN_SEGMENT = 1.0 / 64.0


@dataclass
class GluedResult:
    """Combined outcome of a segment-by-segment solve."""

    trace: TimeTrace
    converged: bool
    segments: List[dict] = field(default_factory=list)
    reason: str = ""


def glued_solve(u0: SpectralField, G: NonlinearityG, cfg: SolverConfig,
                segment_length: float = 2.0, store_stride: int = 1) -> GluedResult:
    """Solve on [t_start, t_end] by gluing contraction solves on subintervals.

    Each segment takes the previous final state as datum; a segment whose
    gate declines (or whose iteration stalls) is bisected down to
    _MIN_SEGMENT before giving up.  store_stride thins the stored samples of
    each segment (endpoints always kept).  The segments share one
    _shared_tables scope: segments of one length repeat the same offsets
    from their starts, so they read one phase table.  Each segment reports
    only its mass drift and boundary mass fraction, with the bytes
    solve_diagnostics gives them.
    """
    if not math.isfinite(cfg.t_end):
        raise ValueError(f"a glued solve needs a finite end time, got {cfg.t_end}")
    _strided_indices(2, store_stride)  # a bad stride fails before any segment is solved
    t_final = cfg.t_end
    t = cfg.t_start
    u = u0
    all_times: List[np.ndarray] = []
    all_coeffs: List[np.ndarray] = []
    segments: List[dict] = []
    with _shared_tables():
        while t < t_final - 1e-12:
            length = min(segment_length, t_final - t)
            while True:
                seg_cfg = replace(cfg, t_start=t, t_end=t + length)
                res = picard_solve(u, G, seg_cfg)
                if res.converged:
                    break
                if length / 2.0 < _MIN_SEGMENT:
                    return GluedResult(
                        trace=res.trace, converged=False, segments=segments,
                        reason=f"segment [{t:.6g}, {t + length:.6g}] failed: {res.reason}",
                    )
                length /= 2.0
                del res  # a declined attempt's trace must not outlive it
            seg = res.trace
            segments.append({
                "t_start": float(t),
                "t_end": float(t + length),
                "iterations": res.iterations,
                "epsilon": res.epsilon,
                "contraction_factors": res.contraction_factors,
                "mass_drift": _mass_drift(seg)[1],
                "boundary_mass_fraction": _largest_boundary_fraction(seg),
            })
            idx = _strided_indices(seg.sample_count, store_stride)
            if all_times:
                idx = idx[1:]  # segment start duplicates previous endpoint
            all_times.append(seg.times[idx])
            all_coeffs.append(seg.coeffs[idx])
            u = seg.field(seg.sample_count - 1)
            t = t + length
            del res, seg  # trace-sized: let them go before the next segment's solve
    trace = TimeTrace(cfg.grid, np.concatenate(all_times),
                      np.concatenate(all_coeffs))
    return GluedResult(trace=trace, converged=True, segments=segments)


def _strided_indices(n: int, stride: int) -> np.ndarray:
    """Every stride-th of n sample indices and the last; stride must be >= 1."""
    if stride < 1:
        raise ValueError(f"store_stride must be >= 1, got {stride}")
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


class FieldStack(tuple):
    """Fields on one grid, integrated side by side by reference_solve.

    A tuple that also carries the common grid, so a stack answers .grid as
    a single SpectralField does.
    """

    def __new__(cls, fields: Sequence[SpectralField]) -> "FieldStack":
        stack = super().__new__(cls, fields)
        if not stack:
            raise ValueError("a field stack needs at least one field")
        if any(f.grid != stack[0].grid for f in stack):
            raise ValueError("stacked fields live on different grids")
        return stack

    @property
    def grid(self) -> Grid1D:
        return self[0].grid


def reference_step(cfg: SolverConfig) -> float:
    """The substep reference_solve runs on cfg's first output interval."""
    span = np.diff(cfg.times()[:2])[0]
    return float(span / max(1, math.ceil(span / cfg.reference_dt)))


def reference_solve(u0: Union[SpectralField, Sequence[SpectralField]], G: NonlinearityG,
                    cfg: SolverConfig, store_stride: int = 1) -> Union[TimeTrace, List[TimeTrace]]:
    """Integrating-factor Runge-Kutta (classical order 4) cross-check.

    The dispersive phase is integrated exactly per mode; the explicit stages
    handle only the flux, so there is no stiffness from the linear term.
    With mu = 0 the scheme reproduces the free flow to round-off.  Substep
    size is reference_dt, snapped to divide each output interval.  The
    state is the half-spectrum of each datum, and after each substep its
    zero and unpaired modes are made real.

    u0 is one field, or a sequence of fields on one grid; a sequence is
    integrated as the rows of one (k, N/2 + 1) stack, so each stage makes one
    dealiased map for all data (spectral._dealiased_map, on the calling
    thread, into arrays the call owns), and one trace per datum is returned.  Rows
    never mix: each equals its single-datum call byte for byte.  A datum
    whose norm leaves the trusted regime (BLOWUP_FACTOR times its own
    initial size) leaves the stack together with the data listed after it,
    whose outcome no longer matters, and the others go on.  The call then
    raises the NumericalBlowupError that the first listed failing datum
    raises on its own, with datum set to its position.

    store_stride keeps every store_stride-th output sample and the last
    (_strided_indices); the step still visits every output time, so each
    kept row has the bytes of the stride-1 run's row.
    """
    single = isinstance(u0, SpectralField)
    data = FieldStack((u0,) if single else u0)
    times = cfg.times()
    grid = data.grid
    rc = critical_exponent(G.alpha)
    limits = [BLOWUP_FACTOR * max(lhat_norm(u, rc), 1e-300) for u in data]
    flux_multiplier = G.mu * 1j * _plan(grid.half_length, grid.size).xi
    idx = _strided_indices(times.size, store_stride)
    out = np.empty((len(data), idx.size, grid.size // 2 + 1), dtype=complex)
    c = np.stack([u.modes for u in data])
    out[:, 0] = c
    # the call's arrays, cut to the live data: four stages, a stage's input
    # and its scaled spectrum; the samples and their power; the fine spectrum
    stages = np.empty((6,) + c.shape, dtype=complex)
    real = np.empty((2, len(data), cfg.pad * grid.size))
    fine = np.empty(len(data) * (cfg.pad * grid.size // 2 + 1), dtype=complex)
    kept = 1  # rows of out written
    live = len(data)  # rows 0 .. live-1 of c are data 0 .. live-1
    failure = None
    h = None
    for m in range(times.size - 1):
        span = times[m + 1] - times[m]
        nsub = max(1, math.ceil(span / cfg.reference_dt))
        if span / nsub != h:  # spans of non-dyadic intervals differ in the last bit
            h = span / nsub
            e_half = _airy_table(grid, np.array([h / 2.0]), 1j)[0]
            e_full = e_half * e_half
            back_half, back_full = np.conj(e_half), np.conj(e_full)
            steps = ((None, h / 2.0, e_half), (back_half, h / 2.0, e_half),
                     (back_half, h, e_full), (back_full, None, None))
        for _ in range(nsub):
            # per (back, step, e) of steps, k = back * flux(x), then the next x =
            # e * (c + step * k), in place, with the formula's left operands
            power, x = partial(G.apply_values, out=real[1]), c
            for k, (back, step, e) in zip(stages, steps):
                _dealiased_map(x, grid, power, cfg.pad, real[0], stages[5], fine, k)
                np.multiply(flux_multiplier, k, out=k)
                if back is not None:
                    np.multiply(back, k, out=k)
                if step is not None:
                    x = stages[4]
                    np.multiply(e, np.add(c, np.multiply(step, k, out=x), out=x), out=x)
            k1, k2, k3, k4 = stages[:4]  # c = e_full (c + (h/6)(k1 + 2 k2 + 2 k3 + k4))
            np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
            np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
            np.add(k1, k4, out=k1)
            np.add(c, np.multiply(h / 6.0, k1, out=k1), out=k1)
            _real_ends(np.multiply(e_full, k1, out=c))
        for i in range(live):
            if not np.all(np.isfinite(c[i])) \
                    or lhat_rows(c[i], grid.dxi, rc) > limits[i]:
                head = TimeTrace(grid, times[idx[:kept]], out[i, :kept]) \
                    if kept >= 2 else None
                failure = NumericalBlowupError(
                    f"norm left the trusted regime after t = {times[m]:.6g}",
                    time=float(times[m]), trace=head, datum=i,
                )
                live, c, stages, real = i, c[:i], stages[:, :i], real[:, :i]
                break
        if m + 1 == idx[kept]:
            out[:live, kept] = c
            kept += 1
        if not live:
            break
    if failure is not None:
        raise failure
    traces = [TimeTrace(grid, times[idx], rows) for rows in out]
    return traces[0] if single else traces


def mass(u: SpectralField) -> float:
    """Conserved L^2 mass ||u||^2, evaluated on the frequency side."""
    return float(band_sum(np.abs(u.modes) ** 2, half=True) * u.grid.dxi)


def _energy_terms(u: SpectralField, G: NonlinearityG, pad: int = 2) -> Tuple[float, float]:
    """The kinetic term (1/2)||d_x u||^2 and the potential integral ||u||^{alpha+1}."""
    xi = _plan(u.grid.half_length, u.grid.size).xi
    kinetic = 0.5 * float(band_sum((xi * np.abs(u.modes)) ** 2, half=True) * u.grid.dxi)
    vals = _real_samples(u.modes, u.grid, pad)
    potential = float(np.sum(np.abs(vals) ** (G.alpha + 1.0)) * u.grid.refined(pad).dx)
    return kinetic, potential


def energy(u: SpectralField, G: NonlinearityG, pad: int = 2) -> float:
    """Conserved energy: (1/2)||d_x u||^2 + (mu/(alpha+1)) ||u||^{alpha+1}.

    The potential term is integrated on a dealiasing grid, over the real
    samples of u's k >= 0 half-spectrum.
    """
    kinetic, potential = _energy_terms(u, G, pad)
    return kinetic + (G.mu / (G.alpha + 1.0)) * potential


def calibrate_delta(grid: Grid1D, alpha: float = 5.0,
                    amplitudes: Optional[Sequence[float]] = None,
                    interval: Tuple[float, float] = (0.0, 1.0),
                    seed: int = 0, random_per_amplitude: int = 2,
                    samples_per_unit: int = 128) -> dict:
    """Sweep data sizes to measure how large the smallness gate may be.

    For each coupling sign and each amplitude, runs the contraction with the
    gate disabled and records the free-evolution smallness epsilon next to
    the worst observed contraction factor.  The returned delta is the
    largest epsilon that still contracted with factor <= 1/2, capped by the
    smallest epsilon that failed, then rounded down to two significant
    digits so the shipped default does not sit on the measurement edge.
    """
    from .spectral import gaussian_profile, random_band_limited

    if amplitudes is None:
        amplitudes = np.geomspace(0.02, 1.2, 14)
    seeds = np.random.SeedSequence(seed).spawn(len(amplitudes) * random_per_amplitude)
    rows: List[dict] = []
    for mu in (1.0, -1.0):
        G = NonlinearityG(alpha=alpha, mu=mu)
        for k, amp in enumerate(amplitudes):
            data = [("gaussian", gaussian_profile(grid, float(amp)))]
            for j in range(random_per_amplitude):
                child = seeds[k * random_per_amplitude + j]
                f = random_band_limited(grid, decay=1.0, band=grid.size // 4, seed=child)
                data.append((f"random{j}", float(amp) * f))
            for label, u0 in data:
                cfg = SolverConfig(grid=grid, t_start=interval[0], t_end=interval[1],
                                   samples_per_unit=samples_per_unit, delta=math.inf)
                try:
                    # gate is off, so diverging probes overflow before any
                    # check trips; those floating warnings are the point
                    with np.errstate(over="ignore", invalid="ignore"):
                        res = picard_solve(u0, G, cfg)
                    eps, converged = res.epsilon, res.converged
                    factor = max(res.contraction_factors) if res.contraction_factors else 0.0
                except NumericalBlowupError:
                    eps, factor, converged = free_smallness(u0, G, cfg), math.inf, False
                rows.append({"mu": mu, "amplitude": float(amp), "datum": label,
                             "epsilon": eps, "factor": factor, "converged": converged})
    good = [r["epsilon"] for r in rows if r["converged"] and r["factor"] <= 0.5]
    bad = [r["epsilon"] for r in rows if not (r["converged"] and r["factor"] <= 0.5)]
    if not good:
        raise RuntimeError("no probe contracted; the sweep cannot calibrate a gate")
    edge = max(good)
    if bad:
        edge = min(edge, min(bad))
    scale = 10.0 ** math.floor(math.log10(edge))
    delta = math.floor(edge / scale * 10.0) / 10.0 * scale
    return {"delta": delta, "edge": edge, "rows": rows,
            "alpha": alpha, "seed": seed, "interval": list(interval)}
