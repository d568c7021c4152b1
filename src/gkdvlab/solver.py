"""Contraction solver and reference integrator for the generalized KdV flow.

The equation is d_t u + d_x^3 u = mu * d_x(|u|^(alpha-1) u) for real u.  The
integral formulation is iterated on whole-interval traces: the retarded
integral factors the Airy phase out per Fourier mode and applies cumulative
trapezoid weights to exp(-i t xi^3) F(t), so its quadrature error grows
with xi^3 dt and is largest at the top modes.  An integrating-factor
Runge-Kutta stepper of classical order four provides an independent
cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .norms import band_sum, lhat_norm, lhat_rows
from .spacetime import TimeTrace, _airy_table, _shared_tables, free_evolution, snorm, xnorm
from .spectral import (
    Grid1D,
    SpectralField,
    _fold,
    _real_ends,
    _real_samples,
    apply_pointwise_matrix,
)

ALPHA_LOWER = 21.0 / 5.0
ALPHA_UPPER = 23.0 / 3.0
ALPHA_EXPLORATORY_LOWER = 27.0 / 7.0
BLOWUP_FACTOR = 1e6

# Largest free-evolution smallness for which the iteration is observed to
# contract with factor <= 1/2 (alpha = 5, both signs of the coupling); the
# sweep in scripts/calibrate_delta.py measured contraction up to eps = 1.387
# (factor 0.31) and divergence at eps = 1.90, and rounds the edge down to
# two significant digits.
DELTA_DEFAULT = 1.3


def critical_exponent(alpha: float) -> float:
    """Scale-critical Fourier-Lebesgue exponent (alpha - 1)/2."""
    return (alpha - 1.0) / 2.0


def critical_sobolev(alpha: float) -> float:
    """Scale-critical Sobolev smoothness 1/2 - 2/(alpha - 1)."""
    return 0.5 - 2.0 / (alpha - 1.0)


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
        trace: trace of samples up to that time (may be None).
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
    """Nonlinearity G entering the flux d_x G(u).

    rule "power" means G(z) = |z|^(alpha-1) z; rule "custom" evaluates the
    supplied func (a real pointwise map).  mu is the coupling written in
    front of the flux; its sign selects defocusing (positive) or focusing
    (negative).
    """

    alpha: float
    mu: float = 1.0
    rule: str = "power"
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0):
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if self.rule not in ("power", "custom"):
            raise ValueError(f"rule must be power or custom, got {self.rule!r}")
        if self.rule == "custom" and self.func is None:
            raise ValueError("custom rule needs func")

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """G evaluated pointwise on real samples."""
        if self.rule != "power":
            return self.func(values)
        out = np.abs(values)
        np.power(out, self.alpha - 1.0, out=out)
        out *= values  # |v|^(alpha-1) v in one array: no sign pass
        return out

    def in_wellposed_range(self) -> bool:
        return ALPHA_LOWER < self.alpha < ALPHA_UPPER


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration parameters for one solve.

    The solve interval is [t_start, t_end] sampled uniformly with
    samples_per_unit intervals per unit time; anchor is the Duhamel base
    point t0 and must be one of the sample times (defaults to t_start).
    """

    grid: Grid1D
    t_start: float = 0.0
    t_end: float = 1.0
    anchor: Optional[float] = None
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

    def times(self) -> np.ndarray:
        span = self.t_end - self.t_start
        m = max(2, round(span * self.samples_per_unit))
        return np.linspace(self.t_start, self.t_end, m + 1)

    def anchor_time(self) -> float:
        return self.t_start if self.anchor is None else self.anchor


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
    diagnostics: dict = field(default_factory=dict)


def _cumulative_trapezoid(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    out = np.empty_like(rows)
    out[0] = 0.0
    steps = np.add(rows[1:], rows[:-1], out=out[1:])
    np.multiply(0.5 * np.diff(times)[:, None], steps, out=steps)
    np.cumsum(steps, axis=0, out=steps)
    return out


def retarded_integral(forcing: TimeTrace, t0: float) -> TimeTrace:
    """Mode-wise retarded integral of a forcing trace from the anchor t0.

    Returns the trace t -> integral_{t0}^{t} exp(i (t - t') xi^3) F(t') dt'
    as exp(i t xi^3) times cumulative trapezoid sums of exp(-i t' xi^3) F(t'):
    the rule acts on that oscillatory product, so the kernel is not
    integrated exactly and the error per step grows with xi^3 dt.  t0 must
    be one of the sample times.  The result's zero and unpaired modes are
    real.
    """
    times = forcing.times
    j0 = int(np.argmin(np.abs(times - t0)))
    if abs(times[j0] - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"anchor {t0} is not a sample time of the forcing trace")
    down = _airy_table(forcing.grid, times, -1j)
    # down stays the left operand: complex products are not bytewise
    # commutative where numpy's multiply loop uses fused multiply-adds
    integrand = np.multiply(down, forcing.coeffs)
    result = _cumulative_trapezoid(integrand, times)
    if j0:
        result -= result[j0]
    up = np.conjugate(down, out=integrand)
    np.multiply(up, result, out=result)
    return TimeTrace(forcing.grid, times, _real_ends(result))


def duhamel_map(v: TimeTrace, free: TimeTrace, t0: float, G: NonlinearityG,
                cfg: SolverConfig) -> TimeTrace:
    """One integral-equation application: free term plus flux integral.

    free is the trace t -> exp(-(t - t0) d_x^3) u0 on the times of v, built
    once per solve.  Returns free(t)
    + mu * integral_{t0}^{t} exp(-(t - t') d_x^3) d_x G(v(t')) dt'.
    """
    if v.grid != free.grid:
        raise ValueError("iterate and datum live on different grids")
    flux = apply_pointwise_matrix(v.coeffs, v.grid, G.apply_values, pad=cfg.pad)
    # i xi of the unpaired mode makes it imaginary; the integral keeps it
    # until its result's modes are made real
    np.multiply(1j * _fold(v.grid.frequencies), flux, out=flux)
    coeffs = retarded_integral(TimeTrace(v.grid, v.times, flux), t0).coeffs
    del flux  # trace-sized arrays set peak memory: update the integral in place
    np.multiply(G.mu, coeffs, out=coeffs)
    np.add(free.coeffs, coeffs, out=coeffs)
    return TimeTrace(v.grid, v.times, coeffs)


def _wellposed_guard(G: NonlinearityG, cfg: SolverConfig) -> bool:
    """Returns whether norm-pair checks stay on; raises outside the ranges."""
    if G.in_wellposed_range():
        return True
    if cfg.exploratory and ALPHA_EXPLORATORY_LOWER < G.alpha < ALPHA_UPPER:
        warnings.warn(
            f"alpha = {G.alpha} is outside the well-posedness range "
            f"({ALPHA_LOWER:.6g}, {ALPHA_UPPER:.6g}); exploratory run, "
            "norm-pair checks disabled",
            stacklevel=3,
        )
        return False
    raise ValueError(
        f"alpha = {G.alpha} needs the well-posedness range "
        f"({ALPHA_LOWER:.6g}, {ALPHA_UPPER:.6g}); pass exploratory=True for "
        f"alpha in ({ALPHA_EXPLORATORY_LOWER:.6g}, {ALPHA_UPPER:.6g})"
    )


def _smallness(free: TimeTrace, G: NonlinearityG, check: bool) -> float:
    rc = critical_exponent(G.alpha)
    return snorm(free, rc, check=check) + xnorm(free, aux_smoothness(G.alpha), rc,
                                               check=check)


def free_smallness(u0: SpectralField, G: NonlinearityG, cfg: SolverConfig) -> float:
    """The gate quantity: scattering norm plus auxiliary norm of the free flow."""
    free = free_evolution(u0, cfg.times(), t0=cfg.anchor_time())
    return _smallness(free, G, G.in_wellposed_range())


def picard_solve(u0: SpectralField, G: NonlinearityG, cfg: SolverConfig) -> SolveResult:
    """Iterate the integral map on the whole sampled interval.

    The iteration starts from the free evolution; when the free-evolution
    smallness exceeds delta the gate declines to iterate and a not-converged
    result is returned (split the interval and retry in that case).  A NaN
    or overflow in an iterate raises NumericalBlowupError carrying the last
    healthy iterate.

    Grid and sample times are fixed, so the free trace and the retarded phase
    table are built once per solve (the table in a _shared_tables scope).
    """
    check = _wellposed_guard(G, cfg)
    times = cfg.times()
    t0 = cfg.anchor_time()
    rc = critical_exponent(G.alpha)
    free = free_evolution(u0, times, t0=t0)
    eps = _smallness(free, G, check)
    if eps > cfg.delta:
        return SolveResult(
            trace=free, converged=False, iterations=0, epsilon=eps,
            delta=cfg.delta,
            reason=f"smallness gate: epsilon {eps:.6g} exceeds delta {cfg.delta:.6g}",
        )
    v = free
    dists: List[float] = []
    factors: List[float] = []
    converged = False
    reason = "max iterations reached"
    iterations = 0
    with _shared_tables():
        for iterations in range(1, cfg.max_iterations + 1):
            w = duhamel_map(v, free, t0, G, cfg)
            if not np.all(np.isfinite(w.coeffs)):
                raise NumericalBlowupError(
                    "iterate left the finite regime", time=float(times[0]), trace=v,
                )
            dist = float(np.max(lhat_rows(w.coeffs - v.coeffs, u0.grid.dxi, rc)))
            dists.append(dist)
            if len(dists) >= 2 and dists[-2] > 0.0:
                factors.append(dists[-1] / dists[-2])
            v = w
            if dist <= cfg.tolerance:
                converged = True
                reason = ""
                break
    result = SolveResult(
        trace=v, converged=converged, iterations=iterations, epsilon=eps,
        delta=cfg.delta, update_distances=dists, contraction_factors=factors,
        reason=reason,
    )
    result.diagnostics = solve_diagnostics(result.trace, u0, G, cfg, eps)
    return result


def solve_diagnostics(trace: TimeTrace, u0: SpectralField, G: NonlinearityG,
                      cfg: SolverConfig, eps: float) -> dict:
    """Conservation drifts, size bounds, and boundary-mass taint for a trace."""
    check = G.in_wellposed_range()
    rc = critical_exponent(G.alpha)
    masses = band_sum(np.abs(trace.coeffs) ** 2, half=True) * trace.grid.dxi
    m0 = masses[0]
    mass_drift = float(np.max(np.abs(masses - m0)) / m0) if m0 > 0 else 0.0
    e0 = energy(trace.field(0), G, pad=cfg.pad)
    e1 = energy(trace.field(trace.sample_count - 1), G, pad=cfg.pad)
    emid = energy(trace.field(trace.sample_count // 2), G, pad=cfg.pad)
    escale = max(abs(e0), 1e-300)
    energy_drift = float(max(abs(e1 - e0), abs(emid - e0)) / escale)
    sup_lhat = float(np.max(lhat_rows(trace.coeffs, trace.grid.dxi, rc)))
    vals = trace.values()  # one transform for the boundary mass and snorm
    boundary = float(np.max(boundary_mass_fraction(vals, trace.grid)))
    scattering_size = snorm(trace, rc, check=check, values=vals)
    del vals  # xnorm transforms its own weighted copy; keep one sample array live
    size = scattering_size + xnorm(trace, aux_smoothness(G.alpha), rc, check=check)
    return {
        "mass_initial": float(m0),
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


def boundary_mass_fraction(vals: np.ndarray, grid: Grid1D, fraction: float = 0.1):
    """Share of the L^2 mass within the outer fraction of the domain, per row.

    vals are physical samples along the last axis; a 1-d input gives a
    float, and a row with no mass gives 0.  The periodic interval stands in
    for the whole line only while this stays tiny; runs report it and flag
    values above 1e-6 as tainted.
    """
    edge = np.abs(grid.points) >= (1.0 - fraction) * grid.half_length
    num = np.sum(np.abs(vals[..., edge]) ** 2, axis=-1)
    den = np.sum(np.abs(vals) ** 2, axis=-1)
    with np.errstate(invalid="ignore"):
        frac = np.where(den > 0, num / den, 0.0)
    return float(frac) if frac.ndim == 0 else frac


@dataclass
class GluedResult:
    """Combined outcome of a segment-by-segment solve."""

    trace: TimeTrace
    converged: bool
    segments: List[dict] = field(default_factory=list)
    reason: str = ""


def glued_solve(u0: SpectralField, G: NonlinearityG, cfg: SolverConfig,
                segment_length: float = 2.0, min_segment: float = 1.0 / 64.0,
                store_stride: int = 1) -> GluedResult:
    """Solve on [t_start, t_end] by gluing contraction solves on subintervals.

    Each segment takes the previous final state as datum; a segment whose
    gate declines (or whose iteration stalls) is bisected down to
    min_segment before giving up.  store_stride thins the stored samples of
    each segment (endpoints always kept).
    """
    if not math.isfinite(cfg.t_end):
        raise ValueError(f"a glued solve needs a finite end time, got {cfg.t_end}")
    t_final = cfg.t_end
    t = cfg.t_start
    u = u0
    all_times: List[np.ndarray] = []
    all_coeffs: List[np.ndarray] = []
    segments: List[dict] = []
    while t < t_final - 1e-12:
        length = min(segment_length, t_final - t)
        while True:
            seg_cfg = replace(cfg, t_start=t, t_end=t + length, anchor=t)
            res = picard_solve(u, G, seg_cfg)
            if res.converged:
                break
            if length / 2.0 < min_segment:
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
            "mass_drift": res.diagnostics["mass_drift"],
            "boundary_mass_fraction": res.diagnostics["boundary_mass_fraction"],
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
    if stride <= 1:
        return np.arange(n)
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


def reference_solve(u0: Union[SpectralField, Sequence[SpectralField]], G: NonlinearityG,
                    cfg: SolverConfig) -> Union[TimeTrace, List[TimeTrace]]:
    """Integrating-factor Runge-Kutta (classical order 4) cross-check.

    The dispersive phase is integrated exactly per mode; the explicit stages
    handle only the flux, so there is no stiffness from the linear term.
    With mu = 0 the scheme reproduces the free flow to round-off.  Substep
    size is reference_dt, snapped to divide each output interval.  The
    state is the half-spectrum of each datum, and after each substep its
    zero and unpaired modes are made real.

    u0 is one field, or a sequence of fields on one grid; a sequence is
    integrated as the rows of one (k, N/2 + 1) stack, so each stage makes one
    dealiased map for all data, and one trace per datum is returned.  Rows
    never mix: each equals its single-datum call byte for byte.  A datum
    whose norm leaves the trusted regime (BLOWUP_FACTOR times its own
    initial size) leaves the stack together with the data listed after it,
    whose outcome no longer matters, and the others go on.  The call then
    raises the NumericalBlowupError that the first listed failing datum
    raises on its own, with datum set to its position.
    """
    single = isinstance(u0, SpectralField)
    data = FieldStack((u0,) if single else u0)
    times = cfg.times()
    grid = data.grid
    rc = critical_exponent(G.alpha)
    limits = [BLOWUP_FACTOR * max(lhat_norm(u, rc), 1e-300) for u in data]
    flux_multiplier = G.mu * 1j * _fold(grid.frequencies)

    def flux(c: np.ndarray) -> np.ndarray:
        return flux_multiplier * apply_pointwise_matrix(c, grid, G.apply_values, pad=cfg.pad)

    out = np.empty((len(data), times.size, grid.size // 2 + 1), dtype=complex)
    c = np.stack([u.modes for u in data])
    out[:, 0] = c
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
        for _ in range(nsub):
            k1 = flux(c)
            k2 = back_half * flux(e_half * (c + (h / 2.0) * k1))
            k3 = back_half * flux(e_half * (c + (h / 2.0) * k2))
            k4 = back_full * flux(e_full * (c + h * k3))
            c = _real_ends(e_full * (c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
        for i in range(live):
            if not np.all(np.isfinite(c[i])) \
                    or lhat_rows(c[i], grid.dxi, rc) > limits[i]:
                partial = TimeTrace(grid, times[: m + 1], out[i, : m + 1]) \
                    if m >= 1 else None
                failure = NumericalBlowupError(
                    f"norm left the trusted regime after t = {times[m]:.6g}",
                    time=float(times[m]), trace=partial, datum=i,
                )
                live, c = i, c[:i]
                break
        out[:live, m + 1] = c
        if not live:
            break
    if failure is not None:
        raise failure
    traces = [TimeTrace(grid, times, rows) for rows in out]
    return traces[0] if single else traces


def mass(u: SpectralField) -> float:
    """Conserved L^2 mass ||u||^2, evaluated on the frequency side."""
    return float(band_sum(np.abs(u.modes) ** 2, half=True) * u.grid.dxi)


def energy(u: SpectralField, G: NonlinearityG, pad: int = 2) -> float:
    """Conserved energy: (1/2)||d_x u||^2 + (mu/(alpha+1)) ||u||^{alpha+1}.

    The potential term is integrated on a dealiasing grid, over the real
    samples of u's k >= 0 half-spectrum.  Defined for the power rule; a
    custom rule raises.
    """
    if G.rule != "power":
        raise ValueError("energy is defined for the power nonlinearity")
    xi = _fold(u.grid.frequencies)
    kinetic = 0.5 * float(band_sum((xi * np.abs(u.modes)) ** 2, half=True) * u.grid.dxi)
    vals = _real_samples(u.modes, u.grid, pad)
    potential = float(np.sum(np.abs(vals) ** (G.alpha + 1.0)) * u.grid.refined(pad).dx)
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
                    factor = max(res.contraction_factors) if res.contraction_factors else 0.0
                    rows.append({"mu": mu, "amplitude": float(amp), "datum": label,
                                 "epsilon": res.epsilon, "factor": factor,
                                 "converged": res.converged})
                except NumericalBlowupError:
                    eps = free_smallness(u0, G, cfg)
                    rows.append({"mu": mu, "amplitude": float(amp), "datum": label,
                                 "epsilon": eps, "factor": math.inf,
                                 "converged": False})
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
