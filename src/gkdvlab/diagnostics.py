"""Dynamical diagnostics: scattering pullback, scaling, and run monitoring."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Sequence

import numpy as np

from .norms import band_sum, lhat_norm, lhat_rows, sobolev_norm
from .solver import (
    NonlinearityG,
    _energy_terms,
    _size_norms,
    boundary_mass_fraction,
    critical_exponent,
    energy,
    mass,
)
from .spacetime import TimeTrace, _airy_table
from .spectral import Grid1D, SpectralField, _plan, _real_ends


@dataclass
class ScatteringReport:
    """Free-flow pullback w(t) compared across dyadic checkpoint times.

    residuals[j] is the critical-norm distance between consecutive
    checkpoint pullbacks; decreasing residuals certify a Cauchy tail, their
    failure to decrease flags a non-scattering run.  final_state is the
    last pullback with its unpaired mode made real, final_norm the critical
    norm of the pullback itself.
    """

    checkpoint_times: List[float]
    residuals: List[float]
    final_state: SpectralField
    final_norm: float
    monotone_decreasing: bool


def _dyadic_checkpoints(times: np.ndarray, levels: int) -> List[int]:
    t_final = float(times[-1])
    targets = [t_final / 2.0 ** j for j in range(levels, -1, -1)]
    idx = []
    for target in targets:
        j = int(np.argmin(np.abs(times - target)))
        if not idx or j != idx[-1]:
            idx.append(j)
    return idx


def scattering_state(trace: TimeTrace, alpha: float, levels: int = 3) -> ScatteringReport:
    """Pull the trace back along the free flow and difference the checkpoints.

    The pullback w(t) removes the free evolution from u(t), so w settles to
    a limit exactly when the flow scatters forward; residuals are
    critical-norm distances between consecutive dyadic checkpoints
    t = T/2^levels .. T of the last time T.  Backward scattering is the
    forward scattering of the time reversal u(-t, -x), whose modes are the
    conjugates.  The pullbacks are half-spectra: the half-lattice phase
    table is odd in xi bitwise, so they stand for the full-band pullbacks
    mode for mode.
    """
    if trace.times[-1] <= 0:
        raise ValueError("forward scattering needs positive times in the trace")
    idx = _dyadic_checkpoints(trace.times, levels)
    if len(idx) < 3:
        raise ValueError(
            f"trace exposes only {len(idx)} dyadic checkpoints, need at least 3"
        )
    rc = critical_exponent(alpha)
    grid = trace.grid
    pullbacks = trace.coeffs[idx] * _airy_table(grid, trace.times[idx], -1j)
    residuals = [lhat_rows(b - a, grid.dxi, rc) for a, b in zip(pullbacks, pullbacks[1:])]
    final = pullbacks[-1]
    mono = all(b < a for a, b in zip(residuals, residuals[1:]))
    return ScatteringReport(
        checkpoint_times=[float(trace.times[j]) for j in idx],
        residuals=residuals,
        final_norm=lhat_rows(final, grid.dxi, rc),  # before _real_ends edits final
        final_state=SpectralField(grid, _real_ends(final)),
        monotone_decreasing=mono,
    )


def scaling_transform(u0: SpectralField, lam: float, alpha: float) -> SpectralField:
    """Apply the invariance u -> lam^{2/(alpha-1)} u(lam x) on a rescaled grid.

    The image lives on the grid (L/lam, N); the frequency lattice rescales
    by lam, so the coefficients map index to index with a single power of
    lam.  The critical-norm is preserved exactly at coefficient level.
    Under-resolved data (spectral tail above 1e-6 of the mass) is refused.
    """
    if not (lam > 0):
        raise ValueError(f"scaling factor must be positive, got {lam}")
    tail = spectral_tail_fraction(u0)
    if tail > 1e-6:
        raise ValueError(
            f"datum is under-resolved for rescaling (tail fraction {tail:.3e})"
        )
    grid = Grid1D(u0.grid.half_length / lam, u0.grid.size)
    power = 2.0 / (alpha - 1.0) - 1.0
    return SpectralField(grid, lam ** power * u0.modes)


def spectral_tail_fraction(u: SpectralField) -> float:
    """Mass fraction carried by the outer eighth of the frequency band."""
    c2 = np.abs(u.modes) ** 2
    total = float(band_sum(c2, half=True))
    if total == 0.0:
        return 0.0
    cut = 0.875 * u.grid.max_frequency
    inner = np.abs(_plan(u.grid.half_length, u.grid.size).xi) < cut
    return float(band_sum(np.where(inner, 0.0, c2), half=True)) / total


@dataclass
class MonitorEntry:
    t: float
    snorm_to_t: float
    aux_xnorm_to_t: float
    mass: float
    mass_drift: float
    energy: float
    energy_drift: float
    lhat: dict
    sobolev: dict
    boundary_mass_fraction: float


@dataclass
class MonitorReport:
    entries: List[MonitorEntry] = field(default_factory=list)
    tainted: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def monitor(trace: TimeTrace, G: NonlinearityG,
            aux_lhat: Sequence[float] = (1.8, 2.5),
            aux_sobolev: Sequence[float] = (0.5, 1.0),
            pad: int = 2) -> MonitorReport:
    """Cumulative size norms, conservation drifts, and auxiliary norms.

    The checkpoints are a dyadic subdivision of the trace, t0 + span/16 ..
    t0 + span; cumulative norms are evaluated on the sub-trace up to each
    checkpoint.
    """
    times = trace.times
    span = times[-1] - times[0]
    checkpoint_times = [times[0] + span / 2.0 ** j for j in range(4, -1, -1)]
    f0 = trace.field(0)
    m0 = mass(f0)
    e0 = energy(f0, G, pad=pad)
    escale = max(abs(e0), 1e-300)
    entries = []
    for target in checkpoint_times:
        j = int(np.argmin(np.abs(times - target)))
        if j < 1:
            j = 1
        sub = trace.restricted(times[j] + 1e-15)
        fj = trace.field(j)
        mj = mass(fj)
        ej = energy(fj, G, pad=pad)
        snorm_to_t, aux_xnorm_to_t = _size_norms(sub, G.alpha)
        entries.append(MonitorEntry(
            t=float(times[j]),
            snorm_to_t=snorm_to_t,
            aux_xnorm_to_t=aux_xnorm_to_t,
            mass=mj,
            mass_drift=abs(mj - m0) / m0 if m0 > 0 else 0.0,
            energy=ej,
            energy_drift=abs(ej - e0) / escale,
            lhat={f"{r:g}": lhat_norm(fj, r) for r in aux_lhat},
            sobolev={f"{s:g}": sobolev_norm(fj, s) for s in aux_sobolev},
            boundary_mass_fraction=boundary_mass_fraction(fj.values(), fj.grid),
        ))
    tainted = any(e.boundary_mass_fraction > 1e-6 for e in entries)
    return MonitorReport(entries=entries, tainted=tainted)


def nonpositive_energy_amplitude(profile: SpectralField, G: NonlinearityG) -> float:
    """Amplitude A at which E[A * profile] turns nonpositive, in closed form.

    Needs a focusing coupling (mu < 0).  With the power rule the energy of
    A * profile is A^2 K + (mu/(alpha+1)) A^(alpha+1) P, for the kinetic
    term K and the potential integral P of the profile, so it crosses zero
    once, at A^(alpha-1) = -(alpha+1) K / (mu P).  The energy of A * profile
    rounds differently from that formula, so A is stepped up to the next
    float while it is still positive: E[A * profile] <= 0 holds.
    """
    if G.mu >= 0:
        raise ValueError("nonpositive energy needs a focusing coupling (mu < 0)")
    if mass(profile) == 0.0:
        raise ValueError("profile must be nonzero")
    kinetic, potential = _energy_terms(profile, G)
    a = (-(G.alpha + 1.0) * kinetic / (G.mu * potential)) ** (1.0 / (G.alpha - 1.0))
    while energy(a * profile, G) > 0:
        a = float(np.nextafter(a, math.inf))
    return a
