"""Dynamical diagnostics: scattering pullback, scaling, and run monitoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .norms import band_sum, holder_conjugate, lhat_norm, sobolev_norm, weighted_power_sum
from .solver import (
    NonlinearityG,
    aux_smoothness,
    boundary_mass_fraction,
    critical_exponent,
    energy,
    mass,
)
from .spacetime import TimeTrace, snorm, xnorm
from .spectral import Grid1D, SpectralField, _fold, _real_ends, _unfold


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
    t_final = float(np.max(np.abs(times)))
    targets = [t_final / 2.0 ** j for j in range(levels, -1, -1)]
    if times[0] < 0:
        targets = [-t for t in targets]
        targets.sort()
    idx = []
    for target in targets:
        j = int(np.argmin(np.abs(times - target)))
        if not idx or j != idx[-1]:
            idx.append(j)
    return idx


def scattering_state(trace: TimeTrace, alpha: float, direction: str = "forward",
                     levels: int = 3) -> ScatteringReport:
    """Pull the trace back along the free flow and difference the checkpoints.

    The pullback w(t) removes the free evolution from u(t), so w settles to
    a limit exactly when the flow scatters; residuals are critical-norm
    distances between consecutive dyadic checkpoints |t| = T/2^levels .. T.
    The pullbacks are full bands, with the phase taken on the ascending
    lattice and full-band norms: a half-lattice phase table rounds
    differently at some modes, and the reported residuals would move at
    round-off.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    if direction == "forward" and trace.times[-1] <= 0:
        raise ValueError("forward scattering needs positive times in the trace")
    if direction == "backward" and trace.times[0] >= 0:
        raise ValueError("backward scattering needs negative times in the trace")
    idx = _dyadic_checkpoints(trace.times, levels)
    if len(idx) < 3:
        raise ValueError(
            f"trace exposes only {len(idx)} dyadic checkpoints, need at least 3"
        )
    rc = critical_exponent(alpha)
    grid = trace.grid
    pullbacks = _unfold(trace.coeffs[idx]) * np.exp(
        -1j * np.outer(trace.times[idx], grid.frequencies ** 3))
    rprime = holder_conjugate(rc)
    residuals = [weighted_power_sum(np.abs(b - a), grid.dxi, rprime)
                 for a, b in zip(pullbacks, pullbacks[1:])]
    if direction == "backward":
        # checkpoints were visited from most negative to least; the limit
        # object lives at the most negative time
        residuals = residuals[::-1]
        final = pullbacks[0]
    else:
        final = pullbacks[-1]
    mono = all(b < a for a, b in zip(residuals, residuals[1:]))
    return ScatteringReport(
        checkpoint_times=[float(trace.times[j]) for j in idx],
        residuals=residuals,
        final_state=SpectralField(grid, _real_ends(_fold(final))),
        final_norm=weighted_power_sum(np.abs(final), grid.dxi, rprime),
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


def spectral_tail_fraction(u: SpectralField, shell: float = 0.125) -> float:
    """Mass fraction carried by the outer shell of the frequency band."""
    c2 = np.abs(u.modes) ** 2
    total = float(band_sum(c2, half=True))
    if total == 0.0:
        return 0.0
    cut = (1.0 - shell) * u.grid.max_frequency
    inner = np.abs(_fold(u.grid.frequencies)) < cut
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

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "snorm_to_t": self.snorm_to_t,
            "aux_xnorm_to_t": self.aux_xnorm_to_t,
            "mass": self.mass,
            "mass_drift": self.mass_drift,
            "energy": self.energy,
            "energy_drift": self.energy_drift,
            "lhat": self.lhat,
            "sobolev": self.sobolev,
            "boundary_mass_fraction": self.boundary_mass_fraction,
        }


@dataclass
class MonitorReport:
    entries: List[MonitorEntry] = field(default_factory=list)
    tainted: bool = False

    def to_dict(self) -> dict:
        return {"tainted": self.tainted,
                "entries": [e.to_dict() for e in self.entries]}


def monitor(trace: TimeTrace, G: NonlinearityG,
            checkpoint_times: Optional[Sequence[float]] = None,
            aux_lhat: Sequence[float] = (1.8, 2.5),
            aux_sobolev: Sequence[float] = (0.5, 1.0),
            pad: int = 2) -> MonitorReport:
    """Cumulative size norms, conservation drifts, and auxiliary norms.

    Checkpoints default to a dyadic subdivision of the trace; cumulative
    norms are evaluated on the sub-trace up to each checkpoint.
    """
    times = trace.times
    if checkpoint_times is None:
        span = times[-1] - times[0]
        checkpoint_times = [times[0] + span / 2.0 ** j for j in range(4, -1, -1)]
    rc = critical_exponent(G.alpha)
    check = G.in_wellposed_range()
    sl = aux_smoothness(G.alpha)
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
        entries.append(MonitorEntry(
            t=float(times[j]),
            snorm_to_t=snorm(sub, rc, check=check),
            aux_xnorm_to_t=xnorm(sub, sl, rc, check=check),
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


def nonpositive_energy_amplitude(profile: SpectralField, G: NonlinearityG,
                                 tol: float = 1e-10) -> float:
    """Smallest amplitude A with E[A * profile] <= 0, found by bisection.

    Needs a focusing coupling (mu < 0); with the power rule the energy of
    A * profile is a two-term function of A crossing zero exactly once for
    nonzero profiles.
    """
    if G.mu >= 0:
        raise ValueError("nonpositive energy needs a focusing coupling (mu < 0)")
    if mass(profile) == 0.0:
        raise ValueError("profile must be nonzero")

    def e_of(a: float) -> float:
        return energy(a * profile, G)

    lo, hi = 1e-6, 1.0
    doublings = 0
    while e_of(hi) > 0:
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise ValueError("energy stayed positive up to astronomically large amplitudes")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if e_of(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi
