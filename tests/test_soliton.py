"""The focusing travelling wave: an exact nonlinear solution for both solvers.

For mu = -1 the equation d_t u + d_x^3 u = mu d_x(|u|^(alpha-1) u) has the
solution u(t, x) = Q_c(x - c t) with
Q_c(x) = ((alpha+1) c / 2 * sech^2((alpha-1) sqrt(c) x / 2))^(1/(alpha-1)).
It decays like exp(-sqrt(c) |x|), so the box [-64, 64) holds it to round-off.

Each tolerance is twice the error measured when it was last set, so a
change to a solver that loses accuracy fails here.  The errors are set by
the schemes and by the grid at c = 1.  The Picard solver's retarded integral
is exact for forcings linear between samples, so its error is second order
in the sample step: at c = 1/4 it falls from 1.75e-5 at 32 samples per unit
(the glued commands' default) to 1.07e-6 at 128.  The trapezoid rule it
replaced erred by 3.1e-4 at 128 samples per unit and did not solve c = 1.
The reference is the integrating-factor RK4 scheme.
"""

import math

import numpy as np
import pytest

from gkdvlab.diagnostics import scattering_state
from gkdvlab.norms import band_sum, lhat_norm
from gkdvlab.solver import (
    NonlinearityG,
    SolverConfig,
    critical_exponent,
    glued_solve,
    reference_solve,
)
from gkdvlab.spectral import Grid1D, forward_transform

ALPHA = 5.0
G = NonlinearityG(alpha=ALPHA, mu=-1.0)


def soliton(grid, c, t=0.0):
    """Q_c(x - c t) sampled on the grid, centred at the periodic image nearest 0."""
    x = grid.points - c * t
    x = (x + grid.half_length) % (2.0 * grid.half_length) - grid.half_length
    amp = (ALPHA + 1.0) * c / 2.0 / np.cosh((ALPHA - 1.0) * math.sqrt(c) * x / 2.0) ** 2
    return forward_transform(amp ** (1.0 / (ALPHA - 1.0)), grid)


def sup_error(trace, c):
    """Max over the output times of the full-band L^2 distance to Q_c(x - c t)."""
    grid = trace.grid
    return max(float(np.sqrt(band_sum(np.abs(row - soliton(grid, c, t).modes) ** 2, half=True)
                             * grid.dxi))
               for t, row in zip(trace.times, trace.coeffs))


@pytest.mark.parametrize("c, size, t_end, step, tol", [
    (0.25, 512, 4.0, 1.0 / 256.0, 3.1e-7),   # measured 1.55e-7
    (1.0, 1024, 2.0, 1.0 / 1024.0, 1.76e-5),  # measured 8.8e-6, the N = 1024 floor
])
def test_reference_solve_follows_the_soliton(c, size, t_end, step, tol):
    grid = Grid1D(64.0, size)
    cfg = SolverConfig(grid=grid, t_end=t_end, reference_dt=step)
    assert sup_error(reference_solve(soliton(grid, c), G, cfg), c) < tol


def glued_error(c, size, t_end, per_unit, segments):
    """sup_error of the glued solve of Q_c, which must converge in that many segments."""
    grid = Grid1D(64.0, size)
    cfg = SolverConfig(grid=grid, t_end=t_end, samples_per_unit=per_unit)
    res = glued_solve(soliton(grid, c), G, cfg)
    assert res.converged
    assert len(res.segments) == segments
    return sup_error(res.trace, c)


def test_glued_solve_follows_the_soliton():
    assert glued_error(0.25, 512, 4.0, 128, 17) < 2.15e-6  # measured 1.07e-6


@pytest.mark.parametrize("c, size, t_end, per_unit, segments, tol", [
    (0.25, 512, 4.0, 32, 17, 3.5e-5),    # measured 1.75e-5
    (1.0, 1024, 1.0, 128, 38, 2.89e-4),  # measured 1.44e-4
    (1.0, 1024, 1.0, 32, 38, 9.71e-4),   # measured 4.85e-4
])
def test_glued_solve_follows_the_soliton_at_other_steps(c, size, t_end, per_unit,
                                                        segments, tol):
    assert glued_error(c, size, t_end, per_unit, segments) < tol


def test_critical_norm_of_the_soliton_is_constant_in_c():
    # at alpha = 5 the critical norm is the L^2 norm, (sqrt(3) pi / 2)^(1/2)
    rc = critical_exponent(ALPHA)
    exact = math.sqrt(math.sqrt(3.0) * math.pi / 2.0)
    for c, size in ((0.25, 512), (1.0, 1024)):
        norm = lhat_norm(soliton(Grid1D(64.0, size), c), rc)
        assert abs(norm - 1.6494541661869) < 1e-12
        assert norm == pytest.approx(exact, rel=1e-13)


def test_the_soliton_does_not_scatter():
    grid = Grid1D(64.0, 512)
    cfg = SolverConfig(grid=grid, t_end=4.0)
    report = scattering_state(reference_solve(soliton(grid, 0.25), G, cfg), ALPHA)
    assert not report.monotone_decreasing
