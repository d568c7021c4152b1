"""Time reversal: an exact symmetry checked with forward solves only.

If u solves d_t u + d_x^3 u = mu d_x(|u|^(alpha-1) u), so does
v(t, x) = u(1 - t, -x), since G is odd.  The modes of u(1, -x) are the
conjugates of those of u(1), so a forward solve on [0, 1] from u0, then
another from the conjugate of its end state, ends at the conjugate of u0.
What is left is the error of the two solves.

Each tolerance is twice the relative L^2 error measured when the oracle was
added (L = 64, N = 256, alpha = 5, mu = 1, Gaussian data, the default
samples per unit and reference step), so a solver that loses accuracy
fails here.
"""

import numpy as np
import pytest

from gkdvlab.norms import band_sum
from gkdvlab.solver import NonlinearityG, SolverConfig, picard_solve, reference_solve
from gkdvlab.spectral import Grid1D, SpectralField, gaussian_profile

GRID = Grid1D(64.0, 256)
G5 = NonlinearityG(alpha=5.0, mu=1.0)
CFG = SolverConfig(grid=GRID)


def _picard_end(u0):
    res = picard_solve(u0, G5, CFG)
    assert res.converged
    return res.trace.coeffs[-1]


def _reference_end(u0):
    return reference_solve(u0, G5, CFG).coeffs[-1]


def _l2(modes):
    return float(np.sqrt(band_sum(np.abs(modes) ** 2, half=True) * GRID.dxi))


@pytest.mark.parametrize("solve, amplitude, tol", [
    (_picard_end, 0.05, 3.8e-11),     # measured 1.9e-11
    (_picard_end, 0.5, 5.5e-8),       # measured 2.7e-8
    (_reference_end, 0.05, 2.2e-9),   # measured 1.1e-9
    (_reference_end, 0.5, 4.4e-6),    # measured 2.2e-6
], ids=["picard-0.05", "picard-0.5", "reference-0.05", "reference-0.5"])
def test_solving_back_from_the_reflected_end_state_returns_the_datum(solve, amplitude, tol):
    u0 = gaussian_profile(GRID, amplitude)
    reflected = SpectralField(GRID, np.conj(solve(u0)))
    back = np.conj(solve(reflected))
    assert _l2(back - u0.modes) / _l2(u0.modes) < tol
