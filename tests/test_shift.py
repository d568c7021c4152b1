"""Translation by whole grid steps: an exact symmetry of both discrete solvers.

The equation is translation invariant, and on the periodic grid a shift by
k points (np.roll of the samples) multiplies the modes by exp(-i k dx xi).
Each solver's steps commute with it: the Airy phases are diagonal in the
modes, and a pointwise map on the grid refined by pad sees its samples
rolled by pad * k.  So solving from the rolled datum gives the rolled
solution, at every stored time, up to the rounding of the transforms.

Each tolerance is twice the largest relative L^2 error over the trace,
measured when the oracle was added (L = 64, N = 256, alpha = 5, mu = 1, a
Gaussian datum rolled by 37 points, the default samples per unit and
reference step).  A solver step that depends on where the datum sits on
the grid fails here.
"""

import numpy as np
import pytest

from gkdvlab.norms import band_sum
from gkdvlab.solver import NonlinearityG, SolverConfig, picard_solve, reference_solve
from gkdvlab.spectral import Grid1D, forward_transform, gaussian_profile, values_to_coeffs

GRID = Grid1D(64.0, 256)
G5 = NonlinearityG(alpha=5.0, mu=1.0)
CFG = SolverConfig(grid=GRID)
SHIFT = 37


def _picard(u0):
    res = picard_solve(u0, G5, CFG)
    assert res.converged
    return res.trace


def _reference(u0):
    return reference_solve(u0, G5, CFG)


def _l2(modes):
    return np.sqrt(band_sum(np.abs(modes) ** 2, half=True) * GRID.dxi)


@pytest.mark.parametrize("solve, amplitude, tol", [
    (_picard, 0.05, 1.05e-15),     # measured 5.2e-16
    (_picard, 0.5, 1.05e-15),      # measured 5.2e-16
    (_reference, 0.05, 3.0e-15),   # measured 1.50e-15
    (_reference, 0.5, 3.0e-15),    # measured 1.51e-15
], ids=["picard-0.05", "picard-0.5", "reference-0.05", "reference-0.5"])
def test_solving_from_the_rolled_datum_gives_the_rolled_solution(solve, amplitude, tol):
    u0 = gaussian_profile(GRID, amplitude)
    rolled = forward_transform(np.roll(u0.values(), SHIFT), GRID)
    trace, moved = solve(u0), solve(rolled)
    assert np.array_equal(moved.times, trace.times)
    want = values_to_coeffs(np.roll(trace.values(), SHIFT, axis=-1), GRID)
    got = values_to_coeffs(moved.values(), GRID)
    assert np.max(_l2(got - want) / _l2(want)) < tol
