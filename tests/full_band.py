"""The full band of a real field's half-spectrum, a reference layout for tests.

The package computes on half-spectra only; tests unfold them to compare with
full-band formulas and with the kernels as they were written before.
"""

import numpy as np


def unfold(half: np.ndarray) -> np.ndarray:
    """Full band (last axis, ascending) of a real field's half-spectrum.

    Modes k < 0 are the conjugates of modes -k; the zero and the unpaired
    -N/2 mode are copied as stored.
    """
    h = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * h,), dtype=complex)
    full[..., h:] = half[..., :h]
    full[..., 0] = half[..., h]
    np.conjugate(half[..., h - 1:0:-1], out=full[..., 1:h])
    return full
