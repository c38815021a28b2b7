"""The earlier ``basis_matrix``, kept as a bit-for-bit oracle.

It runs the Cox-de Boor recursion over ``(npts, d + 1)`` arrays, one
strided column per order, and scatters each order into the output with a
(row, column) fancy index.  ``spline.basis_matrix`` lays the same recursion
out as contiguous rows and must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from primeplm.errors import OutOfDomain
from primeplm.spline import SplineSpec


def basis_matrix(spec: SplineSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate all L basis functions at each point; shape (len(x), L)."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).ravel()
    if flat.size and (np.any(~np.isfinite(flat)) or flat.min() < 0.0 or flat.max() > 1.0):
        bad = flat[~((flat >= 0.0) & (flat <= 1.0))][0]
        raise OutOfDomain(f"basis evaluation outside [0, 1]: {bad!r}")

    d = spec.degree
    t = spec.knot_vector
    L = spec.basis_size
    npts = flat.size

    # knot span containing each x; x = 1 is folded into the last span
    span = np.searchsorted(t, flat, side="right") - 1
    span = np.clip(span, d, L - 1)

    # triangular Cox-de Boor scheme, vectorized over points
    vals = np.zeros((npts, d + 1))
    vals[:, 0] = 1.0
    left = np.empty((npts, d + 1))
    right = np.empty((npts, d + 1))
    for r in range(1, d + 1):
        left[:, r] = flat - t[span + 1 - r]
        right[:, r] = t[span + r] - flat
        saved = np.zeros(npts)
        for j in range(r):
            denom = right[:, j + 1] + left[:, r - j]
            temp = vals[:, j] / denom
            vals[:, j] = saved + right[:, j + 1] * temp
            saved = left[:, r - j] * temp
        vals[:, r] = saved

    out = np.zeros((npts, L))
    rows = np.arange(npts)
    for offset in range(d + 1):
        out[rows, span - d + offset] = vals[:, offset]
    return out
