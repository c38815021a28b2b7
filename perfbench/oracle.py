"""Direct Nadaraya-Watson formula and donor counts, written from the
estimator's definition rather than from primeplm's imputer.

A missing cell (i, j) borrows from its donors: the rows that observe every
covariate row i observes, plus column j.  Donor d gets the log-weight

    sum over observed columns c of  log K((z_dc - z_ic) / h_c) - log h_c

with K the standard Gaussian density, z the table after min-max scaling of
the observed nonlinear columns, and h_c = 1.06 * sd_c * n**(-1/5)
(Silverman; sd 0 falls back to 1.06 * n**(-1/5)).  When no donor exists or
every log-weight is below -700, the cell takes the mean of the observed
values (or of the observed basis rows) of column j.
"""

from __future__ import annotations

import math

import numpy as np

UNDERFLOW_LOG = -700.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def scaled(x: np.ndarray, mask: np.ndarray, nonlinear: list[int]) -> np.ndarray:
    """Copy of x with observed nonlinear columns min-max scaled onto [0, 1]."""
    z = np.array(x, dtype=float)
    for c in nonlinear:
        obs = mask[:, c]
        lo, hi = z[obs, c].min(), z[obs, c].max()
        z[obs, c] = (z[obs, c] - lo) / (hi - lo)
    return z


def silverman(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    h = np.empty(z.shape[1])
    for c in range(z.shape[1]):
        vals = z[mask[:, c], c]
        sd = vals.std(ddof=1) if vals.size >= 2 else 0.0
        h[c] = 1.06 * (sd if np.isfinite(sd) and sd > 0.0 else 1.0) * n ** -0.2
    return h


def donor_weights(z, mask, h, i: int, j: int):
    """(donor rows, normalized weights), or (donors, None) for the fallback."""
    cond = np.flatnonzero(mask[i])
    donors = np.flatnonzero(mask[:, j] & mask[:, cond].all(axis=1))
    if donors.size == 0:
        return donors, None
    u = (z[np.ix_(donors, cond)] - z[i, cond]) / h[cond]
    logw = (-0.5 * u * u - _HALF_LOG_2PI - np.log(h[cond])).sum(axis=1)
    if logw.max() < UNDERFLOW_LOG:
        return donors, None
    w = np.exp(logw - logw.max())
    return donors, w / w.sum()


def imputed_value(z, mask, h, i: int, j: int, basis=None) -> np.ndarray:
    """Imputed linear value of cell (i, j), or its imputed basis row when
    ``basis`` (a function of a 1-d array of [0, 1] values) is given."""
    donors, w = donor_weights(z, mask, h, i, j)
    if w is None:
        observed = z[mask[:, j], j]
        return observed.mean() if basis is None else basis(observed).mean(axis=0)
    values = z[donors, j]
    return w @ values if basis is None else w @ basis(values)


def donor_counts(mask: np.ndarray) -> tuple[int, int]:
    """(missing cells, donor pairs summed over those cells) of a mask."""
    patterns, counts = np.unique(np.asarray(mask, dtype=bool), axis=0, return_counts=True)
    # covers[a, b]: pattern b observes every column pattern a observes
    covers = (patterns[None, :, :] | ~patterns[:, None, :]).all(axis=2)
    cells = pairs = 0
    for a, pattern in enumerate(patterns):
        for j in np.flatnonzero(~pattern):
            donors = int(counts[covers[a] & patterns[:, j]].sum())
            cells += int(counts[a])
            pairs += int(counts[a]) * donors
    return cells, pairs
