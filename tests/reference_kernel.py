"""Direct formulas the oracle tests compare primeplm against.

Everything here is written from the estimator's definition, one cell or one
unit at a time, and none of it runs in the package, except ``imputed_weights``,
which reads the package's donor weights back through ``kernel_impute.impute``,
and ``per_column_impute``, the package's earlier imputation loop kept as a
bit-for-bit oracle for the loop that replaced it.

Imputation: a missing cell (i, j) borrows from its donors, the rows that
observe everything unit i observes plus column j.  A donor's log-weight is
the sum over observed columns c of log K(diff_c / h_c) - log h_c (product
kernel), or the mean over random directions v of log K(v.diff / h) - log h
(resampled projection, with h from Silverman's rule on the pooled
differences between the projected rows and the projected target rows of the
pattern).  A cell with no donor, or whose largest log-weight is below -700,
takes the mean of the observed values or basis rows of its column.

Leave-one-out: the residual of unit i is y_i minus its prediction from the
least squares fit on every other unit.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from primeplm import kernel_impute
from primeplm.dataset import build_pattern_index
from primeplm.kernel_impute import ImputationDiagnostics, draw_directions, impute
from primeplm.spline import basis_matrix

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gauss(u: np.ndarray) -> np.ndarray:
    return -0.5 * u * u - HALF_LOG_2PI


def product_kernel_weight(diff: np.ndarray, h: np.ndarray) -> float:
    """Product Gaussian kernel weight prod_c K(diff_c / h_c) / h_c of one
    donor difference vector."""
    diff = np.asarray(diff, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(np.exp((_log_gauss(diff / h) - np.log(h)).sum()))


def projected_kernel_weight(diff: np.ndarray, directions: np.ndarray, h: float) -> float:
    """Geometric mean over the rows v of ``directions`` of K(v.diff / h) / h."""
    diff = np.asarray(diff, dtype=float)
    directions = np.asarray(directions, dtype=float)
    return float(np.exp((_log_gauss(diff @ directions.T / h) - math.log(h)).mean()))


def silverman(values, n):
    """(h, degenerate) by 1.06 * sd * n**-0.2, sd 0 falling back to 1."""
    values = np.asarray(values, dtype=float)
    sd = values.std(ddof=1) if values.size >= 2 else 0.0
    degenerate = not (np.isfinite(sd) and sd > 0.0)
    return 1.06 * (1.0 if degenerate else sd) * n ** -0.2, degenerate


def pooled_projected_differences(x, mask, i, directions):
    """v.x_e - v.x_t over every unit t sharing unit i's pattern, every other
    row e observing that pattern's columns, and every direction v.  Each row
    is projected first, its products summed column by column as the kernel
    documents, so equal rows project to equal values: a tiny coordinate next
    to a large one can vanish from v.x_e yet survive in (x_e - x_t).v."""
    cond = np.flatnonzero(mask[i])
    targets = np.flatnonzero((mask == mask[i]).all(axis=1))
    rows = np.flatnonzero(mask[:, cond].all(axis=1))
    proj = {}
    for r in rows:
        proj[r] = directions[:, 0] * x[r, cond[0]]
        for k in range(1, cond.size):
            proj[r] = proj[r] + directions[:, k] * x[r, cond[k]]
    diffs = [proj[e] - proj[t] for t in targets for e in rows if e != t]
    return np.concatenate(diffs) if diffs else np.empty(0)


def pattern_directions(config, cond):
    """The directions a resampled-projection kernel draws for the pattern
    observing columns ``cond``."""
    seed = np.random.SeedSequence([config.seed, kernel_impute._DIRECTION_TAG, *cond.tolist()])
    return draw_directions(cond.size, config.n_projections, config.projection_dist, seed)


def direct_imputation(table, config, spec):
    """Every missing cell by the direct formula, in assemble_design's column
    order.  Returns (values by cell, no-donor counts, underflow counts,
    degenerate-bandwidth counts)."""
    x, mask, n = table.x, table.mask, table.n
    names = table.columns
    no_donor, underflow, degenerate = Counter(), Counter(), Counter()
    column_h = {}

    def column_bandwidth(c):
        if c not in column_h:
            if config.bandwidth == "fixed":
                column_h[c] = config.fixed_h[c]
            else:
                column_h[c], bad = silverman(x[mask[:, c], c], n)
                if bad:
                    degenerate[names[c]] += 1
        return column_h[c]

    pattern_h = {}
    values = {}
    order = [table.position(c) for c in table.structure.nonlinear + table.structure.linear]
    for j in order:
        nonlinear = names[j] in table.structure.nonlinear
        observed = x[mask[:, j], j]
        fallback = basis_matrix(spec, observed).mean(axis=0) if nonlinear else observed.mean()
        for i in np.flatnonzero(~mask[:, j]):
            cond = np.flatnonzero(mask[i])
            donors = np.flatnonzero(mask[:, j] & mask[:, cond].all(axis=1))
            if donors.size == 0:
                no_donor[names[j]] += 1
                values[i, j] = fallback
                continue
            diff = x[np.ix_(donors, cond)] - x[i, cond]
            if config.projection == "resampled" and cond.size > config.projection_threshold:
                v = pattern_directions(config, cond)
                key = cond.tobytes()
                if key not in pattern_h:
                    pooled = pooled_projected_differences(x, mask, i, v)
                    pattern_h[key], bad = silverman(pooled, n)
                    if bad:
                        degenerate["pattern:" + ",".join(names[c] for c in cond)] += 1
                h = pattern_h[key]
                s = diff @ v.T / h
                logw = (-0.5 * s * s - HALF_LOG_2PI - math.log(h)).mean(axis=1)
            else:
                h = np.array([column_bandwidth(c) for c in cond])
                u = diff / h
                logw = (-0.5 * u * u - HALF_LOG_2PI - np.log(h)).sum(axis=1)
            if logw.max() < -700.0:
                underflow[names[j]] += 1
                values[i, j] = fallback
                continue
            w = np.exp(logw - logw.max())
            w /= w.sum()
            donor_values = x[donors, j]
            values[i, j] = w @ (basis_matrix(spec, donor_values) if nonlinear else donor_values)
    return values, no_donor, underflow, degenerate


def imputed_weights(table, config, j):
    """(n, n) matrix whose row i holds the normalized donor weights of cell
    (i, j) over the table's rows, read back through ``kernel_impute.impute``:
    column j is imputed as n indicator columns, row r being e_r on the rows
    observing j.  A cell that falls back reads as the observed-row mean; an
    observed row i reads e_i."""
    observed = np.flatnonzero(table.mask[:, j])
    weights = np.zeros((table.n, table.n))
    weights[observed, observed] = 1.0
    impute(table, build_pattern_index(table), config, {j: (weights,)})
    return weights


def per_column_impute(table, pattern, config, values, block=1 << 18):
    """``kernel_impute.impute`` as a loop over (pattern, missing column,
    chunk): each column's chunk of targets gets its own block of squared
    distances against that column's donors, at most ``block`` of them.
    Bandwidths and coordinates come from ``kernel_impute._kernel``, built
    at the pattern's first column with a donor.  Fills ``values`` in place
    and returns the fallback counts."""
    from scipy.spatial.distance import cdist

    diag, mask = ImputationDiagnostics(), table.mask
    incomplete = [targets for targets in pattern.values() if not mask[targets[0]].all()]
    arrays = {j: v for j, v in values.items() if not mask[:, j].all()}
    fallback = {j: [out[mask[:, j]].mean(axis=0) for out in arrays[j]] for j in arrays}
    xt = np.ascontiguousarray(table.x.T)
    observed = np.ascontiguousarray(mask.T)
    column_h = {}
    for targets in incomplete:
        seen = mask[targets[0]]
        missing = [j for j in np.flatnonzero(~seen) if j in arrays]
        if not missing:
            continue
        cond = np.flatnonzero(seen)
        rows = np.flatnonzero(np.logical_and.reduce(observed[cond], axis=0))
        u = None
        for j in missing:
            d = np.flatnonzero(observed[j, rows])
            if d.size == 0:
                for out, mean in zip(arrays[j], fallback[j]):
                    out[targets] = mean
                diag.no_donor_fallbacks[table.columns[j]] += targets.size
                continue
            if u is None:
                u, const = kernel_impute._kernel(
                    table, config, xt, cond, rows, targets, column_h, diag
                )
            donors, ud = rows[d], u[d]
            step = max(1, block // d.size)
            for start in range(0, targets.size, step):
                chunk = targets[start : start + step]
                w = cdist(u[np.searchsorted(rows, chunk)], ud, "sqeuclidean")
                low = w.min(axis=1)
                kept = const - low >= -700.0
                if not kept.all():
                    w, low = w[kept], low[kept]
                    diag.underflow_fallbacks[table.columns[j]] += chunk.size - w.shape[0]
                np.subtract(low[:, None], w, out=w)
                np.exp(w, out=w)
                total = w.sum(axis=1)[:, None]
                for out, mean in zip(arrays[j], fallback[j]):
                    out[chunk[kept]] = np.matmul(w[:, None, :], out[donors])[:, 0, :] / total
                    out[chunk[~kept]] = mean
    return diag


def delete_one_residuals(G, y, units):
    """y_i - G_i beta_(-i) for each unit i in ``units``, beta_(-i) the least
    squares fit of y on G without row i."""
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    out = []
    for i in units:
        keep = np.arange(len(y)) != i
        beta = np.linalg.lstsq(G[keep], y[keep], rcond=None)[0]
        out.append(y[i] - G[i] @ beta)
    return np.array(out)
