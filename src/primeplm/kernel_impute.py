"""Nadaraya-Watson imputation of missing covariates from partial donors.

A unit observing covariate set C borrows, for each missing column j, from
the donors that observe C and j, weighted by a product Gaussian kernel over
C (or, when C is large, by projective resampling onto random directions).
Spline-basis rows are imputed with the same weights for every basis
component, so an imputed row still sums to one.

A target's distance to a row depends only on the columns its pattern
observes, not on the missing column being filled, so ``impute`` makes one
pass per incomplete pattern: it scales the pattern's coordinates once, then
for each chunk of targets computes one block of squared distances against
every row observing those columns.  Each missing column takes its
log-weights from that block as a C-contiguous copy of its donors' columns,
no larger than the block, and applies the normalized weights to every array
of the column.  A chunk holds at most ``_BLOCK_ELEMENTS`` (2**16, 512 KB)
distances at any n.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset import ObservationTable
from .errors import (
    DegenerateColumn,
    DegenerateSampleWarning,
    InvalidConfig,
    _choice,
    _integer,
    _reals,
)

__all__ = [
    "KernelConfig",
    "ImputationDiagnostics",
    "draw_directions",
    "impute",
]

_LOG_2PI = math.log(2.0 * math.pi)
_UNDERFLOW_LOG = -700.0
_DIRECTION_TAG = 0x5EEDD12C  # domain separator for per-pattern direction seeds
_BLOCK_ELEMENTS = 1 << 16  # distances (targets x pattern rows) held by one block
_DISTRIBUTIONS = ("standard_normal", "scaled_uniform")


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth and projection settings for donor weighting.

    bandwidth "silverman" derives one bandwidth per covariate column from
    its observed values; "fixed" takes fixed_h, one entry per table column in
    that column's raw units (the fits build the kernel on the raw table).
    projection "resampled" replaces the product kernel by the geometric
    mean of n_projections univariate kernels along random directions
    whenever a unit observes more than projection_threshold covariates.
    fixed_h (fixed rule only) must be a sequence of finite positive reals (not
    bools), the counts and seed integers (numpy's included, stored as int),
    n_projections >= 1 and seed >= 0; anything else raises InvalidConfig.
    """

    bandwidth: str = "silverman"
    fixed_h: tuple[float, ...] | None = None
    projection: str = "none"
    n_projections: int = 2
    projection_dist: str = "standard_normal"
    projection_threshold: int = 4
    seed: int = 0

    def __post_init__(self):
        counts = (("n_projections", 1, None), ("projection_threshold", 0, None),
                  ("seed", 0, "a nonnegative integer"))
        for name, least, must in counts:
            value = _integer(name, getattr(self, name), InvalidConfig, least, must)
            object.__setattr__(self, name, value)
        _choice("bandwidth rule", self.bandwidth, ("silverman", "fixed"), InvalidConfig)
        if self.bandwidth == "fixed":
            fixed = _reals("fixed_h", self.fixed_h, InvalidConfig, positive=True)
            if not fixed:
                raise InvalidConfig("fixed bandwidth rule requires fixed_h")
            object.__setattr__(self, "fixed_h", fixed)
        elif self.fixed_h is not None:
            raise InvalidConfig(f"fixed_h needs the fixed bandwidth rule, got {self.fixed_h!r}")
        _choice("projection mode", self.projection, ("none", "resampled"), InvalidConfig)
        _choice("direction distribution", self.projection_dist, _DISTRIBUTIONS, InvalidConfig)


@dataclass
class ImputationDiagnostics:
    """Counts of fallback events, keyed by column name."""

    no_donor_fallbacks: Counter = field(default_factory=Counter)
    underflow_fallbacks: Counter = field(default_factory=Counter)
    degenerate_bandwidths: Counter = field(default_factory=Counter)

    @property
    def total_fallbacks(self) -> int:
        return sum(self.no_donor_fallbacks.values()) + sum(self.underflow_fallbacks.values())


def _sample_sd(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1)) if values.size >= 2 else 0.0


def draw_directions(m: int, n_projections: int, dist: str, seed) -> np.ndarray:
    """(n_projections, m) random directions with E v = 0 and E v**2 = 1."""
    m = _integer("m", m, InvalidConfig, 1)
    n_projections = _integer("n_projections", n_projections, InvalidConfig, 1)
    _choice("direction distribution", dist, _DISTRIBUTIONS, InvalidConfig)
    rng = np.random.default_rng(seed)
    if dist == "standard_normal":
        return rng.standard_normal((n_projections, m))
    # U(-1, 1) has second moment 1/3; rescale so it is exactly 1
    return rng.uniform(-1.0, 1.0, (n_projections, m)) * math.sqrt(3.0)


def _projected_sd(proj: np.ndarray, targets: np.ndarray) -> float:
    """Sample SD (ddof=1) of the pooled projected differences p_e - p_t over
    every target t, every other row e and every direction, from per-direction
    first and second moments; 0 when the pooled sample is degenerate.

    ``proj`` is (directions, rows observing the pattern's columns);
    ``targets`` indexes the pattern's own rows among them.
    """
    e, t = proj.shape[1], targets.size
    pairs = proj.shape[0] * t * (e - 1)  # the self-pair e == t is excluded
    if pairs < 2 or not np.ptp(proj, axis=1).any():
        return 0.0
    if t == 1:
        # moments would cancel when every other row projects alike; the
        # pooled sample is only e - 1 values per direction, so take it whole
        return _sample_sd(np.delete(proj, targets, axis=1) - proj[:, targets])
    c = proj - proj.mean(axis=1, keepdims=True)  # differences are shift-invariant
    ct = c[:, targets]
    sum_e, sum_t = c.sum(axis=1), ct.sum(axis=1)
    s1 = float((t * sum_e - e * sum_t).sum())
    s2 = float((t * (c * c).sum(axis=1) - 2.0 * sum_t * sum_e + e * (ct * ct).sum(axis=1)).sum())
    var = (s2 - s1 * s1 / pairs) / (pairs - 1)
    return math.sqrt(var) if var > 0.0 else 0.0


def _silverman(sd: float, n: int, label: str, what: str, diag: ImputationDiagnostics) -> float:
    """1.06 * sd * n**-0.2; a degenerate sd is counted under ``label``,
    warned about as ``what`` and taken as 1.  Called from _kernel only, so
    the warning points at the caller of impute."""
    if not math.isfinite(sd) or sd <= 0.0:
        diag.degenerate_bandwidths[label] += 1
        warnings.warn(
            f"{what}, falling back to 1.06 * n**-0.2", DegenerateSampleWarning, stacklevel=4
        )
        sd = 1.0
    return 1.06 * sd * n ** (-0.2)


def _kernel(table, config, xt, cond, rows, targets, column_h, diag) -> tuple[np.ndarray, float]:
    """(u, const) of the pattern that observes the columns ``cond``: its
    ``rows`` (every row observing cond; its own ``targets`` among them) as
    C-contiguous (rows, coordinates), centred and divided by the bandwidths
    times sqrt(2), so that the log-weight of target t at donor d is
    const - |u_t - u_d|^2.  ``xt`` is table.x column-major; column bandwidths
    missing from ``column_h`` are added to it."""
    m = len(cond)
    z = xt.take(cond, axis=0).take(rows, axis=1)
    if config.projection == "resampled" and m > config.projection_threshold:
        if config.n_projections >= m:
            raise InvalidConfig(
                f"n_projections must stay below the conditioning size "
                f"({config.n_projections} >= {m})"
            )
        seed = np.random.SeedSequence([config.seed, _DIRECTION_TAG, *cond.tolist()])
        v = draw_directions(m, config.n_projections, config.projection_dist, seed)
        # summed column by column, so equal rows project to equal values
        z = (v[:, :, None] * z).sum(axis=1)
        # Silverman on the pooled projected target-row differences, n = table rows
        label = "pattern:" + ",".join(table.columns[c] for c in cond)
        sd = _projected_sd(z, np.searchsorted(rows, targets))
        what = f"degenerate projected-difference sample for {label}"
        h = _silverman(sd, table.n, label, what, diag)
        const = -0.5 * _LOG_2PI - math.log(h)
        # the geometric mean over the directions divides |.|^2 by their count
        scale = np.full(len(v), h * math.sqrt(len(v)))
    else:
        for c in (c for c in cond.tolist() if c not in column_h):
            if config.bandwidth == "fixed":
                column_h[c] = config.fixed_h[c]
            else:
                name = table.columns[c]
                sd = _sample_sd(xt[c, table.mask[:, c]])
                what = f"zero-variance bandwidth sample for column {name!r}"
                column_h[c] = _silverman(sd, table.n, name, what, diag)
        scale = np.array([column_h[c] for c in cond.tolist()])
        const = -float((0.5 * _LOG_2PI + np.log(scale)).sum())
    u = (z - z.mean(axis=1, keepdims=True)) / (scale[:, None] * math.sqrt(2.0))
    return np.ascontiguousarray(u.T), const


def impute(
    table: ObservationTable,
    pattern: dict[bytes, np.ndarray],
    config: KernelConfig,
    values: dict[int, tuple],
) -> ImputationDiagnostics:
    """Fill the missing rows of each array in ``values[j]`` in place and
    return the fallback counts of this call.

    ``pattern`` is ``build_pattern_index(table)``.  ``values`` maps a column
    position to a tuple of (n, d) arrays whose rows are set wherever column
    j is observed; all of them are filled with the same weights.  For each
    chunk of an incomplete pattern's targets, one block of squared distances
    between kernel coordinates, against every row observing the pattern's
    columns, gives the log-weights of each missing column as the block's
    columns at that column's donors.  A missing row becomes the
    kernel-weighted average of its donors' rows, or the mean of the observed
    rows when there is no donor or its largest absolute log-weight is below
    -700.  Bandwidths are computed once per call, so each degenerate one
    warns and is counted once per call.
    """
    if config.bandwidth == "fixed" and len(config.fixed_h) != len(table.columns):
        raise InvalidConfig(
            f"fixed_h needs {len(table.columns)} entries, got {len(config.fixed_h)}"
        )
    diag, mask = ImputationDiagnostics(), table.mask
    incomplete = [targets for targets in pattern.values() if not mask[targets[0]].all()]
    if not incomplete:
        return diag  # every row complete: nothing to impute
    # imported here: scipy.spatial takes ~0.4-0.6 s and ~35 MB to load, as it
    # pulls in scipy.linalg and scipy.special, which predict and complete
    # tables need not pay
    from scipy.spatial.distance import cdist

    arrays = {j: v for j, v in values.items() if not mask[:, j].all()}
    for j in arrays:
        if not mask[:, j].any():
            raise DegenerateColumn(
                f"column {table.columns[j]!r} is never observed; nothing to impute"
            )
    fallback = {j: [out[mask[:, j]].mean(axis=0) for out in arrays[j]] for j in arrays}
    # column-major copies: a pattern's rows are gathered from contiguous runs
    xt = np.ascontiguousarray(table.x.T)
    observed = np.ascontiguousarray(mask.T)
    column_h = {}
    for targets in incomplete:
        seen = mask[targets[0]]
        missing = [j for j in np.flatnonzero(~seen) if j in arrays]
        if not missing:
            continue
        cond = np.flatnonzero(seen)
        # rows observing every column of cond, targets included
        rows = np.flatnonzero(np.logical_and.reduce(observed[cond], axis=0))
        donors = {}  # column -> (donor positions among rows, donor rows)
        for j in missing:
            d = np.flatnonzero(observed[j, rows])
            if d.size:
                donors[j] = d, rows[d]
                continue
            for out, mean in zip(arrays[j], fallback[j]):
                out[targets] = mean
            diag.no_donor_fallbacks[table.columns[j]] += targets.size
        if not donors:
            continue  # no kernel, so no bandwidth is computed or warned about
        u, const = _kernel(table, config, xt, cond, rows, targets, column_h, diag)
        at = np.searchsorted(rows, targets)
        step = max(1, _BLOCK_ELEMENTS // rows.size)
        for start in range(0, targets.size, step):
            chunk = targets[start : start + step]
            # each pair is its own sum, so chunking never changes a value
            block = cdist(u[at[start : start + step]], u, "sqeuclidean")
            for j, (d, rows_d) in donors.items():
                # np.take keeps C order, so the row sums match a block of
                # the donors alone bit for bit; block[:, d] would be F order
                w = np.take(block, d, axis=1)
                low = w.min(axis=1)
                kept = const - low >= _UNDERFLOW_LOG
                if not kept.all():
                    w, low = w[kept], low[kept]
                    diag.underflow_fallbacks[table.columns[j]] += chunk.size - w.shape[0]
                np.subtract(low[:, None], w, out=w)
                np.exp(w, out=w)
                total = w.sum(axis=1)[:, None]
                for out, mean in zip(arrays[j], fallback[j]):
                    # one product per target row, so chunking never changes a value
                    out[chunk[kept]] = np.matmul(w[:, None, :], out[rows_d])[:, 0, :] / total
                    out[chunk[~kept]] = mean
    return diag
