"""Jackknife model averaging over single-nonlinear-covariate candidates.

Candidate k models covariate k with a spline and all remaining covariates
linearly; it is the ``ModelStructure`` with that one nonlinear column.
Weights minimize the leave-one-out cross-validation criterion |E w|^2 over
the probability simplex, where column k of E holds the LOO residuals of
candidate k's least squares fit on the complete cases.  Each candidate
design is factored by one reduced QR, which gives both the residuals and
the leverages of the hat-diagonal shortcut (Hansen & Racine 2012), so no
unit is refitted.  Final predictions average the full-data candidate fits
under those weights.  Every column is nonlinear in one candidate and linear
in the others, so each is imputed once, values and basis rows together, by
one ``impute`` call on the raw table, and every candidate's design is
stacked from those columns.  On a complete table the CV designs reuse
those columns' uncentered bases: every row is a complete case, so each
column's complete-case range is its normalization range and the basis the
CV would evaluate is the same one, bit for bit.  With holes the two ranges
differ, and the CV evaluates its own bases on the complete cases.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    ModelStructure,
    ObservationTable,
    _observed_ranges,
    build_pattern_index,
    complete_case_subset,
)
from .errors import (
    DegenerateColumn,
    InsufficientCompleteCases,
    LengthMismatch,
    SingularGram,
)
from .kernel_impute import KernelConfig
from .prime_fit import PrimeFit, _designs, _solve, predict
from .spline import SplineSpec, basis_matrix, make_spec

__all__ = [
    "CvMatrix",
    "AveragedFit",
    "build_candidates",
    "cc_design",
    "build_cv_matrix",
    "cv_weights",
    "predict_averaged",
    "fit_prime_ma",
]

_SINGULAR_RTOL = 1e-10
_LEVERAGE_TOL = 1e-8
_QP_IMPROVEMENT_TOL = 1e-12
_QP_MAX_SWEEPS = 10_000


def build_candidates(columns) -> list[ModelStructure]:
    """One structure per column: that column nonlinear, the rest linear."""
    columns = tuple(columns)
    return [
        ModelStructure((name,), tuple(c for c in columns if c != name))
        for name in columns
    ]


def fit_candidate_full(
    table, candidate, spec, config, normalization, design, n_complete
) -> PrimeFit:
    """Full-data fit of ``candidate`` over ``table``'s columns, on its design."""
    return _solve(table, candidate, spec, config, normalization, design, n_complete)


def cc_design(
    table: ObservationTable,
    candidate: ModelStructure,
    spec: SplineSpec,
    rows: np.ndarray,
) -> np.ndarray:
    """Candidate design on the complete-case ``rows``.

    Stacks the uncentered basis block for the candidate's nonlinear column
    (a partition of unity, so it already spans the constant and no
    intercept column is added) with the remaining covariates as given.
    """
    if rows.size == 0:
        raise InsufficientCompleteCases("no complete rows for the candidate design")
    name = candidate.nonlinear[0]
    vals = table.x[rows, table.position(name)]
    lo, hi = float(vals.min()), float(vals.max())
    if not hi > lo:
        raise DegenerateColumn(f"candidate column {name!r} is constant on the complete cases")
    # filled in place: no stacked temporaries per candidate
    L = spec.basis_size
    G = np.empty((rows.size, L + len(candidate.linear)))
    G[:, :L] = basis_matrix(spec, (vals - lo) / (hi - lo))
    for k, c in enumerate(candidate.linear, start=L):
        G[:, k] = table.x[rows, table.position(c)]
    return G


def _complete_designs(table, candidates, spec, bases) -> Iterator[np.ndarray]:
    """``cc_design`` of each candidate on a complete ``table``, its basis block
    taken from ``bases``.  One matrix is refilled for every candidate, in
    Fortran order: each column is written whole, and LAPACK's QR reads it
    with no transposing copy.  The values, and so the QR's bits, are the same."""
    L = spec.basis_size
    G = None
    for candidate in candidates:
        if G is None or G.shape[1] != L + len(candidate.linear):
            G = np.empty((table.n, L + len(candidate.linear)), order="F")
        G[:, :L] = bases[candidate.nonlinear[0]]
        for k, c in enumerate(candidate.linear, start=L):
            G[:, k] = table.x[:, table.position(c)]
        yield G


def _residuals_and_leverages(G: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares residuals y - Q(Q'y) and hat diagonal (row sums of Q^2)
    from one reduced QR of G."""
    q, r = np.linalg.qr(G, mode="reduced")
    d = np.abs(np.diag(r))
    if d.min() <= _SINGULAR_RTOL * d.max():
        raise SingularGram(
            f"candidate cross-product matrix is numerically singular "
            f"(diag ratio {d.min() / d.max():.2e})"
        )
    resid = y - q @ (q.T @ y)
    # q is not read again, so it is squared in place
    return resid, np.square(q, out=q).sum(axis=1)


@dataclass(frozen=True)
class CvMatrix:
    """LOO residual columns per candidate, after leverage-based row drops."""

    matrix: np.ndarray  # (n_kept, K)
    rows: np.ndarray  # original table row indices kept
    dropped: np.ndarray  # original table row indices removed (leverage ~ 1)
    candidates: tuple[str, ...]


def build_cv_matrix(
    table: ObservationTable,
    candidates: list[ModelStructure],
    spec: SplineSpec,
    *,
    bases: Mapping[str, np.ndarray] | None = None,
) -> CvMatrix:
    """One pass over candidates; units with leverage >= 1 - 1e-8 in any
    candidate are dropped from every column (same unit set throughout).

    ``bases`` may map each candidate's nonlinear column to its uncentered
    basis rows over all of ``table``'s rows, under that column's observed
    range.  When every row is a complete case, that range is the
    complete-case range, so those rows are ``cc_design``'s basis block bit
    for bit and are used in its place; otherwise ``bases`` is not read.
    """
    rows = complete_case_subset(table)
    if bases is not None and 0 < rows.size == table.n:
        designs = _complete_designs(table, candidates, spec, bases)
    else:
        designs = (cc_design(table, candidate, spec, rows) for candidate in candidates)
    y = table.y[rows]
    parts = [_residuals_and_leverages(G, y) for G in designs]
    keep = np.logical_and.reduce([h < 1.0 - _LEVERAGE_TOL for _, h in parts])
    if not keep.any():
        raise InsufficientCompleteCases("every complete case has leverage ~ 1")
    return CvMatrix(
        matrix=np.column_stack([resid[keep] / (1.0 - h[keep]) for resid, h in parts]),
        rows=rows[keep],
        dropped=rows[~keep],
        candidates=tuple(c.nonlinear[0] for c in candidates),
    )


def cv_weights(E: np.ndarray) -> np.ndarray:
    """Minimize w'(E'E)w over the simplex by pairwise coordinate exchange.

    Deterministic sweep over index pairs; each step transfers the exactly
    optimal amount of mass between the two coordinates (clipped to keep
    both nonnegative); stops when no pair improves by more than 1e-12.
    """
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.shape[1] == 0:
        raise LengthMismatch(f"need a (units, candidates) matrix with a candidate, got {E.shape}")
    return _simplex_qp(E.T @ E)


def _simplex_qp(Q: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    K = Q.shape[0]
    if K == 1:
        return np.ones(1)
    w = np.full(K, 1.0 / K)
    Qw = Q @ w
    for _ in range(_QP_MAX_SWEEPS):
        improved = False
        for a in range(K):
            for b in range(a + 1, K):
                g = Qw[a] - Qw[b]  # d(w'Qw)/dt = 2g at t = 0 along e_a - e_b
                curv = Q[a, a] - 2.0 * Q[a, b] + Q[b, b]
                if curv > 0.0:
                    t = -g / curv
                elif g > 0.0:
                    t = -w[a]
                elif g < 0.0:
                    t = w[b]
                else:
                    continue
                t = min(max(t, -w[a]), w[b])
                gain = -(2.0 * g * t + curv * t * t)
                if gain > _QP_IMPROVEMENT_TOL:
                    w[a] += t
                    w[b] -= t
                    Qw += t * (Q[:, a] - Q[:, b])
                    improved = True
        if not improved:
            break
    w = np.maximum(w, 0.0)
    return w / w.sum()


def predict_averaged(fits, weights, rows: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    fits = tuple(fits)
    if weights.shape != (len(fits),):
        raise LengthMismatch(f"{len(fits)} fits but weight shape {weights.shape}")
    if not fits:
        raise LengthMismatch("no fits to average")
    out = None
    for fit, w in zip(fits, weights):
        term = w * predict(fit, rows)
        out = term if out is None else out + term
    return out


@dataclass(frozen=True)
class AveragedFit:
    candidates: tuple[str, ...]
    fits: tuple[PrimeFit, ...]
    weights: np.ndarray
    n_complete: int
    n_dropped: int
    objective: float
    uniform_fallback: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return predict_averaged(self.fits, self.weights, rows)


def fit_prime_ma(
    table: ObservationTable,
    spec: SplineSpec | None = None,
    config: KernelConfig | None = None,
) -> AveragedFit:
    """Candidate fits on all rows, CV weights from the complete cases."""
    spec = spec or make_spec()
    config = config or KernelConfig()
    candidates = build_candidates(table.columns)
    nmap = _observed_ranges(table, table.columns)
    bases, designs = _designs(table, build_pattern_index(table), spec, config, nmap, candidates)
    rows = complete_case_subset(table)
    # each design is solved, and released, before the next is stacked
    fits = tuple(
        fit_candidate_full(table, c, spec, config, nmap, design, rows.size)
        for c, design in zip(candidates, designs)
    )
    n_cov = len(table.columns)
    threshold = 1 + spec.basis_size + (n_cov - 1)
    notes: list[str] = []
    if rows.size < threshold:
        notes.append(
            f"complete cases ({rows.size}) below the weighting threshold "
            f"({threshold}); using uniform weights"
        )
        weights = np.full(n_cov, 1.0 / n_cov)
        dropped = 0
        objective = float("nan")
        uniform = True
    else:
        # on a complete table these are the CV's basis blocks (build_cv_matrix)
        named = {name: bases[pos] for pos, name in enumerate(table.columns)}
        cv = build_cv_matrix(table, candidates, spec, bases=named)
        weights = cv_weights(cv.matrix)
        dropped = int(cv.dropped.size)
        if dropped:
            notes.append(f"dropped {dropped} high-leverage units from the CV matrix")
        objective = float(np.sum((cv.matrix @ weights) ** 2))
        uniform = False
    return AveragedFit(
        candidates=tuple(c.nonlinear[0] for c in candidates),
        fits=fits,
        weights=weights,
        n_complete=int(rows.size),
        n_dropped=dropped,
        objective=objective,
        uniform_fallback=uniform,
        notes=tuple(notes),
    )
