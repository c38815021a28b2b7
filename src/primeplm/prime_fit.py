"""Spline + linear least squares on the imputed design matrix.

The design is one intercept column, one centered basis block per
nonlinear covariate (imputed basis rows where the covariate is missing),
and one column per linear covariate (imputed scalars where missing).
Basis blocks are centered at their observed-row column means, which
together with the explicit intercept fixes the location of each curve;
the leftover within-block collinearity (centered partition-of-unity rows
sum to zero) is resolved by the minimum-norm least squares solution, so
coefficients are reproducible and the curve estimates are unique.
"""

from __future__ import annotations

import copy
import json
import math
import os
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from .dataset import (
    ModelStructure,
    NormalizationMap,
    ObservationTable,
    _observed_ranges,
    build_pattern_index,
    complete_case_subset,
)
from .errors import (
    BadFitFile,
    DegenerateColumn,
    IncompleteRow,
    InsufficientCompleteCases,
    LengthMismatch,
    PrimeError,
    Underdetermined,
    UnknownColumn,
)
from .kernel_impute import ImputationDiagnostics, KernelConfig, impute
from .spline import SplineSpec, basis_matrix, make_spec

__all__ = [
    "DesignMatrix",
    "FitDiagnostics",
    "PrimeFit",
    "assemble_design",
    "solve_least_squares",
    "fit_prime",
    "fit_cc",
    "fit_mean_impute",
    "predict",
    "estimate_g",
    "save_fit",
    "load_fit",
]

# relative singular-value cutoff: separates the exact structural nulls
# (~1e-16) from genuine directions by many orders of magnitude
_RCOND = 1e-9

_FIT_FORMAT = "primeplm.fit"
_FIT_VERSION = 1


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray
    labels: tuple[str, ...]
    centering_means: np.ndarray  # (p, L) observed-row column means per block
    imputation: ImputationDiagnostics


@dataclass
class FitDiagnostics:
    n_rows: int = 0
    n_columns: int = 0
    rank: int = 0
    rank_deficient: bool = False
    condition_estimate: float = float("nan")
    n_complete: int = 0
    imputation: ImputationDiagnostics = field(default_factory=ImputationDiagnostics)
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class PrimeFit:
    """Fitted intercept, per-covariate curve coefficients, linear slopes."""

    structure: ModelStructure
    columns: tuple[str, ...]
    spec: SplineSpec
    kernel_config: KernelConfig
    normalization: NormalizationMap
    intercept: float
    curve_coefs: np.ndarray  # (p, L), aligned with structure.nonlinear
    linear_coefs: np.ndarray  # (q,), aligned with structure.linear
    centering_means: np.ndarray  # (p, L)
    diagnostics: FitDiagnostics


def _designs(
    table, pattern, spec, config, normalization, structures
) -> tuple[dict[int, np.ndarray], Iterator[DesignMatrix]]:
    """The designs of ``structures`` over ``table``'s columns, stacked as they
    are taken from columns imputed by one ``impute`` call on ``table`` as given,
    each with its own counters.  A column nonlinear in some structure is imputed
    as basis rows of its values under ``normalization``, one linear in some
    structure as values, and one asked for both shares its donor weights.
    Returned with the designs: each nonlinear column's uncentered, imputed
    basis rows, by column position."""
    L = spec.basis_size
    nonlinear = [[table.position(c) for c in s.nonlinear] for s in structures]
    linear = [[table.position(c) for c in s.linear] for s in structures]
    basis, values, means = {}, {}, {}
    for pos in dict.fromkeys(chain.from_iterable(nonlinear)):
        observed = table.mask[:, pos]
        if observed.all():
            # every row is observed, so neither a scatter nor a masked copy
            z = normalization.apply(table.columns[pos], table.x[:, pos], clamp=False)
            basis[pos] = basis_matrix(spec, z)
            means[pos] = basis[pos].mean(axis=0)
            continue
        z = normalization.apply(table.columns[pos], table.x[observed, pos], clamp=False)
        basis[pos] = np.zeros((table.n, L))
        basis[pos][observed] = observed_basis = basis_matrix(spec, z)
        means[pos] = observed_basis.mean(axis=0)
    for pos in dict.fromkeys(chain.from_iterable(linear)):
        values[pos] = np.array(table.x[:, pos : pos + 1])
    arrays = {j: tuple(d[j] for d in (basis, values) if j in d) for j in {**basis, **values}}
    imputation = impute(table, pattern, config, arrays)

    def design(structure, nl, lin) -> DesignMatrix:
        block_means = np.array([means[pos] for pos in nl]).reshape(-1, L)
        # each block is written into the one matrix, with no stacked temporaries;
        # Fortran order lets LAPACK's lstsq read it with no transposing copy
        end = 1 + len(nl) * L
        matrix = np.empty((table.n, end + len(lin)), order="F")
        matrix[:, 0] = 1.0
        for k, pos in enumerate(nl):
            np.subtract(basis[pos], block_means[k], out=matrix[:, 1 + k * L : 1 + (k + 1) * L])
        for k, pos in enumerate(lin):
            matrix[:, end + k] = values[pos][:, 0]
        labels = [f"{name}:b{l + 1}" for name in structure.nonlinear for l in range(L)]
        labels = ("intercept", *labels, *structure.linear)
        return DesignMatrix(matrix, labels, block_means, copy.deepcopy(imputation))

    return basis, map(design, structures, nonlinear, linear)


def assemble_design(
    table: ObservationTable,
    pattern: dict[bytes, np.ndarray],
    spec: SplineSpec,
    config: KernelConfig,
    normalization: NormalizationMap | None = None,
) -> DesignMatrix:
    """Build the n x (1 + p*L + q) design.  The kernel works on the table as given;
    ``normalization`` maps the nonlinear columns onto [0, 1] for the spline
    basis, and without it they must already lie there."""
    nmap = normalization or NormalizationMap({c: (0.0, 1.0) for c in table.structure.nonlinear})
    _, designs = _designs(table, pattern, spec, config, nmap, [table.structure])
    return next(designs)


def solve_least_squares(
    matrix: np.ndarray,
    y: np.ndarray,
    diagnostics: FitDiagnostics | None = None,
) -> np.ndarray:
    """Minimum-norm least squares via SVD: numpy's ``lstsq`` (LAPACK
    ``gelsd``), with singular values below ``_RCOND`` times the largest
    treated as zero."""
    matrix = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    n, ncols = matrix.shape
    if n < ncols:
        raise Underdetermined(f"{n} rows for {ncols} design columns")
    # LAPACK would print to stderr and fail to converge on these instead
    if not (np.isfinite(matrix).all() and np.isfinite(y).all()):
        raise ValueError("array must not contain infs or NaNs")
    coef, _, rank, sv = np.linalg.lstsq(matrix, y, rcond=_RCOND)
    rank = int(rank)  # numpy's is an np.int32, which json cannot write
    if diagnostics is not None:
        diagnostics.n_rows = n
        diagnostics.n_columns = ncols
        diagnostics.rank = rank
        diagnostics.rank_deficient = rank < ncols
        diagnostics.condition_estimate = float(sv[0] / sv[rank - 1]) if rank >= 1 else float("inf")
    return coef


def _solve(table, structure, spec, config, nmap, design, n_complete) -> PrimeFit:
    """Least squares of ``table``'s response on ``design``, read back as the
    fit of ``structure`` over ``table``'s columns."""
    diagnostics = FitDiagnostics(n_complete=n_complete, imputation=design.imputation)
    coef = solve_least_squares(design.matrix, table.y, diagnostics)

    p, q, L = structure.p, structure.q, spec.basis_size
    if diagnostics.rank_deficient:
        if diagnostics.rank == diagnostics.n_columns - p:
            diagnostics.notes.append(
                "rank deficiency matches the structural basis-block overlap"
            )
        else:
            diagnostics.notes.append(
                "collinearity beyond the structural basis-block overlap"
            )
    intercept = float(coef[0])
    curve = coef[1 : 1 + p * L].reshape(p, L) if p else np.zeros((0, L))
    linear = coef[1 + p * L :]
    return PrimeFit(
        structure=structure,
        columns=table.columns,
        spec=spec,
        kernel_config=config,
        normalization=NormalizationMap({c: nmap.ranges[c] for c in structure.nonlinear}),
        intercept=intercept,
        curve_coefs=curve,
        linear_coefs=linear,
        centering_means=design.centering_means,
        diagnostics=diagnostics,
    )


def fit_prime(
    table: ObservationTable,
    spec: SplineSpec | None = None,
    config: KernelConfig | None = None,
) -> PrimeFit:
    """Fit on all rows, imputing missing covariates from partial donors."""
    spec, config = spec or make_spec(), config or KernelConfig()
    nmap = _observed_ranges(table, table.structure.nonlinear)
    design = assemble_design(table, build_pattern_index(table), spec, config, nmap)
    n_complete = int(complete_case_subset(table).size)
    return _solve(table, table.structure, spec, config, nmap, design, n_complete)


def fit_cc(
    table: ObservationTable,
    spec: SplineSpec | None = None,
    config: KernelConfig | None = None,
) -> PrimeFit:
    """``fit_prime`` on the complete-case rows."""
    spec = spec or make_spec()
    rows = complete_case_subset(table)
    ncols = 1 + table.structure.p * spec.basis_size + table.structure.q
    if rows.size <= ncols:
        raise InsufficientCompleteCases(
            f"{rows.size} complete rows for {ncols} design columns"
        )
    subset = ObservationTable(
        table.y[rows], table.x[rows], table.mask[rows], table.columns, table.structure
    )
    return fit_prime(subset, spec, config)


def fit_mean_impute(
    table: ObservationTable,
    spec: SplineSpec | None = None,
    config: KernelConfig | None = None,
) -> PrimeFit:
    """``fit_prime`` on the mean-filled table: each missing cell replaced by its
    observed column mean."""
    x = np.array(table.x)
    for pos in range(len(table.columns)):
        observed = table.mask[:, pos]
        if not observed.any():
            raise DegenerateColumn(
                f"column {table.columns[pos]!r} is never observed; no mean to impute"
            )
        x[~observed, pos] = table.x[observed, pos].mean()
    filled = ObservationTable(
        table.y, x, np.ones_like(table.mask, dtype=bool), table.columns, table.structure
    )
    return fit_prime(filled, spec, config)


def predict(fit: PrimeFit, rows: np.ndarray) -> np.ndarray:
    """Mean estimates for complete covariate rows (fit.columns order)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(fit.columns):
        raise LengthMismatch(
            f"expected {len(fit.columns)} covariate columns, got {rows.shape[1]}"
        )
    if not np.all(np.isfinite(rows)):
        raise IncompleteRow("prediction rows must be fully observed")
    out = np.full(rows.shape[0], fit.intercept)
    for k, name in enumerate(fit.structure.nonlinear):
        out += estimate_g(fit, k, rows[:, fit.columns.index(name)])
    for k, name in enumerate(fit.structure.linear):
        pos = fit.columns.index(name)
        out += rows[:, pos] * fit.linear_coefs[k]
    return out


def estimate_g(fit: PrimeFit, j: int | str, grid: np.ndarray) -> np.ndarray:
    """Centered curve estimate for one nonlinear covariate on original units."""
    if isinstance(j, str):
        if j not in fit.structure.nonlinear:
            raise UnknownColumn(f"{j!r} is not a nonlinear covariate of this fit")
        k = fit.structure.nonlinear.index(j)
    else:
        if not 0 <= j < fit.structure.p:
            raise UnknownColumn(f"nonlinear covariate index {j} out of range")
        k = j
    name = fit.structure.nonlinear[k]
    z = fit.normalization.apply(name, np.asarray(grid, dtype=float), clamp=True)
    return (basis_matrix(fit.spec, z) - fit.centering_means[k]) @ fit.curve_coefs[k]


# -- fit-file round trip -------------------------------------------------------


_DIAGNOSTICS = tuple(f.name for f in fields(FitDiagnostics))
_COUNTERS = tuple(f.name for f in fields(ImputationDiagnostics))


def _diagnostics_payload(diag: FitDiagnostics, structure: ModelStructure) -> dict:
    """FitDiagnostics' fields, ``imputation`` spelled out as its counters; the
    fallback counters list the structure's columns nonlinear first, then linear."""
    block = {}
    for name in _DIAGNOSTICS:
        if name == "imputation":
            block.update({counter: getattr(diag.imputation, counter) for counter in _COUNTERS})
        else:
            block[name] = getattr(diag, name)
    rank = {name: k for k, name in enumerate(structure.nonlinear + structure.linear)}
    for name in ("no_donor_fallbacks", "underflow_fallbacks"):
        block[name] = dict(sorted(block[name].items(), key=lambda item: rank.get(item[0], -1)))
    return block


def _fit_payload(fit: PrimeFit) -> dict:
    return {
        "format": _FIT_FORMAT,
        "version": _FIT_VERSION,
        "columns": list(fit.columns),
        "structure": {
            "nonlinear": list(fit.structure.nonlinear),
            "linear": list(fit.structure.linear),
        },
        "spline": {
            "degree": fit.spec.degree,
            "interior_knots": list(fit.spec.interior_knots),
        },
        "kernel": asdict(fit.kernel_config),
        "normalization": {k: list(v) for k, v in fit.normalization.ranges.items()},
        "intercept": fit.intercept,
        "curve_coefs": fit.curve_coefs.tolist(),
        "linear_coefs": fit.linear_coefs.tolist(),
        "centering_means": fit.centering_means.tolist(),
        "diagnostics": _diagnostics_payload(fit.diagnostics, fit.structure),
    }


def _write_json(path: str | os.PathLike, payload: dict) -> None:
    """``payload`` as indented JSON: the package's one JSON writer.  The text
    is built in full before the file is opened, so a value JSON cannot hold
    raises with no file written or truncated."""
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_fit(fit: PrimeFit, path: str | os.PathLike) -> None:
    _write_json(path, _fit_payload(fit))


def load_fit(path: str | os.PathLike) -> PrimeFit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise BadFitFile(f"{path}: not a fit file ({err})") from None
    if not isinstance(payload, dict) or payload.get("format") != _FIT_FORMAT:
        raise BadFitFile(f"{path}: missing {_FIT_FORMAT!r} header")
    if payload.get("version") != _FIT_VERSION:
        raise BadFitFile(
            f"{path}: fit file version {payload.get('version')!r}, expected {_FIT_VERSION}"
        )
    try:
        return _fit_from_payload(payload)
    except (KeyError, TypeError, ValueError, PrimeError) as err:
        raise BadFitFile(f"{path}: malformed fit file ({type(err).__name__}: {err})") from None


def _array(payload: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    values = np.asarray(payload[key], dtype=float)
    # a (0, L) matrix serializes as []
    if values.shape != shape and not (values.size == 0 and math.prod(shape) == 0):
        raise ValueError(f"{key!r} has shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{key!r} holds a non-finite value")
    return values.reshape(shape)


def _range(name: str, values) -> tuple[float, float]:
    lo, hi = (float(v) for v in values)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"normalization of {name!r} needs finite lo < hi, got {values}")
    return lo, hi


def _fit_from_payload(payload: dict) -> PrimeFit:
    structure = ModelStructure(
        nonlinear=tuple(payload["structure"]["nonlinear"]),
        linear=tuple(payload["structure"]["linear"]),
    )
    columns = tuple(payload["columns"])
    if sorted(columns) != sorted(structure.nonlinear + structure.linear):
        raise ValueError("'columns' do not match the structure")
    spec = SplineSpec(
        degree=payload["spline"]["degree"],
        interior_knots=payload["spline"]["interior_knots"],
    )
    ranges = payload["normalization"]
    if sorted(ranges) != sorted(structure.nonlinear):
        raise ValueError("'normalization' keys do not match the nonlinear columns")
    normalization = NormalizationMap({k: _range(k, v) for k, v in ranges.items()})
    kernel = dict(payload["kernel"])
    if sorted(kernel) != sorted(f.name for f in fields(KernelConfig)):
        raise ValueError(f"'kernel' keys {sorted(kernel)} are not KernelConfig's fields")
    raw = payload["diagnostics"]
    imputation = ImputationDiagnostics(*(Counter(raw[name]) for name in _COUNTERS))
    diagnostics = FitDiagnostics(
        **{name: raw[name] for name in _DIAGNOSTICS if name != "imputation"},
        imputation=imputation,
    )
    return PrimeFit(
        structure=structure,
        columns=columns,
        spec=spec,
        kernel_config=KernelConfig(**kernel),
        normalization=normalization,
        intercept=float(_array(payload, "intercept", ())),
        curve_coefs=_array(payload, "curve_coefs", (structure.p, spec.basis_size)),
        linear_coefs=_array(payload, "linear_coefs", (structure.q,)),
        centering_means=_array(payload, "centering_means", (structure.p, spec.basis_size)),
        diagnostics=diagnostics,
    )
