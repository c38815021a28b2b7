"""The earlier ``fit_prime_ma`` path, kept as a bit-for-bit oracle.

It builds every candidate's design from columns imputed by one ``impute``
call, each basis scattered into zeros over its observed rows and centered at
its masked mean, fits each candidate on a copy of the table under the
candidate's structure, and builds the CV matrix from ``cc_design`` for every
candidate, as ``build_cv_matrix`` does when it is given no bases.
``fit_prime_ma`` must agree with it bit for bit: on a complete table its CV
reuses the full-data bases instead.
"""

from __future__ import annotations

import numpy as np

from primeplm.dataset import (
    ObservationTable,
    _observed_ranges,
    build_pattern_index,
    complete_case_subset,
)
from primeplm.kernel_impute import impute
from primeplm.model_averaging import (
    AveragedFit,
    build_candidates,
    build_cv_matrix,
    cv_weights,
)
from primeplm.prime_fit import DesignMatrix, _solve
from primeplm.spline import basis_matrix


def scattered_designs(table, spec, config, normalization, structures):
    """Each structure's design, its blocks stacked from one ``impute`` call."""
    L = spec.basis_size
    basis, values = {}, {}
    for structure in structures:
        for name in structure.nonlinear:
            pos = table.position(name)
            observed = table.mask[:, pos]
            z = normalization.apply(name, table.x[observed, pos], clamp=False)
            basis[pos] = np.zeros((table.n, L))
            basis[pos][observed] = basis_matrix(spec, z)
        for name in structure.linear:
            pos = table.position(name)
            values[pos] = np.array(table.x[:, pos : pos + 1])
    arrays = {j: tuple(d[j] for d in (basis, values) if j in d) for j in {**basis, **values}}
    imputation = impute(table, build_pattern_index(table), config, arrays)
    means = {pos: basis[pos][table.mask[:, pos]].mean(axis=0) for pos in basis}
    designs = []
    for structure in structures:
        nl = [table.position(c) for c in structure.nonlinear]
        matrix = np.hstack([
            np.ones((table.n, 1)),
            *(basis[pos] - means[pos] for pos in nl),
            *(values[table.position(c)] for c in structure.linear),
        ])
        block_means = np.array([means[pos] for pos in nl]).reshape(-1, L)
        designs.append(DesignMatrix(matrix, (), block_means, imputation))
    return designs


def fit_prime_ma_reference(table, spec, config):
    """(AveragedFit, CvMatrix or None on the uniform fallback)."""
    candidates = build_candidates(table.columns)
    nmap = _observed_ranges(table, table.columns)
    designs = scattered_designs(table, spec, config, nmap, candidates)
    rows = complete_case_subset(table)
    fits = []
    for candidate, design in zip(candidates, designs):
        view = ObservationTable(table.y, table.x, table.mask, table.columns, candidate)
        fits.append(_solve(view, view.structure, spec, config, nmap, design, rows.size))
    n_cov = len(table.columns)
    cv = None
    notes = []
    if rows.size < 1 + spec.basis_size + (n_cov - 1):
        notes.append(
            f"complete cases ({rows.size}) below the weighting threshold "
            f"({1 + spec.basis_size + (n_cov - 1)}); using uniform weights"
        )
        weights, dropped, objective = np.full(n_cov, 1.0 / n_cov), 0, float("nan")
    else:
        cv = build_cv_matrix(table, candidates, spec)
        weights = cv_weights(cv.matrix)
        dropped = int(cv.dropped.size)
        if dropped:
            notes.append(f"dropped {dropped} high-leverage units from the CV matrix")
        objective = float(np.sum((cv.matrix @ weights) ** 2))
    averaged = AveragedFit(
        candidates=tuple(c.nonlinear[0] for c in candidates),
        fits=tuple(fits),
        weights=weights,
        n_complete=int(rows.size),
        n_dropped=dropped,
        objective=objective,
        uniform_fallback=cv is None,
        notes=tuple(notes),
    )
    return averaged, cv
