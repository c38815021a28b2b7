"""fit_prime_ma's CV on a complete table reuses the full-data spline bases.

On a complete table the complete-case range of each column is its
normalization range, so ``cc_design``'s basis block equals the uncentered
basis the candidate fits were built from, bit for bit.  ``fit_prime_ma``
must give exactly what the earlier path gives (``reference_averaging``):
weights, CV matrix, coefficients, centering means, notes and objective.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from primeplm import (
    ModelStructure,
    ObservationTable,
    dataset,
    fit_prime_ma,
    make_spec,
    model_averaging,
    prime_fit,
    simulation,
    spline,
)
from primeplm.errors import InsufficientData, PrimeError
from primeplm.kernel_impute import KernelConfig
from reference_averaging import fit_prime_ma_reference


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same_bits(got, want):
    assert np.array_equal(bits(got), bits(want))


def run_with_cv(table, spec, config):
    """fit_prime_ma, with the CvMatrix its build_cv_matrix call returned."""
    seen = []
    real = model_averaging.build_cv_matrix

    def keeping(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_averaging, "build_cv_matrix", keeping)
        averaged = fit_prime_ma(table, spec, config)
    return averaged, (seen[0] if seen else None)


def assert_matches_reference(table, spec, config=KernelConfig()):
    try:
        want, want_cv = fit_prime_ma_reference(table, spec, config)
    except PrimeError as err:
        with pytest.raises(type(err)) as raised:
            fit_prime_ma(table, spec, config)
        assert str(raised.value) == str(err)
        return None
    got, got_cv = run_with_cv(table, spec, config)
    assert (got_cv is None) == (want_cv is None)
    if want_cv is not None:
        assert_same_bits(got_cv.matrix, want_cv.matrix)
        assert np.array_equal(got_cv.rows, want_cv.rows)
        assert np.array_equal(got_cv.dropped, want_cv.dropped)
        assert got_cv.candidates == want_cv.candidates
    assert_same_bits(got.weights, want.weights)
    assert_same_bits(got.objective, want.objective)
    assert (got.candidates, got.n_complete, got.n_dropped, got.uniform_fallback, got.notes) == (
        want.candidates, want.n_complete, want.n_dropped, want.uniform_fallback, want.notes
    )
    for fit, ref in zip(got.fits, want.fits, strict=True):
        assert fit.structure == ref.structure and fit.columns == ref.columns
        assert fit.normalization == ref.normalization
        assert_same_bits(fit.intercept, ref.intercept)
        assert_same_bits(fit.curve_coefs, ref.curve_coefs)
        assert_same_bits(fit.linear_coefs, ref.linear_coefs)
        assert_same_bits(fit.centering_means, ref.centering_means)
        assert_same_bits(fit.diagnostics.condition_estimate, ref.diagnostics.condition_estimate)
        assert fit.diagnostics.notes == ref.diagnostics.notes
        assert fit.diagnostics.rank == ref.diagnostics.rank
        assert fit.diagnostics.imputation == ref.diagnostics.imputation
    return got


def complete_table(seed, n, k, outlier=False, order="C"):
    """c0 uniform, the rest normal, nothing missing.  With ``outlier`` the
    largest c0 value (row 0) sits far above the others, so under cubic
    splines with knots at 1/3 and 2/3 it alone supports the last basis
    function and has leverage 1 in candidate c0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k)) * rng.choice([1e-2, 1.0, 50.0], size=k)
    x[:, 0] = rng.uniform(0, 1, n)
    if outlier:
        x[:, 0] *= 0.6
        x[0, 0] = 1.0
    y = np.sin(2 * np.pi * x[:, 0]) + x[:, 1:].sum(axis=1) + rng.normal(0, 0.3, n)
    cols = tuple(f"c{i}" for i in range(k))
    mask = np.ones((n, k), dtype=bool)
    if order == "F":
        x, mask = np.asfortranarray(x), np.asfortranarray(mask)
    table = ObservationTable(
        y=y, x=x, mask=mask, columns=cols,
        structure=ModelStructure(nonlinear=cols[:1], linear=cols[1:]),
    )
    assert table.x.flags.f_contiguous == (order == "F")
    return table


def spec_for(table, knots, placement):
    if placement == "uniform":
        return make_spec(3, knots)
    # quantile knots from the pooled normalized columns, as the CLI places them
    nmap = dataset._observed_ranges(table, table.columns)
    pooled = np.concatenate([nmap.apply(c, table.x[:, j]) for j, c in enumerate(table.columns)])
    return make_spec(3, knots, "quantile", data=pooled)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@example(seed=11, n=60, k=3, knots=2, placement="uniform", order="C", outlier=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(14, 90),
    k=st.integers(2, 5),
    knots=st.integers(0, 4),
    placement=st.sampled_from(["uniform", "quantile"]),
    order=st.sampled_from(["C", "F"]),
    outlier=st.booleans(),
)
def test_complete_table_cv_equals_the_cc_design_path(
    seed, n, k, knots, placement, order, outlier
):
    table = complete_table(seed, n, k, outlier, order)
    try:
        spec = spec_for(table, knots, placement)
    except InsufficientData:
        return
    assert_matches_reference(table, spec)


def test_leverage_one_row_is_dropped_as_before():
    table = complete_table(seed=11, n=60, k=3, outlier=True)
    got = assert_matches_reference(table, make_spec(3, 2))
    assert got.n_dropped == 1
    assert "dropped 1 high-leverage" in " ".join(got.notes)


@pytest.mark.parametrize("kernel", ["product", "resampled"])
def test_holed_table_keeps_the_cc_design_path(monkeypatch, kernel):
    table = complete_table(seed=5, n=80, k=4)
    rng = np.random.default_rng(6)
    mask = rng.random(table.x.shape) >= 0.15
    holed = ObservationTable(table.y, np.where(mask, table.x, np.nan), mask, table.columns,
                             table.structure)
    config = KernelConfig(seed=2) if kernel == "product" else KernelConfig(
        seed=2, projection="resampled", n_projections=2, projection_threshold=2
    )
    calls = []
    real = model_averaging.cc_design
    monkeypatch.setattr(model_averaging, "cc_design",
                        lambda *args: calls.append(args[1]) or real(*args))
    got = assert_matches_reference(holed, make_spec(3, 1), config)
    assert not got.uniform_fallback
    # once for the reference and once for fit_prime_ma, per candidate
    assert len(calls) == 2 * len(table.columns)


@pytest.mark.parametrize("knots", [0, 2])
def test_holed_cv_matrix_is_the_c_ordered_designs_bit_for_bit(monkeypatch, knots):
    # cc_design fills a Fortran-ordered matrix; a C-ordered copy of it, which
    # is what cc_design used to return, gives the same CV matrix bit for bit
    table = complete_table(seed=8, n=120, k=5)
    mask = np.random.default_rng(9).random(table.x.shape) >= 0.1
    holed = ObservationTable(table.y, np.where(mask, table.x, np.nan), mask, table.columns,
                             table.structure)
    candidates = model_averaging.build_candidates(holed.columns)
    spec = make_spec(3, knots)
    rows = dataset.complete_case_subset(holed)
    assert 0 < rows.size < holed.n
    real = model_averaging.cc_design
    for candidate in candidates:
        assert real(holed, candidate, spec, rows).flags.f_contiguous
    got = model_averaging.build_cv_matrix(holed, candidates, spec)
    monkeypatch.setattr(model_averaging, "cc_design",
                        lambda *args: np.ascontiguousarray(real(*args)))
    want = model_averaging.build_cv_matrix(holed, candidates, spec)
    assert_same_bits(got.matrix, want.matrix)
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.dropped, want.dropped)


def test_complete_table_evaluates_each_basis_once(monkeypatch):
    rng = np.random.default_rng(3)
    x = simulation.gen_covariates(300, "0.3", rng)
    table = ObservationTable(
        simulation.true_mean(x) + rng.normal(0, 0.5, 300), x, np.ones(x.shape, dtype=bool),
        simulation.SIM_COLUMNS, simulation.SIM_STRUCTURE,
    )
    bases, tables = [], []
    real = spline.basis_matrix

    def counting(spec, values):
        bases.append(np.size(values))
        return real(spec, values)

    for module in (spline, prime_fit, model_averaging):
        monkeypatch.setattr(module, "basis_matrix", counting)
    post_init = ObservationTable.__post_init__
    monkeypatch.setattr(ObservationTable, "__post_init__",
                        lambda self: tables.append(self) or post_init(self))
    averaged = fit_prime_ma(table, make_spec(3, 2))
    assert not averaged.uniform_fallback
    assert bases == [table.n] * 8  # one per column, shared by its fit and the CV
    assert tables == []
