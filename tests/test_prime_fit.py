import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import BSpline

from conftest import make_blockwise_table, make_pattern_table, make_random_table
from primeplm import (
    ModelStructure,
    ObservationTable,
    build_pattern_index,
    estimate_g,
    fit_cc,
    fit_mean_impute,
    fit_prime,
    load_fit,
    make_spec,
    minmax_normalize,
    predict,
    save_fit,
)
from primeplm.errors import (
    BadFitFile,
    IncompleteRow,
    InsufficientCompleteCases,
    LengthMismatch,
    Underdetermined,
    UnknownColumn,
)
from primeplm import prime_fit
from primeplm.kernel_impute import KernelConfig
from primeplm.prime_fit import FitDiagnostics, assemble_design, solve_least_squares
from reference_kernel import product_kernel_weight


def textbook_design(table, degree=3):
    """Independent construction: scipy basis, centered blocks, raw linears."""
    t = np.concatenate([np.zeros(degree + 1), np.ones(degree + 1)])
    cols = [np.ones((table.n, 1))]
    for name in table.structure.nonlinear:
        pos = table.position(name)
        v = table.x[:, pos]
        z = (v - v.min()) / (v.max() - v.min())
        B = BSpline.design_matrix(z, t, degree).toarray()
        cols.append(B - B.mean(axis=0))
    for name in table.structure.linear:
        cols.append(table.x[:, table.position(name)][:, None])
    return np.hstack(cols)


def complete_table(rng, n=120):
    x = np.column_stack([
        rng.uniform(0, 1, (n, 2)),
        rng.normal(1.0, 1.0, (n, 2)),
    ])
    y = (
        np.sin(2 * np.pi * x[:, 0])
        + x[:, 1] ** 2
        + 1.5 * x[:, 2]
        - 0.5 * x[:, 3]
        + rng.normal(0, 0.3, n)
    )
    return ObservationTable(
        y=y, x=x, mask=np.ones(x.shape, dtype=bool),
        columns=("u1", "u2", "w1", "w2"),
        structure=ModelStructure(nonlinear=("u1", "u2"), linear=("w1", "w2")),
    )


def coef_vector(fit):
    return np.concatenate([[fit.intercept], fit.curve_coefs.ravel(), fit.linear_coefs])


def test_assemble_design_pattern_fixture():
    table = make_pattern_table()
    normalized, _ = minmax_normalize(table)
    pattern = build_pattern_index(normalized)
    spec = make_spec()
    design = assemble_design(normalized, pattern, spec, KernelConfig())
    assert design.matrix.shape == (10, 1 + 3 * 4 + 5)
    assert np.all(np.isfinite(design.matrix))
    assert_array_equal(design.matrix[:, 0], np.ones(10))
    assert design.labels[0] == "intercept"
    assert design.labels[1] == "x1:b1" and design.labels[-1] == "x8"
    assert design.centering_means.shape == (3, 4)
    # centered basis columns average to zero over the rows observing them
    for j, name in enumerate(("x1", "x2", "x3")):
        obs = normalized.mask[:, normalized.position(name)]
        block = design.matrix[obs, 1 + 4 * j : 1 + 4 * (j + 1)]
        assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)
        # every row of a block, observed or imputed, sums to 1 - sum(means)
        full = design.matrix[:, 1 + 4 * j : 1 + 4 * (j + 1)]
        expected = 1.0 - design.centering_means[j].sum()
        assert_allclose(full.sum(axis=1), expected, atol=1e-9)
    # observed linear entries pass through untouched
    obs = normalized.mask[:, 3]
    assert_array_equal(design.matrix[obs, 13], normalized.x[obs, 3])


@pytest.mark.parametrize("seed", range(4))
def test_product_kernel_design_is_scale_invariant(seed):
    # Silverman bandwidths scale with their columns, so the product kernel
    # gives the same weights on the raw table as on the normalized one
    rng = np.random.default_rng(seed)
    base = make_random_table(rng, n=80, p=2, q=2, missing_rate=0.3)
    x = base.x * [200.0, 1e-3, 1.0, 1.0] + [-50.0, 3.0, 0.0, 0.0]
    raw = ObservationTable(base.y, x, base.mask, base.columns, base.structure)
    normalized, nmap = minmax_normalize(raw)
    pattern = build_pattern_index(raw)
    spec, config = make_spec(3, 1), KernelConfig(seed=seed)
    got = assemble_design(raw, pattern, spec, config, nmap)
    want = assemble_design(normalized, pattern, spec, config)
    assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12 * np.abs(want.matrix).max())
    assert_allclose(got.centering_means, want.centering_means, rtol=0, atol=1e-12)
    assert got.imputation == want.imputation


def test_fixed_bandwidth_is_in_raw_units_under_every_structure(monkeypatch):
    # column a spans [0, 10]: read in [0, 1] units its bandwidth would be ten
    # times wider whenever a is the nonlinear column
    rng = np.random.default_rng(30)
    n = 60
    x = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 1, n), rng.normal(0, 2, n)])
    mask = rng.uniform(size=x.shape) >= 0.25
    mask[:2] = True
    h = np.array([0.8, 0.1, 0.5])
    table = ObservationTable(
        y=rng.normal(size=n), x=np.where(mask, x, np.nan), mask=mask, columns=("a", "b", "c"),
        structure=ModelStructure(nonlinear=("a",), linear=("b", "c")),
    )
    designs = []
    real = prime_fit.solve_least_squares
    monkeypatch.setattr(
        prime_fit, "solve_least_squares",
        lambda matrix, y, diagnostics=None: designs.append(matrix) or real(matrix, y, diagnostics),
    )
    config = KernelConfig(bandwidth="fixed", fixed_h=tuple(h))
    fit_prime(table, make_spec(), config)
    swapped = ModelStructure(("b",), ("a", "c"))
    fit_prime(ObservationTable(table.y, table.x, table.mask, table.columns, swapped),
              make_spec(), config)
    # c is the last linear column of both structures
    got = [design[:, -1] for design in designs]
    assert_array_equal(got[0], got[1])
    for i in np.flatnonzero(~mask[:, 2]):
        cond = np.flatnonzero(mask[i])
        donors = np.flatnonzero(mask[:, 2] & mask[:, cond].all(axis=1))
        w = np.array([product_kernel_weight(x[d, cond] - x[i, cond], h[cond]) for d in donors])
        assert got[0][i] == pytest.approx(w @ x[donors, 2] / w.sum(), rel=1e-12)


def test_solve_exact_system():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    coef = np.array([3.0, -2.0])
    diags = FitDiagnostics()
    got = solve_least_squares(A, A @ coef, diags)
    assert_allclose(got, coef, atol=1e-12)
    assert diags.rank == 2 and not diags.rank_deficient


def test_solve_duplicated_column_min_norm():
    rng = np.random.default_rng(1)
    c = rng.normal(size=30)
    A = np.column_stack([c, c])
    y = 4.0 * c
    diags = FitDiagnostics()
    got = solve_least_squares(A, y, diags)
    assert diags.rank_deficient and diags.rank == 1
    # minimum-norm solution splits the coefficient evenly
    assert_allclose(got, [2.0, 2.0], atol=1e-10)
    assert_allclose(got, np.linalg.pinv(A) @ y, atol=1e-10)


def test_solve_matches_normal_equations():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        got = solve_least_squares(A, y)
        expected = np.linalg.solve(A.T @ A, A.T @ y)
        assert_allclose(got, expected, atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["matrix", "y"])
def test_solve_rejects_non_finite_input_quietly(capfd, where, bad):
    rng = np.random.default_rng(4)
    args = {"matrix": rng.normal(size=(20, 3)), "y": rng.normal(size=20)}
    args[where].flat[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_least_squares(args["matrix"], args["y"], FitDiagnostics())
    assert capfd.readouterr() == ("", "")


def test_solve_diagnostics_are_python_scalars():
    # numpy's lstsq reports its rank as an np.int32; fit files are json
    rng = np.random.default_rng(5)
    c = rng.normal(size=(30, 2))
    for matrix in (c, np.column_stack([c, c[:, 0]])):
        diags = FitDiagnostics()
        solve_least_squares(matrix, rng.normal(size=30), diags)
        assert type(diags.rank) is int and type(diags.rank_deficient) is bool
        assert type(diags.condition_estimate) is float
        json.dumps(dataclasses.asdict(diags))


def test_underdetermined_raises():
    rng = np.random.default_rng(3)
    with pytest.raises(Underdetermined):
        solve_least_squares(rng.normal(size=(4, 5)), rng.normal(size=4))


def test_reduction_no_missing():
    rng = np.random.default_rng(8)
    table = complete_table(rng)
    fp = fit_prime(table)
    fc = fit_cc(table)
    assert_allclose(coef_vector(fp), coef_vector(fc), atol=1e-12)
    oracle = np.linalg.pinv(textbook_design(table), rcond=1e-9) @ table.y
    assert_allclose(coef_vector(fp), oracle, atol=1e-10)
    assert fp.diagnostics.n_complete == table.n
    assert fp.diagnostics.imputation.total_fallbacks == 0


def test_structural_rank_deficiency_reported():
    rng = np.random.default_rng(9)
    table = complete_table(rng)
    fit = fit_prime(table)
    # p centered partition-of-unity blocks each lose exactly one direction
    assert fit.diagnostics.rank == fit.diagnostics.n_columns - table.structure.p
    assert fit.diagnostics.rank_deficient
    assert any("structural" in note for note in fit.diagnostics.notes)


def test_fit_deterministic():
    rng = np.random.default_rng(10)
    table = make_random_table(rng, n=60, p=2, q=2, missing_rate=0.2)
    a = fit_prime(table)
    b = fit_prime(table)
    assert_array_equal(coef_vector(a), coef_vector(b))


def test_no_nonlinear_closed_form():
    rng = np.random.default_rng(11)
    n = 80
    w = rng.normal(size=n)
    y = 2.0 + 3.0 * w + rng.normal(0, 0.1, n)
    table = ObservationTable(
        y=y, x=w[:, None], mask=np.ones((n, 1), dtype=bool), columns=("w",),
        structure=ModelStructure(nonlinear=(), linear=("w",)),
    )
    fit = fit_prime(table)
    X = np.column_stack([np.ones(n), w])
    expected = np.linalg.solve(X.T @ X, X.T @ y)
    assert fit.intercept == pytest.approx(expected[0], abs=1e-10)
    assert fit.linear_coefs[0] == pytest.approx(expected[1], abs=1e-10)
    assert fit.curve_coefs.shape == (0, 4)


def test_predict_matches_manual_composition():
    rng = np.random.default_rng(12)
    table = complete_table(rng)
    fit = fit_prime(table)
    rows = np.column_stack([
        rng.uniform(0, 1, (7, 2)), rng.normal(1, 1, (7, 2))
    ])
    got = predict(fit, rows)
    spec = fit.spec
    manual = np.full(7, fit.intercept)
    from primeplm.spline import basis_matrix

    for j, name in enumerate(table.structure.nonlinear):
        z = fit.normalization.apply(name, rows[:, table.position(name)])
        B = basis_matrix(spec, z) - fit.centering_means[j]
        manual += B @ fit.curve_coefs[j]
    for k, name in enumerate(table.structure.linear):
        manual += rows[:, table.position(name)] * fit.linear_coefs[k]
    assert_allclose(got, manual, atol=1e-12)
    single = predict(fit, rows[0])
    assert single.shape == (1,)
    assert single[0] == pytest.approx(got[0], abs=1e-12)


def test_predict_clamps_out_of_range():
    rng = np.random.default_rng(13)
    table = complete_table(rng)
    fit = fit_prime(table)
    lo, hi = fit.normalization.ranges["u1"]
    inside = np.array([[lo, 0.5, 1.0, 1.0], [hi, 0.5, 1.0, 1.0]])
    outside = np.array([[lo - 5, 0.5, 1.0, 1.0], [hi + 5, 0.5, 1.0, 1.0]])
    assert_allclose(predict(fit, outside), predict(fit, inside), atol=1e-12)


def test_predict_errors():
    rng = np.random.default_rng(14)
    table = complete_table(rng)
    fit = fit_prime(table)
    with pytest.raises(LengthMismatch):
        predict(fit, np.zeros((2, 3)))
    with pytest.raises(IncompleteRow):
        predict(fit, np.array([[0.5, np.nan, 1.0, 1.0]]))


def test_estimate_g_centered_and_named():
    rng = np.random.default_rng(15)
    table = complete_table(rng)
    fit = fit_prime(table)
    pos = table.position("u1")
    train_vals = table.x[:, pos]
    g_train = estimate_g(fit, "u1", train_vals)
    # centering at observed-row basis means keeps the fitted curve mean-zero
    assert g_train.mean() == pytest.approx(0.0, abs=1e-10)
    assert_array_equal(estimate_g(fit, 0, train_vals), g_train)
    with pytest.raises(UnknownColumn):
        estimate_g(fit, "w9", train_vals)


def test_estimate_g_recovers_sine():
    rng = np.random.default_rng(16)
    n = 2000
    x = np.column_stack([rng.uniform(0, 1, n), rng.normal(1, 1, n)])
    y = np.sin(2 * np.pi * x[:, 0]) + 0.8 * x[:, 1] + rng.normal(0, 0.2, n)
    table = ObservationTable(
        y=y, x=x, mask=np.ones(x.shape, dtype=bool), columns=("u", "w"),
        structure=ModelStructure(nonlinear=("u",), linear=("w",)),
    )
    fit = fit_prime(table)
    grid = np.linspace(0.01, 0.99, 199)
    truth = np.sin(2 * np.pi * grid)
    g = estimate_g(fit, "u", grid)
    # identification centers both curves; compare after aligning means
    err = np.abs((g - g.mean()) - (truth - truth.mean()))
    assert err.max() < 0.15


def test_fit_prime_uses_all_rows():
    table = make_blockwise_table(n=60)
    fit = fit_prime(table)
    assert fit.diagnostics.n_rows == 60
    assert fit.diagnostics.n_complete == 12
    assert np.all(np.isfinite(coef_vector(fit)))


def test_fit_cc_insufficient_rows(pattern_table):
    # only two complete rows against an 18-column design
    with pytest.raises(InsufficientCompleteCases):
        fit_cc(pattern_table)


def test_underdetermined_full_fit():
    rng = np.random.default_rng(17)
    table = make_random_table(rng, n=8, p=2, q=1, missing_rate=0.0)
    with pytest.raises(Underdetermined):
        fit_prime(table)


def test_mean_impute_equals_prime_on_prefilled():
    table = make_blockwise_table(n=60)
    fit_mi = fit_mean_impute(table)
    means = np.array([
        table.x[table.mask[:, k], k].mean() for k in range(8)
    ])
    filled = np.where(table.mask, table.x, means)
    prefilled = ObservationTable(
        y=table.y, x=filled, mask=np.ones(filled.shape, dtype=bool),
        columns=table.columns, structure=table.structure,
    )
    fit_pre = fit_prime(prefilled)
    assert_allclose(coef_vector(fit_mi), coef_vector(fit_pre), atol=1e-12)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    table = make_random_table(rng, n=60, p=2, q=2, missing_rate=0.2)
    fit = fit_prime(table)
    path = tmp_path / "model.fit"
    save_fit(fit, path)
    back = load_fit(path)
    rows = np.column_stack([
        rng.uniform(0.2, 0.8, (9, 2)), rng.normal(0, 1, (9, 2))
    ])
    assert_allclose(predict(back, rows), predict(fit, rows), atol=1e-15)
    assert back.spec.degree == fit.spec.degree
    assert back.columns == fit.columns
    assert back.diagnostics.rank == fit.diagnostics.rank
    # deserialized fit saves back byte-identically
    second = tmp_path / "again.fit"
    save_fit(back, second)
    assert path.read_bytes() == second.read_bytes()


def test_load_fit_rejects_corrupt(tmp_path):
    rng = np.random.default_rng(19)
    table = make_random_table(rng, n=60, p=2, q=2, missing_rate=0.1)
    fit = fit_prime(table)
    path = tmp_path / "model.fit"
    save_fit(fit, path)

    blob = json.loads(path.read_text())
    blob["format"] = "something.else"
    bad = tmp_path / "bad.fit"
    bad.write_text(json.dumps(blob))
    with pytest.raises(BadFitFile):
        load_fit(bad)

    blob = json.loads(path.read_text())
    blob["version"] = 99
    bad.write_text(json.dumps(blob))
    with pytest.raises(BadFitFile):
        load_fit(bad)

    bad.write_text("not json")
    with pytest.raises(BadFitFile):
        load_fit(bad)


def test_objective_optimality():
    rng = np.random.default_rng(20)
    table = make_random_table(rng, n=70, p=2, q=2, missing_rate=0.25)
    fit = fit_prime(table)
    normalized, _ = minmax_normalize(table)
    pattern = build_pattern_index(normalized)
    design = assemble_design(normalized, pattern, fit.spec, fit.kernel_config)
    coef = coef_vector(fit)
    base = np.sum((table.y - design.matrix @ coef) ** 2)
    for _ in range(20):
        delta = rng.normal(0, 0.05, coef.size)
        rss = np.sum((table.y - design.matrix @ (coef + delta)) ** 2)
        assert rss >= base - 1e-9


def test_row_permutation_invariance():
    rng = np.random.default_rng(21)
    table = make_random_table(rng, n=50, p=2, q=2, missing_rate=0.25)
    perm = rng.permutation(table.n)
    shuffled = ObservationTable(
        table.y[perm], table.x[perm], table.mask[perm], table.columns,
        table.structure,
    )
    a = fit_prime(table)
    b = fit_prime(shuffled)
    assert_allclose(coef_vector(a), coef_vector(b), atol=1e-9)
