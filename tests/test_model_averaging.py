import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_blockwise_table
from primeplm import (
    ModelStructure,
    ObservationTable,
    fit_prime,
    fit_prime_ma,
    make_spec,
)
from primeplm.errors import (
    DegenerateColumn,
    InsufficientCompleteCases,
    LengthMismatch,
    SingularGram,
)
from primeplm.kernel_impute import KernelConfig
from primeplm.model_averaging import (
    _residuals_and_leverages,
    _simplex_qp,
    build_candidates,
    build_cv_matrix,
    cc_design,
    cv_weights,
    predict_averaged,
)
from primeplm.spline import basis_matrix
from reference_kernel import delete_one_residuals


def loo_residuals(G, y):
    """Leave-one-out residuals by the hat-diagonal shortcut build_cv_matrix
    uses: least squares residuals divided by 1 - leverage."""
    resid, h = _residuals_and_leverages(G, y)
    return resid / (1.0 - h)


def complete_table(rng, n=40, k=4):
    cols = tuple(f"c{i}" for i in range(k))
    x = np.column_stack([
        rng.uniform(0, 1, (n, 1)),
        rng.normal(0, 1, (n, k - 1)),
    ])
    y = np.sin(2 * np.pi * x[:, 0]) + x[:, 1:] @ np.arange(1.0, k) + rng.normal(0, 0.3, n)
    return ObservationTable(
        y=y, x=x, mask=np.ones(x.shape, dtype=bool), columns=cols,
        structure=ModelStructure(nonlinear=cols[:1], linear=cols[1:]),
    )


def grid_search_objective(Q, step=1e-3):
    """Exhaustive 3-candidate simplex scan; returns the best objective."""
    g = np.arange(0.0, 1.0 + step / 2, step)
    w1, w2 = np.meshgrid(g, g, indexing="ij")
    keep = w1 + w2 <= 1.0 + 1e-12
    w1, w2 = w1[keep], w2[keep]
    w3 = 1.0 - w1 - w2
    obj = (
        Q[0, 0] * w1**2 + Q[1, 1] * w2**2 + Q[2, 2] * w3**2
        + 2 * Q[0, 1] * w1 * w2 + 2 * Q[0, 2] * w1 * w3 + 2 * Q[1, 2] * w2 * w3
    )
    return float(obj.min())


def test_build_candidates():
    cands = build_candidates(("a", "b", "c"))
    assert [c.nonlinear for c in cands] == [("a",), ("b",), ("c",)]
    for c in cands:
        assert isinstance(c, ModelStructure)
        assert c.nonlinear[0] not in c.linear
        assert set(c.linear) == {"a", "b", "c"} - set(c.nonlinear)
    # linear columns keep the original table order
    assert cands[1].linear == ("a", "c")


def test_cc_design_shape_and_rank():
    rng = np.random.default_rng(1)
    table = complete_table(rng, n=30, k=4)
    spec = make_spec()
    cands = build_candidates(table.columns)
    G = cc_design(table, cands[0], spec, np.arange(30))
    # uncentered basis block (4 columns) plus the three other covariates
    assert G.shape == (30, spec.basis_size + 3)
    assert np.linalg.matrix_rank(G) == G.shape[1]
    # basis block rows sum to one, so a constant lies in the column span
    assert_allclose(G[:, : spec.basis_size].sum(axis=1), 1.0, atol=1e-12)


def test_cc_design_uses_complete_rows_only():
    table = make_blockwise_table(n=60)
    spec = make_spec()
    cands = build_candidates(table.columns)
    rows = np.flatnonzero(table.mask.all(axis=1))
    G = cc_design(table, cands[0], spec, rows)
    assert G.shape == (12, spec.basis_size + 7)
    assert np.all(np.isfinite(G))
    # the stack of its pieces, bit for bit
    vals = table.x[rows, 0]
    block = basis_matrix(spec, (vals - vals.min()) / (vals.max() - vals.min()))
    want = np.hstack([block, table.x[rows, 1:]])
    assert np.array_equal(G.view(np.uint64), want.view(np.uint64))


def test_residuals_and_leverages_from_one_qr():
    rng = np.random.default_rng(8)
    G, y = rng.normal(size=(50, 5)), rng.normal(size=50)
    q, _ = np.linalg.qr(G, mode="reduced")
    resid, h = _residuals_and_leverages(G, y)
    assert np.array_equal(resid.view(np.uint64), (y - q @ (q.T @ y)).view(np.uint64))
    assert np.array_equal(h.view(np.uint64), (q * q).sum(axis=1).view(np.uint64))


def test_hat_diag_examples():
    # an intercept-only design gives every unit leverage 1/n
    ones = np.ones((4, 1))
    y = np.array([1.0, 2.0, 4.0, 9.0])
    assert_allclose(loo_residuals(ones, y), (y - y.mean()) / (1.0 - 0.25), atol=1e-14)

    rng = np.random.default_rng(2)
    G = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    hat = G @ np.linalg.solve(G.T @ G, G.T)
    expected = (y - hat @ y) / (1.0 - np.diag(hat))
    assert_allclose(loo_residuals(G, y), expected, atol=1e-10)

    with pytest.raises(SingularGram):
        loo_residuals(np.column_stack([ones, ones]), y[:4])


def test_loo_mean_example():
    G = np.ones((3, 1))
    y = np.array([1.0, 2.0, 3.0])
    assert_allclose(loo_residuals(G, y), [-1.5, 0.0, 1.5], atol=1e-12)


def test_loo_matches_delete_one_refit():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, k = rng.integers(10, 31), rng.integers(1, 7)
        G = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        got = loo_residuals(G, y)
        assert_allclose(got, delete_one_residuals(G, y, range(n)), rtol=0, atol=1e-8)


def test_qp_closed_form_examples():
    assert_array_equal(_simplex_qp(np.array([[2.0]])), [1.0])
    assert_allclose(_simplex_qp(np.diag([1.0, 4.0])), [0.8, 0.2], atol=1e-6)
    assert_allclose(_simplex_qp(np.eye(2)), [0.5, 0.5], atol=1e-10)
    assert_allclose(
        _simplex_qp(np.diag([1.0, 4.0, 9.0])),
        np.array([36.0, 9.0, 4.0]) / 49.0,
        atol=1e-6,
    )


def test_cv_weights_forms_gram_from_residuals():
    # residual columns with squared norms (1, 4) act like Q = diag(1, 4)
    E = np.diag([1.0, 2.0])
    assert_allclose(cv_weights(E), [0.8, 0.2], atol=1e-6)


def test_cv_weights_without_candidates_raises_length_mismatch():
    with pytest.raises(LengthMismatch, match="candidate"):
        cv_weights(np.zeros((5, 0)))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 6))
def test_cv_weights_feasible_and_improving(seed, k):
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(k + 2, k))
    Q = E.T @ E
    w = cv_weights(E)
    assert np.all(w >= -1e-10)
    assert abs(w.sum() - 1.0) <= 1e-10
    uniform = np.full(k, 1.0 / k)
    assert w @ Q @ w <= uniform @ Q @ uniform + 1e-12


def test_qp_matches_grid_search():
    rng = np.random.default_rng(5)
    for _ in range(4):
        A = rng.normal(size=(6, 3))
        Q = A.T @ A + 1e-6 * np.eye(3)
        w = _simplex_qp(Q)
        assert w @ Q @ w <= grid_search_objective(Q) + 5e-3


def test_build_cv_matrix_consistency():
    rng = np.random.default_rng(6)
    table = complete_table(rng, n=35, k=4)
    spec = make_spec()
    cands = build_candidates(table.columns)
    cv = build_cv_matrix(table, cands, spec)
    assert cv.matrix.shape == (35, 4)
    assert cv.dropped.size == 0
    assert list(cv.candidates) == list(table.columns)
    assert_array_equal(cv.rows, np.arange(35))
    for k, cand in enumerate(cands):
        G = cc_design(table, cand, spec, cv.rows)
        assert_allclose(cv.matrix[:, k], loo_residuals(G, table.y), atol=1e-12)


def two_factorization_cv(table, candidates, spec):
    """The CV matrix from two factorizations per candidate: a QR for the
    leverages and an SVD least squares solve for the residuals.  The solve
    runs on G with unit-norm columns: that spans the same space, and a spline
    column with little support can make cond(G) ~ 1e8 where the scaled
    design's is ~ 20, and y - G @ coef loses that many digits.  Returns
    (matrix, leverages of the kept units, kept rows, dropped rows)."""
    parts = []
    rows = np.flatnonzero(table.mask.all(axis=1))
    for candidate in candidates:
        G = cc_design(table, candidate, spec, rows)
        y = table.y[rows]
        q, r = np.linalg.qr(G, mode="reduced")
        d = np.abs(np.diag(r))
        if d.min() <= 1e-10 * d.max():
            raise SingularGram("numerically singular")
        Gs = G / np.linalg.norm(G, axis=0)
        coef, *_ = scipy.linalg.lstsq(Gs, y)
        parts.append((y - Gs @ coef, (q * q).sum(axis=1)))
    keep = np.logical_and.reduce([h < 1.0 - 1e-8 for _, h in parts])
    if not keep.any():
        raise InsufficientCompleteCases("every complete case has leverage ~ 1")
    matrix = np.column_stack([resid[keep] / (1.0 - h[keep]) for resid, h in parts])
    leverages = np.column_stack([h[keep] for _, h in parts])
    return matrix, leverages, rows[keep], rows[~keep]


def outlier_table(seed, n, k, missing_rate, outlier):
    """c0 uniform, the rest normal.  With ``outlier`` the largest c0 value
    (row 0, always complete) sits far above the others, so under cubic
    splines with knots at 1/3 and 2/3 it is the only unit in the support
    of the last basis function and has leverage 1 in candidate c0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    x[:, 0] = rng.uniform(0, 1, n)
    if outlier:
        x[:, 0] *= 0.6
        x[0, 0] = 1.0
    mask = rng.random((n, k)) >= missing_rate
    mask[0] = True
    y = np.sin(2 * np.pi * x[:, 0]) + x[:, 1:].sum(axis=1) + rng.normal(0, 0.3, n)
    cols = tuple(f"c{i}" for i in range(k))
    return ObservationTable(
        y=y, x=np.where(mask, x, np.nan), mask=mask, columns=cols,
        structure=ModelStructure(nonlinear=cols[:1], linear=cols[1:]),
    )


def assert_cv_matches_two_factorizations(table, spec):
    candidates = build_candidates(table.columns)
    try:
        want, h, rows, dropped = two_factorization_cv(table, candidates, spec)
    except (SingularGram, InsufficientCompleteCases, DegenerateColumn) as err:
        with pytest.raises(type(err)):
            build_cv_matrix(table, candidates, spec)
        return None
    cv = build_cv_matrix(table, candidates, spec)
    assert_array_equal(cv.rows, rows)
    assert_array_equal(cv.dropped, dropped)
    # Both formulas share the leverages and divide a residual of size
    # (1 - h) * e by 1 - h, so a rounding-level residual difference grows
    # by 1 / (1 - h) in either; compare with that common factor taken out.
    assert np.abs((cv.matrix - want) * (1.0 - h)).max() <= 1e-12 * np.abs(want).max()
    return cv, want


def test_build_cv_matrix_drops_the_leverage_one_unit():
    table = outlier_table(seed=11, n=60, k=3, missing_rate=0.1, outlier=True)
    cv, want = assert_cv_matches_two_factorizations(table, make_spec(3, 2))
    assert_array_equal(cv.dropped, [0])
    assert np.abs(cv.matrix - want).max() <= 1e-12 * np.abs(want).max()
    assert "dropped 1 high-leverage" in " ".join(fit_prime_ma(table, make_spec(3, 2)).notes)


@settings(deadline=None, max_examples=150)
# cond(G) ~ 7e7 for candidate c0, ~ 20 once its columns are scaled.
@example(seed=392420, n=12, k=2, knots=2, missing_rate=0.05, outlier=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=12, max_value=120),
    k=st.integers(min_value=2, max_value=5),
    knots=st.integers(min_value=0, max_value=2),
    missing_rate=st.sampled_from([0.0, 0.05, 0.15]),
    outlier=st.booleans(),
)
def test_build_cv_matrix_matches_two_factorizations(seed, n, k, knots, missing_rate, outlier):
    table = outlier_table(seed, n, k, missing_rate, outlier)
    assert_cv_matches_two_factorizations(table, make_spec(3, knots))


def test_build_cv_matrix_insufficient():
    rng = np.random.default_rng(7)
    table = complete_table(rng, n=6, k=4)
    with pytest.raises(InsufficientCompleteCases):
        build_cv_matrix(table, build_candidates(table.columns), make_spec())


def test_predict_averaged_degenerate_and_mixture():
    rng = np.random.default_rng(8)
    table = complete_table(rng, n=40, k=3)
    spec = make_spec()
    config = KernelConfig()
    cands = build_candidates(table.columns)
    fits = [
        fit_prime(ObservationTable(table.y, table.x, table.mask, table.columns, c), spec, config)
        for c in cands
    ]
    rows = table.x[:7]

    e0 = np.zeros(3)
    e0[0] = 1.0
    from primeplm import predict

    assert_allclose(
        predict_averaged(fits, e0, rows), predict(fits[0], rows), atol=1e-12
    )
    w = np.array([0.5, 0.25, 0.25])
    stack = np.column_stack([predict(f, rows) for f in fits])
    assert_allclose(predict_averaged(fits, w, rows), stack @ w, atol=1e-12)
    lo, hi = stack.min(axis=1), stack.max(axis=1)
    avg = predict_averaged(fits, w, rows)
    assert np.all(avg >= lo - 1e-10) and np.all(avg <= hi + 1e-10)
    with pytest.raises(LengthMismatch):
        predict_averaged(fits, np.array([0.5, 0.5]), rows)


def test_predict_averaged_without_fits_raises_length_mismatch():
    with pytest.raises(LengthMismatch, match="no fits"):
        predict_averaged((), np.array([]), np.zeros((3, 2)))


def test_fit_prime_ma_complete_data():
    rng = np.random.default_rng(9)
    table = complete_table(rng, n=60, k=4)
    avg = fit_prime_ma(table)
    assert avg.candidates == table.columns
    assert len(avg.fits) == 4
    assert not avg.uniform_fallback
    assert avg.n_complete == 60 and avg.n_dropped == 0
    assert np.all(avg.weights >= -1e-10)
    assert avg.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.isfinite(avg.objective)
    assert avg.predict(table.x[:5]).shape == (5,)


def test_fit_prime_ma_weights_find_the_nonlinear_column():
    rng = np.random.default_rng(10)
    n = 300
    x = np.column_stack([
        rng.uniform(0, 1, (n, 1)), rng.normal(0, 1, (n, 3))
    ])
    y = np.sin(2 * np.pi * x[:, 0]) + 0.2 * x[:, 1:].sum(axis=1) + rng.normal(0, 0.2, n)
    table = ObservationTable(
        y=y, x=x, mask=np.ones(x.shape, dtype=bool),
        columns=("c0", "c1", "c2", "c3"),
        structure=ModelStructure(nonlinear=("c0",), linear=("c1", "c2", "c3")),
    )
    avg = fit_prime_ma(table)
    assert avg.candidates[int(np.argmax(avg.weights))] == "c0"
    assert avg.weights.max() > 0.5


def test_fit_prime_ma_uniform_fallback():
    table = make_blockwise_table(n=50)  # 10 complete rows < 12 needed
    avg = fit_prime_ma(table)
    assert avg.uniform_fallback
    assert_allclose(avg.weights, np.full(8, 1.0 / 8.0), atol=1e-15)
    assert any("uniform" in note for note in avg.notes)
    assert avg.predict(np.where(table.mask, table.x, 0.5)[:3]).shape == (3,)


def test_fit_prime_ma_on_incomplete_table():
    table = make_blockwise_table(n=120)  # 24 complete rows
    avg = fit_prime_ma(table)
    assert not avg.uniform_fallback
    assert avg.n_complete == 24
    assert avg.weights.sum() == pytest.approx(1.0, abs=1e-10)
    grid = np.where(table.mask, table.x, 1.0)[:10]
    assert np.all(np.isfinite(avg.predict(grid)))
