import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import imputed_columns, make_pattern_table, make_random_table
from primeplm import ModelStructure, ObservationTable, build_pattern_index, make_spec
from primeplm.errors import DegenerateSampleWarning, InvalidConfig
from primeplm.kernel_impute import KernelConfig, draw_directions, impute
from primeplm.spline import basis_matrix
from reference_kernel import (
    imputed_weights,
    product_kernel_weight,
    projected_kernel_weight,
    silverman,
)


def two_column_table(a, b):
    """Rows over columns (a nonlinear, b linear); NaN marks a missing cell."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.column_stack([a, b])
    mask = ~np.isnan(x)
    return ObservationTable(
        y=np.zeros(len(a)), x=x, mask=mask, columns=("a", "b"),
        structure=ModelStructure(nonlinear=("a",), linear=("b",)),
    )


def missing_cells(table, names):
    """(i, j) of every missing cell among the named columns, row by row."""
    columns = [table.position(c) for c in names]
    return [(i, j) for i in range(table.n) for j in columns if not table.mask[i, j]]


def impute_column(table, config, j):
    """Column j alone filled by one ``impute`` call over the table, with
    its fallback counts."""
    column = np.array(table.x[:, j : j + 1])
    diagnostics = impute(table, build_pattern_index(table), config, {j: (column,)})
    return column[:, 0], diagnostics


def test_silverman_examples():
    root = 1.0 / math.sqrt(2.0)
    assert silverman(np.array([-root, root]), 32) == (pytest.approx(0.53), False)
    assert silverman(np.array([-2 * root, 2 * root]), 32) == (pytest.approx(1.06), False)


def test_silverman_degenerate_fallback():
    h, degenerate = silverman(np.full(5, 3.3), 32)
    assert degenerate
    assert h == pytest.approx(1.06 / 2.0)


def test_product_kernel_values():
    assert product_kernel_weight(np.zeros(2), np.ones(2)) == pytest.approx(
        1.0 / (2.0 * math.pi)
    )
    # single coordinate: phi(d/h)/h
    d, h = 0.3, 0.5
    expected = math.exp(-0.5 * (d / h) ** 2) / (math.sqrt(2 * math.pi) * h)
    assert product_kernel_weight(np.array([d]), np.array([h])) == pytest.approx(
        expected, rel=1e-14
    )


@settings(deadline=None)
@given(
    d=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    scale=st.floats(0.1, 3.0),
)
def test_product_kernel_symmetry(d, scale):
    d = np.asarray(d)
    h = np.full(d.size, scale)
    w_pos = product_kernel_weight(d, h)
    w_neg = product_kernel_weight(-d, h)
    assert w_pos == pytest.approx(w_neg, rel=1e-12)
    assert w_pos <= product_kernel_weight(np.zeros_like(d), h) + 1e-15


def test_product_kernel_monotone_in_distance():
    h = np.array([0.7])
    weights = [
        product_kernel_weight(np.array([d]), h) for d in (0.0, 0.3, 0.9, 2.4, 8.0)
    ]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_product_kernel_extreme_distances():
    w = product_kernel_weight(np.full(3, 1e6), np.ones(3))
    assert w == 0.0  # underflows cleanly, never raises


def test_projected_reduces_to_product():
    d = np.array([0.4])
    h = 0.7
    direction = np.array([[1.0]])
    assert projected_kernel_weight(d, direction, h) == pytest.approx(
        product_kernel_weight(d, np.array([h])), rel=1e-14
    )
    flipped = projected_kernel_weight(d, -direction, h)
    assert flipped == pytest.approx(projected_kernel_weight(d, direction, h), rel=1e-14)


def test_projected_identical_directions_idempotent():
    d = np.array([0.3, -0.6])
    v = np.array([0.8, 0.2])
    single = projected_kernel_weight(d, v[None, :], 0.9)
    stacked = projected_kernel_weight(d, np.tile(v, (4, 1)), 0.9)
    assert stacked == pytest.approx(single, rel=1e-12)


def test_projected_geometric_mean_oracle():
    d = np.array([0.25, -0.4, 0.1])
    dirs = np.array([[0.3, -1.2, 0.5], [0.9, 0.4, -0.7]])
    h = 0.6
    logs = []
    for v in dirs:
        s = float(d @ v)
        logs.append(-0.5 * (s / h) ** 2 - math.log(math.sqrt(2 * math.pi) * h))
    expected = math.exp(sum(logs) / len(logs))
    assert projected_kernel_weight(d, dirs, h) == pytest.approx(expected, rel=1e-12)


def test_draw_directions_shapes_and_determinism():
    a = draw_directions(5, 3, "standard_normal", 42)
    b = draw_directions(5, 3, "standard_normal", 42)
    assert a.shape == (3, 5)
    assert_array_equal(a, b)
    c = draw_directions(5, 3, "standard_normal", 43)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("m, n_projections", [(2.5, 2), (3, True)],
                         ids=["fractional-size", "bool-count"])
def test_draw_directions_rejects_bad_arguments(m, n_projections):
    # each used to escape as a bare TypeError
    with pytest.raises(InvalidConfig):
        draw_directions(m, n_projections, "standard_normal", 0)


def test_draw_directions_moments():
    z = draw_directions(4, 250_000, "standard_normal", 1).ravel()
    assert abs(z.mean()) < 5e-3
    assert abs(z.var() - 1.0) < 1e-2
    u = draw_directions(4, 250_000, "scaled_uniform", 1).ravel()
    assert np.all(np.abs(u) <= math.sqrt(3.0) + 1e-12)
    assert abs(u.mean()) < 5e-3
    assert abs(u.var() - 1.0) < 1e-2


def test_donor_sets_on_pattern_fixture():
    table = make_pattern_table()

    def donors(i, j):
        return np.flatnonzero(imputed_weights(table, KernelConfig(), j)[i])

    # row 2 misses column 2 and conditions on {0, 1, 3, 4}; only the two
    # complete rows observe that superset
    assert_array_equal(donors(2, 2), [0, 1])
    # row 6 misses only column 3: donors observe {0,1,2,4,5,6,7} + {3}
    assert_array_equal(donors(6, 3), [0, 1])
    # row 8 misses {1,2,4}: conditioning set {0,3,5,6,7}; rows 2-7 all lack
    # column 3 or 5, row 9 lacks the target column, so only the complete
    # rows qualify
    assert_array_equal(donors(8, 1), [0, 1])
    for donor in donors(8, 1):
        assert table.mask[donor, 1]
        assert table.mask[donor, [0, 3, 5, 6, 7]].all()


def test_nw_linear_micro_oracle():
    table = two_column_table(
        a=[0.2, 0.1, 0.5, 0.35], b=[np.nan, 5.0, 7.0, -1.0]
    )
    pattern = build_pattern_index(table)
    config = KernelConfig(bandwidth="fixed", fixed_h=(0.25, 1.0))
    got = imputed_columns(table, pattern, config)[1][0, 0]
    ws = [math.exp(-0.5 * ((v - 0.2) / 0.25) ** 2) for v in (0.1, 0.5, 0.35)]
    expected = sum(w * b for w, b in zip(ws, (5.0, 7.0, -1.0))) / sum(ws)
    assert got == pytest.approx(expected, abs=1e-12)


def test_nw_basis_row_micro_oracle():
    spec = make_spec()
    table = two_column_table(
        a=[np.nan, 0.15, 0.6, 0.8], b=[2.0, 1.0, 3.0, 4.0]
    )
    pattern = build_pattern_index(table)
    config = KernelConfig(bandwidth="fixed", fixed_h=(1.0, 0.5))
    got = imputed_columns(table, pattern, config, spec)[0][0]
    ws = np.array([math.exp(-0.5 * ((b - 2.0) / 0.5) ** 2) for b in (1.0, 3.0, 4.0)])
    rows = basis_matrix(spec, np.array([0.15, 0.6, 0.8]))
    expected = (ws[:, None] * rows).sum(axis=0) / ws.sum()
    assert_allclose(got, expected, atol=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_bandwidth_limit_behaviour():
    table = two_column_table(
        a=[0.2, 0.1, 0.5, 0.35], b=[np.nan, 5.0, 7.0, -1.0]
    )
    pattern = build_pattern_index(table)
    wide = KernelConfig(bandwidth="fixed", fixed_h=(1e6, 1.0))
    assert imputed_columns(table, pattern, wide)[1][0, 0] == pytest.approx(
        (5.0 + 7.0 - 1.0) / 3.0, abs=1e-6
    )
    # vanishing bandwidth: a donor exactly matching the conditioning value
    # keeps a finite max log-weight, so the estimate collapses onto it
    exact = two_column_table(
        a=[0.2, 0.2, 0.5, 0.35], b=[np.nan, 5.0, 7.0, -1.0]
    )
    pattern_e = build_pattern_index(exact)
    narrow = KernelConfig(bandwidth="fixed", fixed_h=(1e-6, 1.0))
    assert imputed_columns(exact, pattern_e, narrow)[1][0, 0] == pytest.approx(
        5.0, abs=1e-9
    )


def test_no_donor_fallback_uses_observed_mean():
    # row 0 conditions on column a, but no other row observes both columns
    table = two_column_table(
        a=[0.2, np.nan, np.nan], b=[np.nan, 5.0, 9.0]
    )
    got, diags = impute_column(table, KernelConfig(), 1)
    assert got[0] == pytest.approx(7.0)
    assert diags.no_donor_fallbacks["b"] == 1
    assert diags.total_fallbacks == 1


def test_underflow_fallback_counted():
    table = two_column_table(
        a=[0.0, 100.0, 200.0], b=[np.nan, 5.0, 9.0]
    )
    config = KernelConfig(bandwidth="fixed", fixed_h=(1e-3, 1.0))
    got, diags = impute_column(table, config, 1)
    assert got[0] == pytest.approx(7.0)
    assert diags.underflow_fallbacks["b"] == 1


def test_degenerate_column_bandwidth_warns_and_counts():
    table = two_column_table(
        a=[0.5, 0.5, 0.5, 0.5], b=[np.nan, 5.0, 7.0, -1.0]
    )
    with pytest.warns(DegenerateSampleWarning):
        _, diags = impute_column(table, KernelConfig(), 1)
    assert diags.degenerate_bandwidths["a"] == 1


def test_convex_hull_property_bulk():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(15):
        table = make_random_table(rng, n=50, p=2, q=3, missing_rate=0.2)
        pattern = build_pattern_index(table)
        config = KernelConfig(seed=7)
        values = imputed_columns(table, pattern, config)
        linear = [table.position(c) for c in table.structure.linear]
        weights = {j: imputed_weights(table, config, j) for j in linear}
        for i, j in missing_cells(table, table.structure.linear):
            # a fallback cell weighs every observed row
            pool = table.x[weights[j][i] > 0, j]
            value = values[j][i, 0]
            assert pool.min() - 1e-12 <= value <= pool.max() + 1e-12
            checked += 1
    assert checked > 300


def test_basis_rows_sum_to_one_bulk():
    rng = np.random.default_rng(123)
    spec = make_spec(3, 1)
    for _ in range(6):
        table = make_random_table(rng, n=40, p=3, q=2, missing_rate=0.25)
        pattern = build_pattern_index(table)
        values = imputed_columns(table, pattern, KernelConfig(), spec)
        for i, j in missing_cells(table, table.structure.nonlinear):
            row = values[j][i]
            assert row.shape == (spec.basis_size,)
            assert np.all(row >= -1e-12)
            assert row.sum() == pytest.approx(1.0, abs=1e-9)


def test_row_permutation_invariance():
    rng = np.random.default_rng(17)
    table = make_random_table(rng, n=30, p=2, q=2, missing_rate=0.3)
    pattern = build_pattern_index(table)
    perm = rng.permutation(table.n)
    shuffled = ObservationTable(
        table.y[perm], table.x[perm], table.mask[perm], table.columns,
        table.structure,
    )
    pattern_s = build_pattern_index(shuffled)
    config = KernelConfig()
    inverse = np.argsort(perm)
    values = imputed_columns(table, pattern, config)
    values_s = imputed_columns(shuffled, pattern_s, config)
    for i, j in missing_cells(table, table.structure.linear):
        a = values[j][i, 0]
        b = values_s[j][inverse[i], 0]
        assert a == pytest.approx(b, abs=1e-12)


def test_projection_threshold_gates_resampling():
    rng = np.random.default_rng(4)
    table = make_random_table(rng, n=60, p=3, q=4, missing_rate=0.2)
    pattern = build_pattern_index(table)
    plain, gated, active = (
        imputed_columns(table, pattern, config)
        for config in (
            KernelConfig(),
            KernelConfig(projection="resampled", n_projections=2,
                         projection_threshold=99, seed=3),
            KernelConfig(projection="resampled", n_projections=2,
                         projection_threshold=2, seed=3),
        )
    )
    saw_difference = False
    for i, j in missing_cells(table, table.structure.linear):
        a = plain[j][i, 0]
        assert a == pytest.approx(gated[j][i, 0], abs=1e-12)
        if table.mask[i].sum() > 2:
            saw_difference = saw_difference or abs(a - active[j][i, 0]) > 1e-9
    assert saw_difference


def test_projection_requires_fewer_directions_than_coords():
    table = two_column_table(a=[0.2, 0.3, 0.8], b=[np.nan, 5.0, 7.0])
    pattern = build_pattern_index(table)
    config = KernelConfig(projection="resampled", n_projections=2,
                          projection_threshold=0)
    with pytest.raises(InvalidConfig):
        imputed_columns(table, pattern, config)


def test_fixed_rule_needs_a_bandwidth():
    with pytest.raises(InvalidConfig, match="fixed bandwidth rule requires fixed_h"):
        KernelConfig(bandwidth="fixed", fixed_h=())


def test_kernel_config_validation():
    with pytest.raises(InvalidConfig):
        KernelConfig(bandwidth="magic")
    with pytest.raises(InvalidConfig):
        KernelConfig(bandwidth="fixed")
    with pytest.raises(InvalidConfig):
        KernelConfig(bandwidth="fixed", fixed_h=(0.0, 1.0))
    for h in (math.nan, math.inf):
        with pytest.raises(InvalidConfig, match="finite and positive"):
            KernelConfig(bandwidth="fixed", fixed_h=(0.5, h))
    # a non-sequence, or a non-real entry, is a configuration error too
    for fixed_h in (0.5, "0.5", None):
        with pytest.raises(InvalidConfig, match="fixed_h must be a sequence|requires fixed_h"):
            KernelConfig(bandwidth="fixed", fixed_h=fixed_h)
    for fixed_h in (("abc",), (None,), (True, 0.5), [0.5, 1j]):
        with pytest.raises(InvalidConfig, match="must be real numbers"):
            KernelConfig(bandwidth="fixed", fixed_h=fixed_h)
    for fixed_h in ([0.5, 1], np.array([0.5, 2.0]), (np.float32(0.5), np.int64(3))):
        assert KernelConfig(bandwidth="fixed", fixed_h=fixed_h).fixed_h == tuple(
            float(h) for h in fixed_h
        )
    for projection in ("none", "resampled"):
        with pytest.raises(InvalidConfig, match="seed"):
            KernelConfig(projection=projection, seed=-1)
    for projection in ("none", "resampled"):
        with pytest.raises(InvalidConfig, match="n_projections must be >= 1"):
            KernelConfig(projection=projection, n_projections=0)
    # fixed_h means nothing under the silverman rule, so none is accepted there
    for fixed_h in ((0.5, 0.5), (-1.0,), "abc", ()):
        with pytest.raises(InvalidConfig, match="fixed_h needs the fixed bandwidth rule"):
            KernelConfig(bandwidth="silverman", fixed_h=fixed_h)
    # counts and seed are integers, numpy's included, but not bools
    KernelConfig(n_projections=np.int32(2), projection_threshold=np.int64(3), seed=np.uint8(4))
    for field, value in (("seed", 1.5), ("seed", True), ("projection_threshold", 2.0),
                         ("n_projections", "two")):
        with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
            KernelConfig(**{field: value})
    with pytest.raises(InvalidConfig):
        KernelConfig(projection="resampled", projection_dist="bimodal")
    with pytest.raises(InvalidConfig, match="fixed_h needs 2 entries"):
        table = two_column_table(a=[0.1, 0.2], b=[1.0, 2.0])
        pattern = build_pattern_index(table)
        impute(table, pattern, KernelConfig(bandwidth="fixed", fixed_h=(1.0,)), {})
