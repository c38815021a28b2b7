import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import BSpline
from scipy.special import comb

from primeplm.errors import (
    InsufficientData,
    InvalidDegree,
    OutOfDomain,
)
from primeplm.dataset import ModelStructure, ObservationTable, build_pattern_index
from primeplm.kernel_impute import KernelConfig
from primeplm.prime_fit import assemble_design
from primeplm.spline import SplineSpec, basis_matrix, make_spec
from reference_spline import basis_matrix as column_layout_basis


def bernstein_row(x: float, d: int = 3) -> np.ndarray:
    """With no interior knots the basis reduces to Bernstein polynomials."""
    ls = np.arange(d + 1)
    return comb(d, ls) * x**ls * (1.0 - x) ** (d - ls)


def test_make_spec_default():
    spec = make_spec()
    assert spec.degree == 3
    assert spec.interior_knots == ()
    assert spec.basis_size == 4
    assert_array_equal(spec.knot_vector, [0, 0, 0, 0, 1, 1, 1, 1])


def test_make_spec_uniform_interior():
    spec = make_spec(3, 2)
    assert_allclose(spec.interior_knots, [1 / 3, 2 / 3])
    assert spec.basis_size == 6
    assert len(spec.knot_vector) == 10


def test_make_spec_degree_one():
    spec = make_spec(1, 0)
    assert spec.basis_size == 2
    assert_array_equal(spec.knot_vector, [0, 0, 1, 1])


def test_make_spec_quantile():
    data = np.concatenate([np.linspace(0, 0.2, 50), np.linspace(0.8, 1, 50)])
    spec = make_spec(3, 1, placement="quantile", data=data)
    assert spec.interior_knots == (pytest.approx(np.quantile(data, 0.5)),)
    with pytest.raises(InsufficientData):
        make_spec(3, 1, placement="quantile")
    with pytest.raises(InsufficientData):
        make_spec(3, 3, placement="quantile", data=np.full(50, 0.5))


def test_make_spec_quantile_needs_enough_points():
    with pytest.raises(InsufficientData, match="need at least 6 observations for 4"):
        make_spec(3, 4, "quantile", data=[0.2, 0.3])


def test_make_spec_invalid():
    with pytest.raises(InvalidDegree):
        make_spec(0, 0)
    with pytest.raises(InvalidDegree):
        make_spec(3, -1)
    with pytest.raises(InvalidDegree):
        make_spec(3, 0, placement="magic")
    assert SplineSpec(np.int64(2), ()).basis_size == 3
    for degree in (2.5, 3.0, "3", True):
        with pytest.raises(InvalidDegree, match="integer"):
            SplineSpec(degree, ())


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_spec(3, 2.5), id="fractional-knot-count"),
    pytest.param(lambda: make_spec(3, True), id="bool-knot-count"),
    pytest.param(lambda: make_spec(3, "2"), id="string-knot-count"),
    pytest.param(lambda: SplineSpec(3, None), id="no-knots"),
    pytest.param(lambda: SplineSpec(3, (0.5, "a")), id="non-numeric-knot"),
    pytest.param(lambda: SplineSpec(3, ("0.5",)), id="string-knot"),
])
def test_bad_spline_settings_raise_invalid_degree(build):
    # 2.5 and True used to build 3 and 1 knots; the others escaped as a
    # bare TypeError or ValueError, or read "0.5" as a number
    with pytest.raises(InvalidDegree):
        build()


def test_bernstein_values_at_half():
    spec = make_spec()
    assert_allclose(basis_matrix(spec, [0.5])[0], [0.125, 0.375, 0.375, 0.125], atol=1e-15)
    x = np.linspace(0, 1, 101)
    B = basis_matrix(spec, x)
    expected = np.array([bernstein_row(v) for v in x])
    assert_allclose(B, expected, atol=1e-12)


def test_boundary_rows():
    for degree, interior in [(1, 0), (2, 1), (3, 0), (3, 4)]:
        spec = make_spec(degree, interior)
        first = basis_matrix(spec, [0.0])[0]
        last = basis_matrix(spec, [1.0])[0]
        assert first[0] == 1.0 and np.all(first[1:] == 0.0)
        assert last[-1] == 1.0 and np.all(last[:-1] == 0.0)


def test_partition_of_unity_bulk():
    rng = np.random.default_rng(11)
    for degree in (1, 2, 3, 4):
        for interior in (0, 1, 3, 7):
            spec = make_spec(degree, interior)
            x = rng.uniform(0, 1, size=2500)
            B = basis_matrix(spec, x)
            assert np.all(B >= 0.0) and np.all(B <= 1.0 + 1e-12)
            assert_allclose(B.sum(axis=1), 1.0, atol=1e-10)


@settings(deadline=None, max_examples=200)
@given(
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    degree=st.integers(min_value=1, max_value=5),
    interior=st.integers(min_value=0, max_value=6),
)
def test_partition_of_unity_hypothesis(x, degree, interior):
    spec = make_spec(degree, interior)
    row = basis_matrix(spec, [x])[0]
    assert row.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(row >= 0.0)


def test_matches_scipy_design_matrix():
    rng = np.random.default_rng(5)
    for degree in (1, 2, 3, 4):
        for interior in (0, 2, 5):
            spec = make_spec(degree, interior)
            x = np.concatenate([rng.uniform(0, 1, 400), [0.0, 1.0], spec.interior_knots])
            ours = basis_matrix(spec, x)
            theirs = BSpline.design_matrix(
                x, np.asarray(spec.knot_vector), degree, extrapolate=False
            ).toarray()
            assert_allclose(ours, theirs, atol=1e-12)


def test_local_support():
    spec = make_spec(3, 4)
    t = np.asarray(spec.knot_vector)
    x = np.linspace(0, 1, 801)
    B = basis_matrix(spec, x)
    for l in range(spec.basis_size):
        lo, hi = t[l], t[l + spec.degree + 1]
        outside = (x < lo - 1e-12) | (x > hi + 1e-12)
        assert np.all(B[outside, l] == 0.0)


def test_greville_linear_reproduction():
    for degree in (1, 2, 3, 4):
        for interior in (0, 3, 6):
            spec = make_spec(degree, interior)
            t = np.asarray(spec.knot_vector)
            greville = np.array([
                t[l + 1 : l + degree + 1].mean() for l in range(spec.basis_size)
            ])
            x = np.linspace(0, 1, 257)
            B = basis_matrix(spec, x)
            assert_allclose(B @ greville, x, atol=1e-10)


def test_out_of_domain():
    spec = make_spec()
    with pytest.raises(OutOfDomain):
        basis_matrix(spec, [-0.1])[0]
    with pytest.raises(OutOfDomain):
        basis_matrix(spec, np.array([0.2, 1.1]))
    with pytest.raises(OutOfDomain):
        basis_matrix(spec, np.array([0.2, np.nan]))


def test_spline_spec_validates_its_knots():
    spec = SplineSpec(2, [0.25, 0.5])
    assert spec.interior_knots == (0.25, 0.5)
    assert_array_equal(spec.knot_vector, [0, 0, 0, 0.25, 0.5, 1, 1, 1])
    assert spec.basis_size == 5
    for degree, knots in [
        (0, ()), (3, (0.5, 0.5)), (3, (0.6, 0.4)), (3, (0.0,)), (3, (1.0,)),
        (3, (0.3, 1.7)), (3, (-0.2,)), (3, (float("nan"),)),
    ]:
        with pytest.raises(InvalidDegree):
            SplineSpec(degree, knots)


def test_centered_columns_mean_zero():
    # assemble_design centres each basis block at its observed-row means
    rng = np.random.default_rng(2)
    spec = make_spec(3, 2)
    x = rng.uniform(0, 1, (50, 1))
    table = ObservationTable(
        y=rng.normal(size=50), x=x, mask=np.ones(x.shape, dtype=bool),
        columns=("u",), structure=ModelStructure(nonlinear=("u",), linear=()),
    )
    design = assemble_design(table, build_pattern_index(table), spec, KernelConfig())
    assert_allclose(design.centering_means[0], basis_matrix(spec, x[:, 0]).mean(axis=0))
    assert_allclose(design.matrix[:, 1:].mean(axis=0), 0.0, atol=1e-14)


@settings(deadline=None, max_examples=200)
@given(
    degree=st.integers(1, 5),
    n_interior=st.integers(0, 7),
    placement=st.sampled_from(["uniform", "quantile"]),
    shape=st.sampled_from(["1-d", "0-d", "2-d", "empty"]),
    npts=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_basis_matches_the_column_layout_oracle_bit_for_bit(
    degree, n_interior, placement, shape, npts, seed
):
    rng = np.random.default_rng(seed)
    spec = make_spec(degree, n_interior, placement, data=rng.uniform(size=200))
    # both ends, each knot and its neighbours on either side, then random points
    knots = np.array(spec.interior_knots)
    x = np.concatenate([
        [0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
        knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
        rng.uniform(size=npts),
    ])
    rng.shuffle(x)
    x = {"1-d": x, "0-d": np.asarray(x[0]), "2-d": x[: x.size // 2 * 2].reshape(2, -1),
         "empty": np.empty(0)}[shape]
    got = basis_matrix(spec, x)
    want = column_layout_basis(spec, x)
    assert got.shape == (np.size(x), spec.basis_size)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
