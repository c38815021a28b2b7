"""``solve_least_squares`` against scipy's ``lstsq``, bit for bit.

Both call LAPACK ``gelsd``, but each through its own OpenBLAS build, so the
identity is empirical: this test is what pins it.  The designs are random
tall matrices, rank-deficient ones (a duplicated column, a zero column) and
the centered partition-of-unity blocks that ``_designs`` builds, whose rows
sum to zero within each block.  numpy hands LAPACK a Fortran-ordered copy
of whatever it is given, so a C and an F copy of one design solve alike.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_table
from primeplm import assemble_design, build_pattern_index, make_spec, minmax_normalize
from primeplm.kernel_impute import KernelConfig
from primeplm.prime_fit import _RCOND, FitDiagnostics, solve_least_squares


def random_design(rng, kind, n, k):
    matrix = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
    if kind == "duplicated" and k > 1:
        i, j = rng.choice(k, size=2, replace=False)
        matrix[:, j] = matrix[:, i]
    if kind == "zero":
        matrix[:, rng.integers(k)] = 0.0
    return matrix


def fit_design(rng, knots):
    table = make_random_table(rng, n=int(rng.integers(30, 120)), missing_rate=0.25)
    _, nmap = minmax_normalize(table)
    config = KernelConfig(bandwidth="silverman")
    return assemble_design(table, build_pattern_index(table), make_spec(3, knots), config, nmap).matrix


def assert_matches_scipy(matrix, y):
    diag = FitDiagnostics()
    got = solve_least_squares(matrix, y, diag)
    coef, _, rank, sv = scipy.linalg.lstsq(matrix, y, cond=_RCOND)
    assert np.array_equal(got, coef)
    assert diag.rank == rank
    assert diag.rank_deficient == (rank < matrix.shape[1])
    want = float(sv[0] / sv[rank - 1]) if rank >= 1 else float("inf")
    assert diag.condition_estimate == want
    return diag


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["full", "duplicated", "zero"]),
    k=st.integers(1, 24),
    extra_rows=st.integers(0, 400),
)
def test_random_designs_match_scipy(seed, kind, k, extra_rows):
    rng = np.random.default_rng(seed)
    matrix = random_design(rng, kind, k + extra_rows, k)
    assert_matches_scipy(matrix, rng.normal(size=matrix.shape[0]))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), knots=st.integers(0, 2))
def test_imputed_designs_match_scipy(seed, knots):
    rng = np.random.default_rng(seed)
    matrix = fit_design(rng, knots)
    # one structural null per centered basis block
    assert assert_matches_scipy(matrix, rng.normal(size=matrix.shape[0])).rank_deficient


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["full", "duplicated", "zero", "imputed"]),
    k=st.integers(1, 24),
    extra_rows=st.integers(0, 400),
)
def test_c_and_fortran_copies_solve_alike(seed, kind, k, extra_rows):
    rng = np.random.default_rng(seed)
    if kind == "imputed":
        matrix = fit_design(rng, k % 3)
    else:
        matrix = random_design(rng, kind, k + extra_rows, k)
    y = rng.normal(size=matrix.shape[0])
    c_diag, f_diag = FitDiagnostics(), FitDiagnostics()
    c_coef = solve_least_squares(np.ascontiguousarray(matrix), y, c_diag)
    f_coef = solve_least_squares(np.asfortranarray(matrix), y, f_diag)
    assert np.array_equal(c_coef.view(np.uint64), f_coef.view(np.uint64))
    assert c_diag == f_diag
