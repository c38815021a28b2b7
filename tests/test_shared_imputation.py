"""fit_prime_ma's shared imputation against one fit_prime per candidate.

fit_prime_ma imputes every incomplete column once, values and basis rows
with one set of donor weights from one ``impute`` call on the raw table, and
stacks each candidate's design from those columns (``prime_fit._designs``).
Each candidate fit must equal fit_prime on the table under that candidate's
structure: the same coefficients, predictions, fallback counters and
warnings.  One ``_designs`` call for several structures must give each the
design that ``assemble_design`` gives it alone, bit for bit.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from primeplm import (
    ModelStructure,
    ObservationTable,
    assemble_design,
    build_candidates,
    build_pattern_index,
    fit_prime,
    fit_prime_ma,
    make_spec,
    predict,
    save_fit,
)
from primeplm import prime_fit
from primeplm.dataset import _observed_ranges
from primeplm.errors import DegenerateSampleWarning
from primeplm.kernel_impute import KernelConfig, impute
from primeplm.prime_fit import _designs
from primeplm.spline import basis_matrix

RTOL = 1e-12


def scaled_table(seed, n, k, missing_rate, mask=None):
    """Continuous columns on unequal raw scales; rows 0 and 1 complete
    unless ``mask`` is given."""
    rng = np.random.default_rng(seed)
    scales = rng.choice([1e-2, 1.0, 50.0], size=k)
    x = rng.normal(size=(n, k)) * scales + rng.normal(size=k) * scales
    x[:, 0] = rng.uniform(0.0, 1.0, n)
    if mask is None:
        mask = rng.random((n, k)) >= missing_rate
        mask[:2] = True
    y = np.sin(2 * np.pi * x[:, 0]) + (x[:, 1:] / scales[1:]).sum(axis=1)
    cols = tuple(f"c{i}" for i in range(k))
    table = ObservationTable(
        y=y + rng.normal(0.0, 0.3, n), x=np.where(mask, x, np.nan), mask=mask, columns=cols,
        structure=ModelStructure(nonlinear=cols[:1], linear=cols[1:]),
    )
    return table, scales


def with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught if issubclass(w.category, DegenerateSampleWarning)]


def coefs(fit):
    return np.concatenate([[fit.intercept], fit.curve_coefs.ravel(), fit.linear_coefs])


def assert_close(got, want):
    assert_allclose(got, want, rtol=0, atol=RTOL * np.abs(want).max())


def assert_candidates_match_fit_prime(table, spec, config):
    """Returns the candidate fits' fallback and warning totals."""
    avg, warned = with_warnings(fit_prime_ma, table, spec, config)
    rows = np.random.default_rng(0).uniform(
        np.nanmin(table.x, axis=0), np.nanmax(table.x, axis=0), size=(25, len(table.columns))
    )
    for candidate, fit in zip(build_candidates(table.columns), avg.fits):
        view = ObservationTable(table.y, table.x, table.mask, table.columns, candidate)
        want, want_warned = with_warnings(fit_prime, view, spec, config)
        assert fit.structure == candidate
        assert fit.normalization == want.normalization
        assert_close(coefs(fit), coefs(want))
        assert_close(fit.centering_means, want.centering_means)
        assert_close(predict(fit, rows), predict(want, rows))
        got_diag, want_diag = fit.diagnostics, want.diagnostics
        assert got_diag.imputation == want_diag.imputation
        assert (got_diag.n_complete, got_diag.rank, got_diag.notes) == (
            want_diag.n_complete, want_diag.rank, want_diag.notes
        )
        assert warned == want_warned
    return avg.fits[0].diagnostics.imputation.total_fallbacks, len(warned)


@st.composite
def configs(draw, scales):
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        # raw units: a small fraction of a column's scale forces underflow
        fractions = draw(st.lists(st.sampled_from([1e-3, 0.3, 2.0]),
                                  min_size=len(scales), max_size=len(scales)))
        kw = dict(bandwidth="fixed", fixed_h=tuple(f * s for f, s in zip(fractions, scales)))
    else:
        kw = dict(bandwidth="silverman")
    if draw(st.booleans()):
        b = draw(st.integers(1, 2))
        kw.update(projection="resampled", n_projections=b, projection_threshold=b,
                  projection_dist=draw(st.sampled_from(["standard_normal", "scaled_uniform"])))
    return KernelConfig(seed=seed, **kw)


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 60),
    k=st.integers(2, 4),
    knots=st.integers(0, 1),
    missing_rate=st.sampled_from([0.0, 0.1, 0.25, 0.4]),
    data=st.data(),
)
def test_candidate_fits_equal_fit_prime(seed, n, k, knots, missing_rate, data):
    table, scales = scaled_table(seed, n, k, missing_rate)
    config = data.draw(configs(scales))
    assert_candidates_match_fit_prime(table, make_spec(3, knots), config)


def fallback_table():
    """A table, and two kernels, under which cells fall back and bandwidths degenerate.

    Only rows 0 and 1 observe c0 and c1 together, and no row is complete:
    row 1 (pattern c0,c1) has one donor for c2 and none for c3, and under
    one projection its pooled sample is a single difference, so its
    projected bandwidth is degenerate; a tiny fixed bandwidth makes every
    log-weight of the other patterns underflow.
    """
    mask = np.random.default_rng(3).random((40, 4)) >= 0.4
    mask[mask[:, 0] & mask[:, 1], 1] = False
    mask[0] = [True, True, True, False]
    mask[1] = [True, True, False, False]
    table, scales = scaled_table(seed=3, n=40, k=4, missing_rate=None, mask=mask)
    return table, (
        KernelConfig(bandwidth="fixed", fixed_h=tuple(1e-4 * scales)),
        KernelConfig(projection="resampled", n_projections=1, projection_threshold=1, seed=3),
    )


def test_candidate_fits_equal_fit_prime_with_fallbacks_and_warnings():
    table, kernels = fallback_table()
    fallbacks, warned = 0, 0
    for config in kernels:
        got = assert_candidates_match_fit_prime(table, make_spec(), config)
        fallbacks, warned = fallbacks + got[0], warned + got[1]
    assert fallbacks > 0 and warned > 0


def assert_one_call_gives_each_structure_its_design(table, spec, config):
    """``_designs`` for the table's structure and every candidate, under the
    all-column normalization, against ``assemble_design`` on each structure
    alone; returns the shared call's counters."""
    structures = [table.structure, *build_candidates(table.columns)]
    nmap = _observed_ranges(table, table.columns)
    pattern = build_pattern_index(table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSampleWarning)
        designs = list(_designs(table, pattern, spec, config, nmap, structures)[1])
        for structure, got in zip(structures, designs, strict=True):
            view = ObservationTable(table.y, table.x, table.mask, table.columns, structure)
            want = assemble_design(view, pattern, spec, config, nmap)
            assert np.array_equal(got.matrix, want.matrix)
            assert got.labels == want.labels
            assert np.array_equal(got.centering_means, want.centering_means)
            assert got.imputation == want.imputation
    assert len({id(d.imputation) for d in designs}) == len(designs)
    return designs[0].imputation


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 60),
    k=st.integers(2, 4),
    knots=st.integers(0, 1),
    missing_rate=st.sampled_from([0.0, 0.1, 0.25, 0.4]),
    data=st.data(),
)
def test_one_designs_call_equals_assemble_design_per_structure(
    seed, n, k, knots, missing_rate, data
):
    table, scales = scaled_table(seed, n, k, missing_rate)
    config = data.draw(configs(scales))
    assert_one_call_gives_each_structure_its_design(table, make_spec(3, knots), config)


@pytest.mark.parametrize("kernel", [0, 1], ids=["tiny-fixed-h", "one-projection"])
def test_one_designs_call_equals_assemble_design_with_fallbacks(kernel):
    table, kernels = fallback_table()
    counters = assert_one_call_gives_each_structure_its_design(table, make_spec(), kernels[kernel])
    assert counters.no_donor_fallbacks["c3"] > 0
    if kernel == 0:
        assert sum(counters.underflow_fallbacks.values()) > 0
    else:
        assert counters.degenerate_bandwidths


def test_candidate_diagnostics_are_not_shared():
    table, _ = scaled_table(seed=4, n=40, k=3, missing_rate=0.3)
    avg = fit_prime_ma(table, make_spec(), KernelConfig(bandwidth="fixed", fixed_h=(1e-4,) * 3))
    counters = [fit.diagnostics.imputation for fit in avg.fits]
    before = [dict(c.underflow_fallbacks) for c in counters[1:]]
    assert before[0]
    counters[0].underflow_fallbacks["c1"] += 100
    counters[0].no_donor_fallbacks.clear()
    assert [dict(c.underflow_fallbacks) for c in counters[1:]] == before
    assert len({id(c) for c in counters}) == len(counters)


# the nested key order of a fit file
FIT_KEYS = [
    "format", "version", "columns", "structure", "spline", "kernel", "normalization",
    "intercept", "curve_coefs", "linear_coefs", "centering_means", "diagnostics",
]
KERNEL_KEYS = [
    "bandwidth", "fixed_h", "projection", "n_projections", "projection_dist",
    "projection_threshold", "seed",
]
DIAGNOSTICS_KEYS = [
    "n_rows", "n_columns", "rank", "rank_deficient", "condition_estimate", "n_complete",
    "no_donor_fallbacks", "underflow_fallbacks", "degenerate_bandwidths", "notes",
]


def assert_fit_file_layout(path, structure):
    payload = json.loads(path.read_text())
    assert list(payload) == FIT_KEYS
    assert list(payload["structure"]) == ["nonlinear", "linear"]
    assert list(payload["spline"]) == ["degree", "interior_knots"]
    assert list(payload["kernel"]) == KERNEL_KEYS
    assert list(payload["normalization"]) == list(structure.nonlinear)
    diagnostics = payload["diagnostics"]
    assert list(diagnostics) == DIAGNOSTICS_KEYS
    order = structure.nonlinear + structure.linear  # nonlinear first, then linear
    for counts in (diagnostics["no_donor_fallbacks"], diagnostics["underflow_fallbacks"]):
        assert list(counts) == [name for name in order if name in counts]


def test_candidate_fit_files_equal_fit_prime_byte_for_byte(tmp_path):
    # fallbacks in every incomplete column, so the order of the counters'
    # keys shows in the fit file
    table, scales = scaled_table(seed=4, n=40, k=4, missing_rate=0.3)
    spec, config = make_spec(), KernelConfig(bandwidth="fixed", fixed_h=tuple(1e-4 * scales))
    avg = fit_prime_ma(table, spec, config)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    for candidate, fit in zip(build_candidates(table.columns), avg.fits):
        assert len(fit.diagnostics.imputation.underflow_fallbacks) > 1
        save_fit(fit, got)
        view = ObservationTable(table.y, table.x, table.mask, table.columns, candidate)
        save_fit(fit_prime(view, spec, config), want)
        assert_fit_file_layout(got, candidate)
        assert_fit_file_layout(want, candidate)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("missing_rate, complete", [
    pytest.param(0.0, (), id="0.0"),
    pytest.param(0.25, (), id="0.25"),
    pytest.param(0.25, (0, 2), id="0.25-c0-c2-complete"),
])
def test_designs_fill_one_matrix_as_a_stack_of_their_pieces(monkeypatch, missing_rate, complete):
    # the imputed basis blocks and value columns, as impute left them
    table, _ = scaled_table(17, 40, 4, missing_rate)
    if complete:
        mask = np.array(table.mask)
        mask[:, complete] = True
        table, _ = scaled_table(17, 40, 4, missing_rate, mask=mask)
        assert not table.mask.all()
    filled = []

    def keeping(table, pattern, config, arrays):
        filled.append(arrays)
        return impute(table, pattern, config, arrays)

    monkeypatch.setattr(prime_fit, "impute", keeping)
    structures = [table.structure, *build_candidates(table.columns)]
    nmap = _observed_ranges(table, table.columns)
    spec = make_spec(3, 1)
    bases, designs = _designs(
        table, build_pattern_index(table), spec, KernelConfig(), nmap, structures
    )
    centering = {}
    for structure, got in zip(structures, designs, strict=True):
        (arrays,) = filled
        centering.update(zip(structure.nonlinear, got.centering_means))
        basis = [arrays[table.position(c)][0] for c in structure.nonlinear]
        means = [b[table.mask[:, table.position(c)]].mean(axis=0)
                 for b, c in zip(basis, structure.nonlinear)]
        want = np.hstack([
            np.ones((table.n, 1)),
            *(b - m for b, m in zip(basis, means)),
            *(arrays[table.position(c)][-1] for c in structure.linear),
        ])
        assert got.matrix.flags.f_contiguous
        assert np.array_equal(got.matrix.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got.centering_means.view(np.uint64),
                              np.reshape(means, (-1, spec.basis_size)).view(np.uint64))
    # the bases returned are the ones imputed; a complete column's equals the
    # scatter of its observed rows into zeros, and its centering mean the
    # masked mean of that scatter
    assert sorted(bases) == list(range(len(table.columns)))
    for pos, name in enumerate(table.columns):
        assert bases[pos] is arrays[pos][0]
        observed = table.mask[:, pos]
        if not observed.all():
            continue
        scattered = np.zeros((table.n, spec.basis_size))
        scattered[observed] = basis_matrix(
            spec, nmap.apply(name, table.x[observed, pos], clamp=False)
        )
        assert np.array_equal(bases[pos].view(np.uint64), scattered.view(np.uint64))
        assert np.array_equal(centering[name].view(np.uint64),
                              scattered[observed].mean(axis=0).view(np.uint64))
        assert np.array_equal(got.centering_means.view(np.uint64),
                              np.reshape(means, (-1, spec.basis_size)).view(np.uint64))
