"""kernel_impute.impute against the direct per-cell Nadaraya-Watson formula
of reference_kernel, on hypothesis tables and on hand-built edge cases, and
bit for bit against reference_kernel's per-(pattern, column) loop."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import make_random_table
from primeplm import ModelStructure, ObservationTable, build_pattern_index, make_spec
from primeplm import kernel_impute, prime_fit
from primeplm.errors import DegenerateSampleWarning
from primeplm.kernel_impute import ImputationDiagnostics, KernelConfig, _projected_sd, impute
from primeplm.prime_fit import assemble_design, fit_prime
from primeplm.spline import basis_matrix
from reference_kernel import (
    direct_imputation,
    imputed_weights,
    pattern_directions,
    per_column_impute,
    pooled_projected_differences,
    silverman,
)

SPEC = make_spec()


def pattern_rows(table, targets):
    """(cond, rows) of the pattern of ``targets``: the columns it observes
    and every row observing all of them, ascending."""
    cond = np.flatnonzero(table.mask[targets[0]])
    return cond, np.flatnonzero(table.mask[:, cond].all(axis=1))


def kernel(table, config, targets):
    """kernel_impute._kernel of the pattern of ``targets``, with fresh
    bandwidths and counters."""
    cond, rows = pattern_rows(table, targets)
    xt = np.ascontiguousarray(table.x.T)
    return kernel_impute._kernel(table, config, xt, cond, rows, targets, {},
                                 ImputationDiagnostics())


def design_value(table, design, i, j, spec):
    name = table.columns[j]
    if name in table.structure.nonlinear:
        k = table.structure.nonlinear.index(name)
        at = design.labels.index(f"{name}:b1")
        return design.matrix[i, at : at + spec.basis_size] + design.centering_means[k]
    return design.matrix[i, design.labels.index(name)]


@st.composite
def tables(draw):
    """Small tables, nonlinear columns on [0, 1]; discrete values give ties,
    constant columns and duplicate rows, and a high missing rate gives cells
    without donors."""
    p = draw(st.integers(1, 2))
    q = draw(st.integers(1, 3))
    n = draw(st.integers(3, 18))
    if draw(st.booleans()):
        level = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        nl = lin = level
    else:
        nl = st.floats(0.0, 1.0)
        lin = st.floats(-3.0, 3.0)
    x = np.column_stack([
        draw(arrays(np.float64, n, elements=nl if k < p else lin)) for k in range(p + q)
    ])
    mask = draw(arrays(np.bool_, (n, p + q)))
    for k in range(p + q):  # every column observed somewhere
        mask[k % n, k] = True
    cols = tuple(f"c{k}" for k in range(p + q))
    return ObservationTable(
        y=np.zeros(n), x=np.where(mask, x, np.nan), mask=mask, columns=cols,
        structure=ModelStructure(nonlinear=cols[:p], linear=cols[p:]),
    )


@st.composite
def configs(draw, width):
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        # tiny bandwidths force underflow fallbacks
        fixed = draw(st.lists(st.sampled_from([1e-3, 0.05, 0.3, 2.0]),
                              min_size=width, max_size=width))
        kw = dict(bandwidth="fixed", fixed_h=tuple(fixed))
    else:
        kw = dict(bandwidth="silverman")
    if draw(st.booleans()):
        b = draw(st.integers(1, 2))
        kw.update(projection="resampled", n_projections=b, projection_threshold=b,
                  projection_dist=draw(st.sampled_from(["standard_normal", "scaled_uniform"])))
    return KernelConfig(seed=seed, **kw)


def assemble_with_warnings(table, config, spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        design = assemble_design(table, build_pattern_index(table), spec, config)
    messages = [str(w.message) for w in caught if issubclass(w.category, DegenerateSampleWarning)]
    return design, messages


def check_direct_formula(table, config):
    design, messages = assemble_with_warnings(table, config, SPEC)
    want, no_donor, underflow, degenerate = direct_imputation(table, config, SPEC)

    for (i, j), value in want.items():
        assert_allclose(design_value(table, design, i, j, SPEC), value, rtol=0, atol=1e-9)
    diag = design.imputation
    assert diag.no_donor_fallbacks == no_donor
    assert diag.underflow_fallbacks == underflow
    assert diag.degenerate_bandwidths == degenerate
    # one warning per degenerate column or pattern
    assert len(messages) == sum(degenerate.values())
    for label in degenerate:
        needle = label if label.startswith("pattern:") else repr(label)
        assert sum(needle + ", falling back" in message for message in messages) == 1


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_assemble_design_matches_direct_formula(data):
    table = data.draw(tables())
    check_direct_formula(table, data.draw(configs(len(table.columns))))


def test_tiny_coordinate_vanishes_from_the_projections_as_in_the_kernel():
    # 1.4e-45 next to 1.0 is lost once a row is projected, so every row of
    # the pattern (c1, c2, c3) projects alike and its bandwidth is degenerate;
    # projecting the differences instead would keep it
    x = np.array([[0.0, 0.0, 1.0, 1.4e-45], [np.nan, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    cols = ("c0", "c1", "c2", "c3")
    table = ObservationTable(
        y=np.zeros(3), x=x, mask=~np.isnan(x), columns=cols,
        structure=ModelStructure(nonlinear=cols[:1], linear=cols[1:]),
    )
    config = KernelConfig(projection="resampled", n_projections=1, projection_threshold=1, seed=0)
    check_direct_formula(table, config)
    assert direct_imputation(table, config, SPEC)[3] == Counter({"pattern:c1,c2,c3": 1})


def test_forced_underflow_and_no_donor_cells_match_direct_formula():
    # no complete rows, so wide patterns lack donors
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.uniform(0, 1, (40, 2)), rng.normal(0, 2, (40, 3))])
    mask = rng.uniform(size=x.shape) >= 0.45
    mask[mask.all(axis=1), 0] = False
    cols = ("c0", "c1", "c2", "c3", "c4")
    table = ObservationTable(
        y=np.zeros(40), x=np.where(mask, x, np.nan), mask=mask, columns=cols,
        structure=ModelStructure(nonlinear=cols[:2], linear=cols[2:]),
    )
    seen = Counter()
    for config in (
        KernelConfig(bandwidth="fixed", fixed_h=(1e-4,) * 5),
        KernelConfig(bandwidth="fixed", fixed_h=(1e-4,) * 5, projection="resampled",
                     n_projections=1, projection_threshold=1, seed=3),
    ):
        design, _ = assemble_with_warnings(table, config, SPEC)
        want, no_donor, underflow, _ = direct_imputation(table, config, SPEC)
        for (i, j), value in want.items():
            assert_allclose(design_value(table, design, i, j, SPEC), value, rtol=0, atol=1e-9)
        assert design.imputation.no_donor_fallbacks == no_donor
        assert design.imputation.underflow_fallbacks == underflow
        seen.update(no_donor=sum(no_donor.values()), underflow=sum(underflow.values()))
    assert seen["no_donor"] > 0 and seen["underflow"] > 0


def test_underflow_rule_uses_absolute_log_weights():
    # the nearest donor is the row maximum, yet its absolute log-weight
    # const - |u_t - u_d|^2 is below -700
    x = np.array([[0.0, np.nan], [0.9, 5.0], [1.0, 9.0]])
    table = ObservationTable(
        y=np.zeros(3), x=x, mask=~np.isnan(x), columns=("a", "b"),
        structure=ModelStructure(nonlinear=("a",), linear=("b",)),
    )
    config = KernelConfig(bandwidth="fixed", fixed_h=(0.02, 1.0))
    u, const = kernel(table, config, np.array([0]))
    logw = const - ((u[1:] - u[0]) ** 2).sum(axis=1)
    want = -0.5 * (x[1:, 0] / 0.02) ** 2 - 0.5 * np.log(2 * np.pi) - np.log(0.02)
    assert_allclose(logw, want, rtol=1e-12)
    assert logw.max() < -700
    values = {1: (np.array(x[:, 1:]),)}
    diagnostics = impute(table, build_pattern_index(table), config, values)
    assert values[1][0][0, 0] == pytest.approx(7.0)
    assert diagnostics.underflow_fallbacks == Counter({"b": 1})


def test_cell_weights_match_direct_formula():
    rng = np.random.default_rng(8)
    table = make_random_table(rng, n=60, p=2, q=3, missing_rate=0.3)
    config = KernelConfig(projection="resampled", n_projections=2, projection_threshold=2)
    want, *_ = direct_imputation(table, config, SPEC)
    linear = [table.position(c) for c in table.structure.linear]
    weights = {j: imputed_weights(table, config, j) for j in linear}
    checked = 0
    for (i, j), value in want.items():
        if table.columns[j] in table.structure.nonlinear:
            continue
        got = weights[j][i] @ np.where(table.mask[:, j], table.x[:, j], 0.0)
        assert got == pytest.approx(value, abs=1e-12)
        checked += 1
    assert checked > 30


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    directions=st.integers(1, 3),
    rows=st.integers(2, 40),
    n_targets=st.integers(1, 40),
    duplicates=st.booleans(),
)
def test_closed_form_projected_sd_matches_two_pass(seed, directions, rows, n_targets, duplicates):
    rng = np.random.default_rng(seed)
    proj = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), (directions, rows))
    if duplicates:  # repeated rows, as discrete covariates give
        proj = proj[:, rng.integers(0, max(1, rows // 3), rows)]
    targets = np.sort(rng.choice(rows, min(n_targets, rows), replace=False))
    pooled = np.concatenate(
        [proj[:, e] - proj[:, t] for t in targets for e in range(rows) if e != t]
    )
    want = pooled.std(ddof=1) if pooled.size >= 2 else 0.0
    assert _projected_sd(proj, targets) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_projected_bandwidth_matches_pooled_two_pass():
    rng = np.random.default_rng(21)
    table = make_random_table(rng, n=80, p=2, q=3, missing_rate=0.25)
    pattern = build_pattern_index(table)
    config = KernelConfig(projection="resampled", n_projections=2, projection_threshold=2,
                          seed=4)
    checked = 0
    for targets in pattern.values():
        cond, rows = pattern_rows(table, targets)
        if cond.size <= 2 or cond.size == len(table.columns):
            continue
        directions = pattern_directions(config, cond)
        proj = (directions[:, :, None] * table.x[np.ix_(rows, cond)].T).sum(axis=1)
        pooled = pooled_projected_differences(table.x, table.mask, targets[0], directions)
        want = silverman(pooled, table.n)[0]
        # the kernel's coordinates are the projections over h * sqrt(2 * directions)
        u, _ = kernel(table, config, targets)
        got = np.ptp(proj, axis=1) / np.ptp(u, axis=0) / np.sqrt(2 * len(directions))
        assert_allclose(got, want, rtol=1e-12)
        checked += 1
    assert checked >= 5


def test_degenerate_projected_bandwidth_falls_back_with_pattern_label():
    # the pattern observing (a, b, c) sees one point only: every projected
    # target-row difference is zero
    x = np.array([
        [0.5, 0.5, 0.5, 1.0],
        [0.5, 0.5, 0.5, 2.0],
        [0.5, 0.5, 0.5, np.nan],
        [0.5, 0.5, 0.5, np.nan],
    ])
    cols = ("a", "b", "c", "d")
    table = ObservationTable(
        y=np.zeros(4), x=x, mask=~np.isnan(x), columns=cols,
        structure=ModelStructure(nonlinear=(), linear=cols),
    )
    config = KernelConfig(projection="resampled", n_projections=2, projection_threshold=2)
    values = {3: (np.array(table.x[:, 3:4]),)}
    with pytest.warns(DegenerateSampleWarning, match="pattern:a,b,c"):
        diagnostics = impute(table, build_pattern_index(table), config, values)
    assert diagnostics.degenerate_bandwidths == Counter({"pattern:a,b,c": 1})
    pooled = pooled_projected_differences(x, table.mask, 2, np.ones((2, 3)))
    assert pooled.size == 12 and pooled.std() == 0.0
    # every donor sits at the target, so weights are uniform
    with pytest.warns(DegenerateSampleWarning, match="pattern:a,b,c"):
        w = imputed_weights(table, config, 3)
    assert_allclose(w[2:], [[0.5, 0.5, 0.0, 0.0]] * 2)
    assert_allclose(values[3][0][2:, 0], [1.5, 1.5])


CHUNK_CONFIGS = pytest.mark.parametrize(
    "config",
    [
        KernelConfig(),
        KernelConfig(projection="resampled", n_projections=2, projection_threshold=2, seed=9),
        KernelConfig(bandwidth="fixed", fixed_h=(1e-3,) * 8),  # every cell underflows
        KernelConfig(bandwidth="fixed", fixed_h=(0.05,) * 8),  # some cells underflow
    ],
    ids=["product", "resampled", "tiny-fixed-h", "mixed-fixed-h"],
)


@CHUNK_CONFIGS
@pytest.mark.parametrize("block", [1, 37, 1000])
def test_chunked_design_is_bit_identical(monkeypatch, config, block):
    rng = np.random.default_rng(31)
    table = make_random_table(rng, n=300, p=3, q=5, missing_rate=0.15)
    pattern = build_pattern_index(table)
    whole = assemble_design(table, pattern, SPEC, config)
    if config.fixed_h == (0.05,) * 8:
        # chunking is checked on applied kernel weights as well as on fallbacks
        underflow = sum(whole.imputation.underflow_fallbacks.values())
        assert 0 < underflow < (~table.mask).sum()
    monkeypatch.setattr(kernel_impute, "_BLOCK_ELEMENTS", block)
    chunked = assemble_design(table, pattern, SPEC, config)
    assert np.array_equal(whole.matrix, chunked.matrix)
    assert whole.imputation == chunked.imputation


def no_donor_table(rng):
    """A random 300-row table whose column c7 is observed only where c0 is
    missing: a pattern observing c0 has no donor for c7, while its other
    missing columns have donors."""
    table = make_random_table(rng, n=300, p=3, q=5, missing_rate=0.15)
    mask = table.mask.copy()
    mask[:, 7] &= ~mask[:, 0]
    x = np.where(mask, table.x, np.nan)
    return ObservationTable(y=table.y, x=x, mask=mask, columns=table.columns,
                            structure=table.structure)


def pattern_with_both_fallbacks(table, config):
    """Whether one pattern has a missing column without donors and another
    whose imputation underflows for some target."""
    for key, targets in build_pattern_index(table).items():
        values = {j: (np.array(table.x[:, j : j + 1]),) for j in range(len(table.columns))}
        diag = impute(table, {key: targets}, config, values)
        if diag.no_donor_fallbacks and diag.underflow_fallbacks:
            return True
    return False


@CHUNK_CONFIGS
@pytest.mark.parametrize("block", [1, 1000, None], ids=["1", "1000", "default"])
@pytest.mark.parametrize("make_table", [
    lambda rng: make_random_table(rng, n=300, p=3, q=5, missing_rate=0.15),
    no_donor_table,
], ids=["random", "no-donor"])
def test_impute_matches_per_column_loop_bit_for_bit(monkeypatch, config, block, make_table):
    # the per-(pattern, column) loop at its own budget is the oracle
    for seed in (31, 32, 33):
        table = make_table(np.random.default_rng(seed))
        pattern = build_pattern_index(table)
        if make_table is no_donor_table and config.fixed_h == (0.05,) * 8:
            assert pattern_with_both_fallbacks(table, config)
        with monkeypatch.context() as patch:
            patch.setattr(prime_fit, "impute", per_column_impute)
            want = assemble_design(table, pattern, SPEC, config)
        if block is not None:
            monkeypatch.setattr(kernel_impute, "_BLOCK_ELEMENTS", block)
        got = assemble_design(table, pattern, SPEC, config)
        assert np.array_equal(want.matrix, got.matrix)
        assert want.imputation == got.imputation


class CdistCalls(list):
    """The shapes of the distance blocks impute asks scipy for."""

    def __init__(self, monkeypatch):
        super().__init__()
        from scipy.spatial import distance

        real = distance.cdist

        def cdist(a, b, metric):
            block = real(a, b, metric)
            self.append(block.shape)
            return block

        monkeypatch.setattr(distance, "cdist", cdist)


@CHUNK_CONFIGS
@pytest.mark.parametrize("block", [1, 1000, None], ids=["1", "1000", "default"])
def test_one_distance_block_per_pattern_chunk(monkeypatch, config, block):
    table = no_donor_table(np.random.default_rng(31))
    pattern = build_pattern_index(table)
    if block is not None:
        monkeypatch.setattr(kernel_impute, "_BLOCK_ELEMENTS", block)
    budget = kernel_impute._BLOCK_ELEMENTS
    calls = CdistCalls(monkeypatch)
    assemble_design(table, pattern, SPEC, config)
    want, columns, partial = [], 0, False
    for targets in pattern.values():
        cond, rows = pattern_rows(table, targets)
        with_donors = [j for j in np.flatnonzero(~table.mask[targets[0]])
                       if table.mask[rows, j].any()]
        if not with_donors:
            continue
        step = max(1, budget // rows.size)
        chunks = [min(step, targets.size - at) for at in range(0, targets.size, step)]
        want += [(size, rows.size) for size in chunks]
        columns += len(with_donors) * len(chunks)
        partial |= 1 < step and 1 < len(chunks) and chunks[-1] < step
    assert sorted(calls) == sorted(want)
    assert columns > len(calls)  # the patterns' columns share their blocks
    assert all(t * r <= max(budget, r) for t, r in calls)
    # multi-target chunks, one pattern's last one partial
    assert partial == (block == 1000)


def test_pattern_without_donors_builds_no_kernel(monkeypatch):
    # rows 0-2 observe only the constant column a, whose bandwidth is
    # degenerate, and no row observes a with b or c; rows 7-9 observe only c
    # and borrow b from rows 3-6
    nan = np.nan
    x = np.array([
        [0.5, nan, nan], [0.5, nan, nan], [0.5, nan, nan],
        [nan, 1.0, 0.1], [nan, 2.0, 0.4], [nan, 3.0, 0.2], [nan, 4.0, 0.9],
        [nan, nan, 0.3], [nan, nan, 0.5], [nan, nan, 0.7],
    ])
    cols = ("a", "b", "c")
    table = ObservationTable(
        y=np.zeros(len(x)), x=x, mask=~np.isnan(x), columns=cols,
        structure=ModelStructure(nonlinear=(), linear=cols),
    )
    calls = CdistCalls(monkeypatch)
    values = {j: (np.array(x[:, j : j + 1]),) for j in range(3)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateSampleWarning)
        diagnostics = impute(table, build_pattern_index(table), KernelConfig(), values)
    assert calls == [(3, 7)]  # the pattern observing c, against rows 3-9
    assert diagnostics.no_donor_fallbacks == Counter({"a": 7, "b": 3, "c": 3})
    assert not diagnostics.degenerate_bandwidths
    for j, at in ((0, slice(3, None)), (1, slice(0, 3)), (2, slice(0, 3))):
        assert_allclose(values[j][0][at, 0], np.nanmean(x[:, j]))


def one_point_table(n_donors):
    """Columns a, b, c at 0.5 on every row, d observed as 1..n_donors on all
    rows but the last two: both the column bandwidths of a, b, c and the
    projected bandwidth of the pattern observing (a, b, c) are degenerate."""
    d = np.append(np.arange(1.0, n_donors + 1), [np.nan, np.nan])
    x = np.column_stack([np.full((d.size, 3), 0.5), d])
    cols = ("a", "b", "c", "d")
    return ObservationTable(
        y=np.arange(d.size, dtype=float), x=x, mask=~np.isnan(x), columns=cols,
        structure=ModelStructure(nonlinear=(), linear=cols),
    )


DEGENERATE = [
    (KernelConfig(), ("a", "b", "c")),
    (KernelConfig(projection="resampled", n_projections=2, projection_threshold=2),
     ("pattern:a,b,c",)),
]


@pytest.mark.parametrize("config, labels", DEGENERATE, ids=["product", "resampled"])
def test_second_impute_warns_and_counts_again(config, labels):
    # each call computes its own bandwidths and returns its own counters
    table = one_point_table(2)
    pattern = build_pattern_index(table)
    for _ in range(2):
        values = {3: (np.array(table.x[:, 3:4]),)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            diagnostics = impute(table, pattern, config, values)
        assert len(caught) == len(labels)
        for label in labels:
            needle = label if label.startswith("pattern:") else repr(label)
            assert sum(needle + ", falling back" in str(w.message) for w in caught) == 1
        assert diagnostics.degenerate_bandwidths == Counter(dict.fromkeys(labels, 1))
        assert_allclose(values[3][0][2:, 0], [1.5, 1.5])


@pytest.mark.parametrize("config, labels", DEGENERATE, ids=["product", "resampled"])
@pytest.mark.parametrize("entry", ["assemble_design", "fit_prime"])
def test_degenerate_warnings_point_at_the_caller_of_impute(config, labels, entry):
    table = one_point_table(6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "fit_prime":
            fit_prime(table, SPEC, config)
        else:
            assemble_design(table, build_pattern_index(table), SPEC, config)
    caught = [w for w in caught if issubclass(w.category, DegenerateSampleWarning)]
    assert len(caught) == len(labels)
    assert all(w.filename.endswith("prime_fit.py") for w in caught)


@pytest.mark.parametrize(
    "config",
    [
        KernelConfig(),
        KernelConfig(projection="resampled", n_projections=1, projection_threshold=1, seed=2),
        KernelConfig(bandwidth="fixed", fixed_h=(1e-6,) * 3),
    ],
    ids=["product", "resampled", "tiny-fixed-h"],
)
def test_row_without_observed_covariate_takes_observed_means(config):
    # row 0 observes nothing, so every row observing a column is its donor
    # and every donor weighs the same
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(24, 3))
    mask = rng.uniform(size=x.shape) > 0.2
    mask[0] = False
    table = ObservationTable(
        y=np.zeros(24), x=np.where(mask, x, np.nan), mask=mask, columns=("a", "b", "c"),
        structure=ModelStructure(nonlinear=("a",), linear=("b", "c")),
    )
    design = assemble_design(table, build_pattern_index(table), SPEC, config)
    want, no_donor, underflow, _ = direct_imputation(table, config, SPEC)
    means = [basis_matrix(SPEC, x[mask[:, 0], 0]).mean(axis=0)]
    means += [x[mask[:, j], j].mean() for j in (1, 2)]
    for j, mean in enumerate(means):
        got = design_value(table, design, 0, j, SPEC)
        assert_allclose(got, mean, rtol=1e-12, atol=1e-15)
        assert_allclose(got, want[0, j], rtol=0, atol=1e-12)
    # the oracle weighs row 0 by exp(0) per donor, so equal counters show
    # that it did not fall back
    assert design.imputation.no_donor_fallbacks == no_donor
    assert design.imputation.underflow_fallbacks == underflow
