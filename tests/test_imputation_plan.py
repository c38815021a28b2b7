"""ImputationPlan against a direct per-cell Nadaraya-Watson formula.

The oracle below is written from the estimator's definition, one missing
cell at a time: donors are the rows observing everything the unit observes
plus the missing column; a donor's log-weight is the sum over observed
columns of log K(diff / h_c) - log h_c (product kernel), or the mean over
random directions v of log K(v.diff / h) - log h (resampled projection,
with h from Silverman's rule on the pooled projected target-row
differences of the pattern); a cell with no donor, or whose largest
log-weight is below -700, takes the mean of the observed values or basis
rows of its column.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import imputed_columns, make_random_table
from primeplm import ModelStructure, ObservationTable, build_pattern_index, make_spec
from primeplm import kernel_impute
from primeplm.errors import DegenerateSampleWarning
from primeplm.kernel_impute import (
    ImputationPlan,
    KernelConfig,
    _projected_sd,
    draw_directions,
)
from primeplm.prime_fit import assemble_design
from primeplm.spline import basis_matrix

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
SPEC = make_spec()


def silverman(values, n):
    """(h, degenerate) by 1.06 * sd * n**-0.2, sd 0 falling back to 1."""
    sd = values.std(ddof=1) if values.size >= 2 else 0.0
    degenerate = not (np.isfinite(sd) and sd > 0.0)
    return 1.06 * (1.0 if degenerate else sd) * n ** -0.2, degenerate


def pooled_projected_differences(x, mask, i, directions):
    """(x_e - x_t) . v over every unit t sharing unit i's pattern, every other
    row e observing that pattern's columns, and every direction v."""
    cond = np.flatnonzero(mask[i])
    targets = np.flatnonzero((mask == mask[i]).all(axis=1))
    rows = np.flatnonzero(mask[:, cond].all(axis=1))
    diffs = [
        (x[e, cond] - x[t, cond]) @ directions.T for t in targets for e in rows if e != t
    ]
    return np.concatenate(diffs) if diffs else np.empty(0)


def direct_imputation(table, config, spec):
    """Every missing cell by the direct formula, in assemble_design's column
    order.  Returns (values by cell, no-donor counts, underflow counts,
    degenerate-bandwidth counts)."""
    x, mask, n = table.x, table.mask, table.n
    names = table.columns
    no_donor, underflow, degenerate = Counter(), Counter(), Counter()
    column_h = {}

    def column_bandwidth(c):
        if c not in column_h:
            if config.bandwidth == "fixed":
                column_h[c] = config.fixed_h[c]
            else:
                column_h[c], bad = silverman(x[mask[:, c], c], n)
                if bad:
                    degenerate[names[c]] += 1
        return column_h[c]

    pattern_h = {}
    values = {}
    order = [table.position(c) for c in table.structure.nonlinear + table.structure.linear]
    for j in order:
        nonlinear = names[j] in table.structure.nonlinear
        observed = x[mask[:, j], j]
        fallback = basis_matrix(spec, observed).mean(axis=0) if nonlinear else observed.mean()
        for i in np.flatnonzero(~mask[:, j]):
            cond = np.flatnonzero(mask[i])
            donors = np.flatnonzero(mask[:, j] & mask[:, cond].all(axis=1))
            if donors.size == 0:
                no_donor[names[j]] += 1
                values[i, j] = fallback
                continue
            diff = x[np.ix_(donors, cond)] - x[i, cond]
            if config.projection == "resampled" and cond.size > config.projection_threshold:
                seed = np.random.SeedSequence(
                    [config.seed, kernel_impute._DIRECTION_TAG, *cond.tolist()]
                )
                v = draw_directions(
                    cond.size, config.n_projections, config.projection_dist, seed
                )
                key = cond.tobytes()
                if key not in pattern_h:
                    pooled = pooled_projected_differences(x, mask, i, v)
                    pattern_h[key], bad = silverman(pooled, n)
                    if bad:
                        degenerate["pattern:" + ",".join(names[c] for c in cond)] += 1
                h = pattern_h[key]
                s = diff @ v.T / h
                logw = (-0.5 * s * s - HALF_LOG_2PI - math.log(h)).mean(axis=1)
            else:
                h = np.array([column_bandwidth(c) for c in cond])
                u = diff / h
                logw = (-0.5 * u * u - HALF_LOG_2PI - np.log(h)).sum(axis=1)
            if logw.max() < -700.0:
                underflow[names[j]] += 1
                values[i, j] = fallback
                continue
            w = np.exp(logw - logw.max())
            w /= w.sum()
            donor_values = x[donors, j]
            values[i, j] = w @ (basis_matrix(spec, donor_values) if nonlinear else donor_values)
    return values, no_donor, underflow, degenerate


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


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_assemble_design_matches_direct_formula(data):
    table = data.draw(tables())
    config = data.draw(configs(len(table.columns)))
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
    # moderate scaled distances keep the product form, yet every log-weight
    # is below -700 once the per-target offset -|u_t|^2 / 2 is counted
    x = np.array([[0.0, np.nan], [0.9, 5.0], [1.0, 9.0]])
    table = ObservationTable(
        y=np.zeros(3), x=x, mask=~np.isnan(x), columns=("a", "b"),
        structure=ModelStructure(nonlinear=("a",), linear=("b",)),
    )
    plan = ImputationPlan(table, build_pattern_index(table),
                          KernelConfig(bandwidth="fixed", fixed_h=(0.02, 1.0)))
    assert plan._kernel(plan._patterns[table.mask[0].tobytes()]).product
    values = {1: (np.array(x[:, 1:]),)}
    plan.impute(values)
    assert values[1][0][0, 0] == pytest.approx(7.0)
    assert plan.diagnostics.underflow_fallbacks == Counter({"b": 1})


def test_cell_weights_match_direct_formula():
    rng = np.random.default_rng(8)
    table = make_random_table(rng, n=60, p=2, q=3, missing_rate=0.3)
    pattern = build_pattern_index(table)
    config = KernelConfig(projection="resampled", n_projections=2, projection_threshold=2)
    plan = ImputationPlan(table, pattern, config)
    want, *_ = direct_imputation(table, config, SPEC)
    checked = 0
    for (i, j), value in want.items():
        if table.columns[j] in table.structure.nonlinear:
            continue
        donors, w = plan.cell_weights(i, j)
        got = table.x[table.mask[:, j], j].mean() if w is None else w @ table.x[donors, j]
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
    plan = ImputationPlan(table, pattern, config)
    checked = 0
    for pp in plan._patterns.values():
        if pp.cond.size <= 2:
            continue
        seed = np.random.SeedSequence([4, kernel_impute._DIRECTION_TAG, *pp.cond.tolist()])
        directions = draw_directions(pp.cond.size, 2, "standard_normal", seed)
        proj = (directions[:, :, None] * table.x[np.ix_(pp.rows, pp.cond)].T).sum(axis=1)
        pooled = pooled_projected_differences(table.x, table.mask, pp.targets[0], directions)
        want = silverman(pooled, table.n)[0]
        assert plan._pattern_projected_h(pp, proj) == pytest.approx(want, rel=1e-12)
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
    plan = ImputationPlan(table, build_pattern_index(table), config)
    values = {3: (np.array(table.x[:, 3:4]),)}
    with pytest.warns(DegenerateSampleWarning, match="pattern:a,b,c"):
        plan.impute(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the plan keeps the bandwidth: no second warning
        donors, w = plan.cell_weights(2, 3)
    assert plan.diagnostics.degenerate_bandwidths == Counter({"pattern:a,b,c": 1})
    pp = plan._patterns[table.mask[2].tobytes()]
    assert plan._projected_h[id(pp)] == pytest.approx(1.06 * 4 ** -0.2)
    pooled = pooled_projected_differences(x, table.mask, 2, np.ones((2, 3)))
    assert pooled.size == 12 and pooled.std() == 0.0
    # every donor sits at the target, so weights are uniform
    assert_allclose(w, [0.5, 0.5])
    assert_allclose(values[3][0][2:, 0], [1.5, 1.5])


@pytest.mark.parametrize(
    "config",
    [
        KernelConfig(),
        KernelConfig(projection="resampled", n_projections=2, projection_threshold=2, seed=9),
        KernelConfig(bandwidth="fixed", fixed_h=(1e-3,) * 8),  # column-by-column form
    ],
    ids=["product", "resampled", "tiny-fixed-h"],
)
@pytest.mark.parametrize("block", [1, 37])
def test_chunked_design_is_bit_identical(monkeypatch, config, block):
    rng = np.random.default_rng(31)
    table = make_random_table(rng, n=300, p=3, q=5, missing_rate=0.15)
    pattern = build_pattern_index(table)
    whole = assemble_design(table, pattern, SPEC, config)
    monkeypatch.setattr(kernel_impute, "_BLOCK_ELEMENTS", block)
    chunked = assemble_design(table, pattern, SPEC, config)
    assert np.array_equal(whole.matrix, chunked.matrix)
    assert whole.imputation == chunked.imputation


def test_single_cell_entry_points_agree_with_the_plan():
    rng = np.random.default_rng(2)
    table = make_random_table(rng, n=50, p=2, q=2, missing_rate=0.3)
    pattern = build_pattern_index(table)
    config = KernelConfig(seed=1)
    values = imputed_columns(table, pattern, config, SPEC)
    for i, j in np.argwhere(~table.mask)[:40]:
        if table.columns[j] in table.structure.nonlinear:
            got = kernel_impute.impute_basis_row(i, j, SPEC, table, pattern, config)
        else:
            got = kernel_impute.impute_linear_value(i, j, table, pattern, config)
        assert np.array_equal(np.atleast_1d(got), values[j][i])
