"""Shared builders for the test suite.

The ten-row blockwise-missing table mirrors the layout used across the
kernel and fitting tests: two complete rows, then four two-row groups
sharing a missing pattern, giving four distinct incomplete patterns.
"""

import numpy as np
import pytest

from primeplm import ModelStructure, ObservationTable
from primeplm.kernel_impute import impute
from primeplm.spline import basis_matrix

COLUMNS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8")
STRUCTURE = ModelStructure(
    nonlinear=("x1", "x2", "x3"),
    linear=("x4", "x5", "x6", "x7", "x8"),
)

PATTERN_ROWS = (
    (),
    (),
    (2, 5, 6, 7),
    (2, 5, 6, 7),
    (3, 5),
    (3, 5),
    (3,),
    (3,),
    (1, 2, 4),
    (1, 2, 4),
)


def make_pattern_table(seed: int = 12345) -> ObservationTable:
    rng = np.random.default_rng(seed)
    n = len(PATTERN_ROWS)
    x = np.empty((n, 8))
    x[:, :3] = rng.uniform(0.0, 1.0, size=(n, 3))
    x[:, 3:] = rng.normal(1.0, 1.0, size=(n, 5))
    mask = np.ones((n, 8), dtype=bool)
    for i, missing in enumerate(PATTERN_ROWS):
        mask[i, list(missing)] = False
    y = rng.normal(0.0, 1.0, size=n)
    return ObservationTable(
        y=y, x=np.where(mask, x, np.nan), mask=mask, columns=COLUMNS,
        structure=STRUCTURE,
    )


def make_random_table(
    rng: np.random.Generator,
    n: int = 40,
    p: int = 2,
    q: int = 2,
    missing_rate: float = 0.25,
) -> ObservationTable:
    """Random table with arbitrary (non-blockwise) missingness.

    Every column keeps at least two observed values and the first two rows
    stay complete so normalization and donor lookups never degenerate.
    """
    cols = tuple(f"c{k}" for k in range(p + q))
    structure = ModelStructure(nonlinear=cols[:p], linear=cols[p:])
    x = np.empty((n, p + q))
    x[:, :p] = rng.uniform(0.0, 1.0, size=(n, p))
    x[:, p:] = rng.normal(0.0, 2.0, size=(n, q))
    mask = rng.uniform(size=(n, p + q)) >= missing_rate
    mask[:2] = True
    for k in range(p + q):
        if mask[:, k].sum() < 2:
            mask[:2, k] = True
    y = rng.normal(size=n)
    return ObservationTable(
        y=y, x=np.where(mask, x, np.nan), mask=mask, columns=cols,
        structure=structure,
    )


def make_blockwise_table(n: int = 60, seed: int = 6) -> ObservationTable:
    """Larger table cycling through the fixture's four missing patterns."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, 8))
    x[:, :3] = rng.uniform(0.0, 1.0, size=(n, 3))
    x[:, 3:] = rng.normal(1.0, 1.0, size=(n, 5))
    mask = np.ones((n, 8), dtype=bool)
    for i in range(n):
        mask[i, list(PATTERN_ROWS[i % len(PATTERN_ROWS)])] = False
    y = (
        np.sin(2 * np.pi * x[:, 0])
        + np.sin(np.pi * x[:, 1])
        + 0.5 * x[:, 2] ** 3
        + x[:, 3] - 1.5 * x[:, 4] + x[:, 5] - 1.2 * x[:, 6] + 0.4 * x[:, 7]
        + rng.normal(0.0, 0.5, size=n)
    )
    return ObservationTable(
        y=y, x=np.where(mask, x, np.nan), mask=mask, columns=COLUMNS,
        structure=STRUCTURE,
    )


def imputed_columns(table, pattern, config, spec=None):
    """Every column of the table filled by one ``impute`` call, the way
    assemble_design fills them: (n, L) basis rows for nonlinear columns
    when ``spec`` is given, (n, 1) values for the other columns."""
    values = {}
    for pos, name in enumerate(table.columns):
        observed = table.mask[:, pos]
        if spec is not None and name in table.structure.nonlinear:
            values[pos] = np.zeros((table.n, spec.basis_size))
            values[pos][observed] = basis_matrix(spec, table.x[observed, pos])
        else:
            values[pos] = np.array(table.x[:, pos : pos + 1])
    impute(table, pattern, config, {pos: (v,) for pos, v in values.items()})
    return values


@pytest.fixture
def pattern_table() -> ObservationTable:
    return make_pattern_table()
