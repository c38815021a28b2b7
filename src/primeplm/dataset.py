"""Observation tables with arbitrarily patterned missing covariates.

A table stores the response, the covariate matrix (NaN where unobserved),
the observation mask, and a structure that partitions covariate columns
into nonlinear (spline-modeled) and linear ones.  Tables are immutable
after construction; re-partitioning for candidate models shares the
underlying arrays.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from ._kv import read_kv_file, split_list
from .errors import (
    DegenerateColumn,
    MalformedCsv,
    MissingResponse,
    StructureMismatch,
    UnknownColumn,
)

__all__ = [
    "ModelStructure",
    "ObservationTable",
    "PatternIndex",
    "NormalizationMap",
    "load_structure",
    "load_csv",
    "write_csv",
    "build_pattern_index",
    "complete_case_subset",
    "minmax_normalize",
]


@dataclass(frozen=True)
class ModelStructure:
    """Ordered partition of covariate columns into nonlinear and linear."""

    nonlinear: tuple[str, ...]
    linear: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "nonlinear", tuple(self.nonlinear))
        object.__setattr__(self, "linear", tuple(self.linear))
        names = self.nonlinear + self.linear
        if len(names) == 0:
            raise StructureMismatch("structure declares no covariate columns")
        if len(set(names)) != len(names):
            raise StructureMismatch("nonlinear and linear column lists overlap")

    @property
    def p(self) -> int:
        return len(self.nonlinear)

    @property
    def q(self) -> int:
        return len(self.linear)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationTable:
    """Response y, covariates x (NaN where mask is False), and structure.

    ``columns`` fixes the physical column order of ``x``; the structure is
    any partition of those names, so candidate re-partitions reuse the data.
    """

    y: np.ndarray
    x: np.ndarray
    mask: np.ndarray
    columns: tuple[str, ...]
    structure: ModelStructure

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if y.ndim != 1 or x.ndim != 2 or mask.shape != x.shape:
            raise StructureMismatch("y must be 1-d, x 2-d, mask shaped like x")
        if x.shape[0] != y.shape[0]:
            raise StructureMismatch("x and y row counts differ")
        columns = tuple(self.columns)
        if len(columns) != x.shape[1]:
            raise StructureMismatch("column name count does not match x width")
        if len(set(columns)) != len(columns):
            raise StructureMismatch("duplicate column names")
        declared = set(self.structure.nonlinear) | set(self.structure.linear)
        if declared != set(columns):
            missing = declared - set(columns)
            extra = set(columns) - declared
            raise StructureMismatch(
                f"structure does not partition the columns "
                f"(undeclared: {sorted(extra)}, unknown: {sorted(missing)})"
            )
        if not np.all(np.isfinite(y)):
            raise MissingResponse("response contains missing or non-finite values")
        if not np.all(np.isfinite(x[mask])):
            raise MalformedCsv("observed covariate entries must be finite")
        # unobserved entries are stored as NaN and never read as values
        x = np.where(mask, x, np.nan)
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "mask", _frozen(mask))
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def position(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumn(f"no column named {name!r}") from None

    @property
    def nonlinear_pos(self) -> np.ndarray:
        return np.array([self.position(c) for c in self.structure.nonlinear], dtype=int)

    @property
    def linear_pos(self) -> np.ndarray:
        return np.array([self.position(c) for c in self.structure.linear], dtype=int)

    def with_structure(self, structure: ModelStructure) -> "ObservationTable":
        """Same data under a different nonlinear/linear partition."""
        return ObservationTable(self.y, self.x, self.mask, self.columns, structure)


@dataclass(frozen=True)
class PatternIndex:
    """Rows grouped by observation pattern.

    groups maps each distinct mask row (its bytes) to the ascending row
    indices sharing it, in order of first occurrence.
    """

    groups: dict[bytes, np.ndarray] = field(repr=False)


def build_pattern_index(table: ObservationTable) -> PatternIndex:
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(table.mask):
        groups.setdefault(row.tobytes(), []).append(i)
    return PatternIndex({k: _frozen(np.array(v, dtype=int)) for k, v in groups.items()})


def complete_case_subset(table: ObservationTable) -> np.ndarray:
    """Row indices with every covariate observed (sorted ascending)."""
    return np.flatnonzero(table.mask.all(axis=1))


@dataclass(frozen=True)
class NormalizationMap:
    """Per-column min/max of observed training values for [0, 1] scaling."""

    ranges: dict[str, tuple[float, float]]

    def apply(self, name: str, values: np.ndarray, clamp: bool = True) -> np.ndarray:
        if name not in self.ranges:
            raise UnknownColumn(f"no normalization recorded for {name!r}")
        lo, hi = self.ranges[name]
        out = (np.asarray(values, dtype=float) - lo) / (hi - lo)
        if clamp:
            out = np.clip(out, 0.0, 1.0)
        return out


def minmax_normalize(table: ObservationTable) -> tuple[ObservationTable, NormalizationMap]:
    """Rescale observed nonlinear columns onto [0, 1]; linear columns stay raw."""
    x = np.array(table.x, copy=True)
    ranges: dict[str, tuple[float, float]] = {}
    for name in table.structure.nonlinear:
        pos = table.position(name)
        observed = table.mask[:, pos]
        vals = x[observed, pos]
        if np.unique(vals).size < 2:
            raise DegenerateColumn(
                f"nonlinear column {name!r} has fewer than two distinct observed values"
            )
        lo, hi = float(vals.min()), float(vals.max())
        x[observed, pos] = (vals - lo) / (hi - lo)
        ranges[name] = (lo, hi)
    out = ObservationTable(table.y, x, table.mask, table.columns, table.structure)
    return out, NormalizationMap(ranges)


def load_structure(path: str | os.PathLike) -> tuple[ModelStructure, str]:
    """Read a structure sidecar: response, nonlinear, linear keys."""
    entries = read_kv_file(path)
    unknown = set(entries) - {"response", "nonlinear", "linear"}
    if unknown:
        raise StructureMismatch(f"unknown structure keys: {sorted(unknown)}")
    if "response" not in entries or not entries["response"]:
        raise StructureMismatch("structure file must name a response column")
    structure = ModelStructure(
        nonlinear=tuple(split_list(entries.get("nonlinear", ""))),
        linear=tuple(split_list(entries.get("linear", ""))),
    )
    return structure, entries["response"]


def _parse_cell(text: str, missing_token: str) -> float | None:
    stripped = text.strip()
    if stripped == "" or stripped == missing_token:
        return None
    try:
        return float(stripped)
    except ValueError:
        raise MalformedCsv(f"cannot parse numeric cell {text!r}") from None


def load_csv(
    path: str | os.PathLike,
    structure: ModelStructure,
    response: str = "y",
    missing_token: str = "NA",
    drop_missing_response: bool = False,
) -> ObservationTable:
    """Read a headed CSV into an ObservationTable.

    Covariate cells equal to ``missing_token`` (or empty) become missing;
    the response must be fully observed unless ``drop_missing_response``
    skips those rows.  Columns in the file that are neither the response
    nor declared in the structure are ignored.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if response not in header:
            raise MissingResponse(f"{path}: response column {response!r} not in header")
        wanted = structure.nonlinear + structure.linear
        absent = [c for c in wanted if c not in header]
        if absent:
            raise StructureMismatch(f"{path}: columns missing from header: {absent}")
        if response in wanted:
            raise StructureMismatch(f"{path}: response {response!r} also listed as covariate")
        y_at = header.index(response)
        col_at = [header.index(c) for c in wanted]

        y_rows: list[float] = []
        x_rows: list[list[float]] = []
        m_rows: list[list[bool]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedCsv(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(row)}"
                )
            try:
                y_val = _parse_cell(row[y_at], missing_token)
            except MalformedCsv as err:
                raise MalformedCsv(f"{path}:{lineno}: {err}") from None
            if y_val is None:
                if drop_missing_response:
                    continue
                raise MissingResponse(f"{path}:{lineno}: response value is missing")
            xs, ms = [], []
            for c in col_at:
                try:
                    val = _parse_cell(row[c], missing_token)
                except MalformedCsv as err:
                    raise MalformedCsv(f"{path}:{lineno}: {err}") from None
                xs.append(np.nan if val is None else val)
                ms.append(val is not None)
            y_rows.append(y_val)
            x_rows.append(xs)
            m_rows.append(ms)

    if not y_rows:
        raise MalformedCsv(f"{path}: no data rows")
    return ObservationTable(
        y=np.array(y_rows),
        x=np.array(x_rows),
        mask=np.array(m_rows),
        columns=wanted,
        structure=structure,
    )


def write_csv(
    table: ObservationTable,
    path: str | os.PathLike,
    response: str = "y",
    missing_token: str = "NA",
) -> None:
    """Inverse of load_csv; floats written with full round-trip precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([response, *table.columns])
        for i in range(table.n):
            row = [repr(float(table.y[i]))]
            for j in range(len(table.columns)):
                if table.mask[i, j]:
                    row.append(repr(float(table.x[i, j])))
                else:
                    row.append(missing_token)
            writer.writerow(row)
