"""Observation tables with arbitrarily patterned missing covariates.

A table stores the response, the covariate matrix (NaN where unobserved),
the observation mask, and a structure that partitions covariate columns
into nonlinear (spline-modeled) and linear ones.  Tables are immutable
after construction: each holds its own read-only copies of its arrays,
re-partitioned ones included.
"""

from __future__ import annotations

import csv
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kv import read_kv_file, split_list
from .errors import (
    DegenerateColumn,
    IncompleteRow,
    MalformedCsv,
    MissingResponse,
    StructureMismatch,
    UnknownColumn,
)

__all__ = [
    "ModelStructure",
    "ObservationTable",
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
    """``a``, made read-only in place."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationTable:
    """Response y, covariates x (NaN where mask is False), and structure.

    ``columns`` fixes the physical column order of ``x``; the structure is
    any partition of those names.  The table copies y, x and mask once and
    makes the copies read-only, so no caller's array is shared.
    """

    y: np.ndarray
    x: np.ndarray
    mask: np.ndarray
    columns: tuple[str, ...]
    structure: ModelStructure

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        mask = np.array(self.mask, dtype=bool)
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
        # unobserved entries are stored as NaN and never read as values;
        # np.where makes x's one copy
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


def build_pattern_index(table: ObservationTable) -> dict[bytes, np.ndarray]:
    """Rows grouped by observation pattern: each distinct mask row (its
    bytes) maps to the ascending row indices sharing it, in order of first
    occurrence.  A complete table is one group; otherwise every row's key is
    read from one view of the mask as rows of raw bytes."""
    n, d = table.mask.shape
    if n and table.mask.all():
        return {table.mask[0].tobytes(): _frozen(np.arange(n))}
    # the view needs C order, and a table keeps its mask's order
    keys = np.ascontiguousarray(table.mask).view(np.dtype((np.void, d))).ravel().tolist()
    groups: dict[bytes, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {k: _frozen(np.array(v, dtype=int)) for k, v in groups.items()}


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


def _observed_ranges(table: ObservationTable, names) -> NormalizationMap:
    """Min and max of the observed values of each column in ``names``; a
    column needs two distinct ones."""
    ranges: dict[str, tuple[float, float]] = {}
    for name in names:
        pos = table.position(name)
        vals = table.x[table.mask[:, pos], pos]
        # a never-observed column has no min; NaN fails the test below
        lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (np.nan, np.nan)
        if not hi > lo:
            raise DegenerateColumn(
                f"nonlinear column {name!r} has fewer than two distinct observed values"
            )
        ranges[name] = (lo, hi)
    return NormalizationMap(ranges)


def minmax_normalize(table: ObservationTable) -> tuple[ObservationTable, NormalizationMap]:
    """Rescale observed nonlinear columns onto [0, 1]; linear columns stay raw."""
    nmap = _observed_ranges(table, table.structure.nonlinear)
    x = np.array(table.x, copy=True)
    for name, (lo, hi) in nmap.ranges.items():
        pos = table.position(name)
        observed = table.mask[:, pos]
        x[observed, pos] = (x[observed, pos] - lo) / (hi - lo)
    out = ObservationTable(table.y, x, table.mask, table.columns, table.structure)
    return out, nmap


def load_structure(path: str | os.PathLike) -> tuple[ModelStructure, str]:
    """Read a structure sidecar: response, nonlinear, linear keys."""
    entries = read_kv_file(path, StructureMismatch)
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


# The CSV grammar: one header row, then rows of exactly the header's width.
# Cells are split at commas and may be quoted with '"'; whitespace around a
# cell is stripped.  An empty cell or one equal to the missing token is
# missing; any other cell of a column that is read must be a number as
# np.loadtxt parses it (ASCII, no digit separators).  A blank line is a row
# of zero cells, and '#' starts no comment.  Columns that are not read may
# hold anything.

# A missing cell reads as this NaN.  No text parses to its payload, so it
# stays apart from a cell that reads "nan", which is an observed value.
_MISSING_BITS = 0x7FF8_0000_0000_0001
_MISSING = float(np.array(_MISSING_BITS, dtype=np.uint64).view(np.float64))


def _number(text: str) -> float:
    """``text`` as np.loadtxt reads a float cell; ValueError where it fails.

    Both strip whitespace and end in CPython's string-to-double parser, but
    float() alone also takes digit separators and non-ASCII digits."""
    cell = text.strip()
    if cell.isascii() and "_" not in cell:
        return float(cell)
    raise ValueError(f"could not convert string {text!r} to float64")


def _read_header(fh, path) -> list[str]:
    try:
        return [h.strip() for h in next(csv.reader(fh))]
    except StopIteration:
        raise MalformedCsv(f"{path}: empty file") from None


def _noting_blank(fh, blank: list):
    """The lines of ``fh``; np.loadtxt skips a blank line, so note it in ``blank``."""
    for line in fh:
        if line == "\n":
            blank.append(line)
        yield line


def _may_hold_token(values: np.ndarray, missing_token: str) -> bool:
    """Whether ``values`` hold the number a numeric-looking missing token
    reads as: np.loadtxt takes such a cell for a value."""
    try:
        token = _number(missing_token)
    except ValueError:
        return False
    return bool(np.any(np.isnan(values) if np.isnan(token) else values == token))


def _locate(fh, path, header, at, optional, missing_token, missing_error) -> None:
    """Raise the first row error of the file, rows in order and each row's
    columns in the order of ``at``; return if every row is well formed."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    try:
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedCsv(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(row)}"
                )
            for j, may_miss in zip(at, optional):
                cell = row[j].strip()
                if cell == "" or cell == missing_token:
                    if not may_miss:
                        raise missing_error(f"{path}:{lineno}")
                    continue
                try:
                    _number(cell)
                except ValueError:
                    raise MalformedCsv(
                        f"{path}:{lineno}: cannot parse numeric cell {row[j]!r}"
                    ) from None
    except csv.Error as err:
        raise MalformedCsv(f"{path}:{reader.line_num}: {err}") from None


def _loadtxt(fh, dtype, converters) -> tuple[np.ndarray, bool]:
    """np.loadtxt over the rest of ``fh``: its rows, and whether it skipped a
    blank line."""
    blank: list = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(
            _noting_blank(fh, blank), dtype=dtype, delimiter=",", comments=None,
            quotechar='"', ndmin=1, converters=converters,
        )
    return rows, bool(blank)


def _read_columns(fh, path, header, columns, optional, missing_token, missing_error):
    """Values and observed mask of ``columns``, in that order, from the rows
    after the header; each column must be in the header exactly once.

    A column flagged in ``optional`` may hold missing cells; a missing cell
    anywhere else raises ``missing_error(location)``.  When some column is
    optional, np.loadtxt first reads the rows with no converter; if that pass
    succeeds, skips no blank line and finds no value a numeric-looking
    missing token reads as, no cell is missing.  Otherwise the rows are read
    again, the optional columns through a missing-cell converter, so a file
    whose first hole is late pays two full passes.  When the last pass fails,
    or leaves a doubt it cannot settle, the file is read again with
    csv.reader to raise the first bad row or cell at its line.
    """
    absent = [c for c in columns if c not in header]
    if absent:
        raise StructureMismatch(f"{path}: columns missing from header: {absent}")
    for c in columns:
        if header.count(c) > 1:
            raise MalformedCsv(f"{path}:1: column {c!r} is repeated in the header")
    at = [header.index(c) for c in columns]
    # the other columns are read as one-character strings: never parsed, but
    # every row still has to be as wide as the header
    dtype = np.dtype([(f"c{j}", "f8" if j in at else "U1") for j in range(len(header))])
    if any(optional):
        try:
            rows, blank = _loadtxt(fh, dtype, None)
        except ValueError:
            pass
        else:
            values = np.column_stack([rows[f"c{j}"] for j in at])
            if not (blank or _may_hold_token(values, missing_token)):
                return values, np.ones(values.shape, dtype=bool)
        fh.seek(0)
        _read_header(fh, path)

    def cell(text):
        stripped = text.strip()
        return _MISSING if stripped == "" or stripped == missing_token else _number(stripped)

    converters = {j: cell for j, may_miss in zip(at, optional) if may_miss}
    try:
        rows, blank = _loadtxt(fh, dtype, converters)
    except ValueError as err:
        _locate(fh, path, header, at, optional, missing_token, missing_error)
        raise MalformedCsv(f"{path}: {err}") from None
    values = np.column_stack([rows[f"c{j}"] for j in at])
    if blank or _may_hold_token(values[:, [not m for m in optional]], missing_token):
        _locate(fh, path, header, at, optional, missing_token, missing_error)
    return values, values.view(np.uint64) != _MISSING_BITS


def load_csv(
    path: str | os.PathLike,
    structure: ModelStructure | None,
    response: str = "y",
    missing_token: str = "NA",
    drop_missing_response: bool = False,
) -> ObservationTable:
    """Read a headed CSV into an ObservationTable.

    Covariate cells equal to ``missing_token`` (or empty) become missing;
    the response must be fully observed unless ``drop_missing_response``
    skips those rows.  Columns in the file that are neither the response
    nor declared in the structure are ignored.  Without a structure, every
    column besides the response is a linear covariate.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = _read_header(fh, path)
        if response not in header:
            raise MissingResponse(f"{path}: response column {response!r} not in header")
        if structure is None:
            covariates = tuple(h for h in dict.fromkeys(header) if h != response)
            if not covariates:
                raise StructureMismatch(f"{path}: no covariate columns besides the response")
            structure = ModelStructure(nonlinear=(), linear=covariates)
        wanted = structure.nonlinear + structure.linear
        if response in wanted:
            raise StructureMismatch(f"{path}: response {response!r} also listed as covariate")
        values, observed = _read_columns(
            fh, path, header, (response, *wanted), (drop_missing_response,) + (True,) * len(wanted),
            missing_token, lambda where: MissingResponse(f"{where}: response value is missing"),
        )
    keep = observed[:, 0]
    if not keep.any():
        raise MalformedCsv(f"{path}: no data rows")
    return ObservationTable(
        y=values[keep, 0],
        x=values[keep, 1:],
        mask=observed[keep, 1:],
        columns=wanted,
        structure=structure,
    )


def load_rows(
    path: str | os.PathLike, columns: Sequence[str], missing_token: str = "NA"
) -> np.ndarray:
    """The ``columns`` of a headed CSV as an (n, len(columns)) array.

    Every cell of those columns must be observed; other columns are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = _read_header(fh, path)
        values, _ = _read_columns(
            fh, path, header, tuple(columns), (False,) * len(columns), missing_token,
            lambda where: IncompleteRow(f"{where}: missing covariate value"),
        )
    if not values.shape[0]:
        raise MalformedCsv(f"{path}: no data rows")
    return values


_WRITE_ROWS = 8192  # rows formatted per block, which bounds the strings held


def _csv_cell(text: str) -> str:
    """``text`` as csv.writer writes it among other cells of a row."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(
    table: ObservationTable,
    path: str | os.PathLike,
    response: str = "y",
    missing_token: str = "NA",
) -> None:
    """Inverse of load_csv; floats written with full round-trip precision.

    Rows end in csv's ``\\r\\n``; float cells never need quotes.
    """
    token = _csv_cell(missing_token)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([response, *table.columns])
        for start in range(0, table.n, _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            cells = [list(map(repr, table.y[rows].tolist()))]
            for j in range(len(table.columns)):
                column = list(map(repr, table.x[rows, j].tolist()))
                for i in np.flatnonzero(~table.mask[rows, j]).tolist():
                    column[i] = token
                cells.append(column)
            fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))
