"""The CSV readers and writer as they were before np.loadtxt: csv.reader
rows and one float() per cell, csv.writer rows and one repr() per cell.  The
oracle tests compare primeplm's readers and writer with these bit for bit.
"""

import csv
import os

import numpy as np

from primeplm import ModelStructure, ObservationTable
from primeplm.errors import IncompleteRow, MalformedCsv, MissingResponse, StructureMismatch


def _parse_cell(text: str, missing_token: str) -> float | None:
    stripped = text.strip()
    if stripped == "" or stripped == missing_token:
        return None
    try:
        return float(stripped)
    except ValueError:
        raise MalformedCsv(f"cannot parse numeric cell {text!r}") from None


def reference_load_csv(
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


def reference_read_rows(path: str, columns, missing_token: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise MalformedCsv(f"{path}: empty file") from None
        absent = [c for c in columns if c not in header]
        if absent:
            raise StructureMismatch(f"{path}: columns missing from header: {absent}")
        at = [header.index(c) for c in columns]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedCsv(
                    f"{path}:{lineno}: expected {len(header)} cells, found {len(row)}"
                )
            vals = []
            for c in at:
                cell = row[c].strip()
                if cell == "" or cell == missing_token:
                    raise IncompleteRow(f"{path}:{lineno}: missing covariate value")
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise MalformedCsv(
                        f"{path}:{lineno}: cannot parse numeric cell {cell!r}"
                    ) from None
            rows.append(vals)
    if not rows:
        raise MalformedCsv(f"{path}: no data rows")
    return np.array(rows)



def reference_write_csv(
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
