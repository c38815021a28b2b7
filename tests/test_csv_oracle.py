"""load_csv and load_rows against the csv.reader + float() readers they replace.

The files are write_csv output of random tables and rows of hand-made cells:
exponents, subnormals, 1e308, -0.0, whitespace, quotes, the missing token,
empty cells and cells that are not numbers.  Both readers must return the
same y, x and mask bit for bit, or raise the same error at the same line.
"""

import csv
import io
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from primeplm import ModelStructure, ObservationTable, load_csv, load_fit, predict, write_csv
from primeplm.cli import main
from primeplm.dataset import load_rows
from primeplm.errors import IncompleteRow, MalformedCsv, PrimeError
from reference_csv import reference_load_csv, reference_read_rows, reference_write_csv

COLUMNS = ("a", "b", "c")
STRUCTURE = ModelStructure(nonlinear=("a",), linear=("b", "c"))
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def outcome(read, *args, **kwargs):
    """What a reader returns, as bit patterns, or the error it raises."""
    try:
        got = read(*args, **kwargs)
    except PrimeError as err:
        return type(err), str(err)
    if isinstance(got, ObservationTable):
        return bits(got.y).tolist(), bits(got.x).tolist(), got.mask.tolist()
    return bits(got).tolist()


floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e-300]
)


@given(
    y=arrays(float, 12, elements=floats),
    x=arrays(float, (12, 3), elements=floats),
    mask=arrays(bool, (12, 3)),
    token=st.sampled_from(["NA", "?", "-999", "nan", ""]),
)
@SETTINGS
def test_write_csv_output_reads_back_as_before(tmp_path, y, x, mask, token):
    table = ObservationTable(y, np.where(mask, x, np.nan), mask, COLUMNS, STRUCTURE)
    path = tmp_path / "t.csv"
    write_csv(table, path, missing_token=token)
    want = outcome(reference_load_csv, path, STRUCTURE, missing_token=token)
    assert outcome(load_csv, path, STRUCTURE, missing_token=token) == want
    # write_csv's own values come back exactly, -0.0 included
    if not isinstance(want[0], type):
        assert want == (bits(y).tolist(), bits(table.x).tolist(), mask.tolist())
    assert outcome(load_rows, path, COLUMNS, token) == outcome(
        reference_read_rows, path, COLUMNS, token
    )


@given(
    y=arrays(float, 20, elements=floats),
    x=arrays(float, (20, 3), elements=floats),
    mask=arrays(bool, (20, 3)),
    token=st.sampled_from(["NA", "", " ", "a,b", 'say "x"', "two\nlines", "cr\r"]),
)
@SETTINGS
def test_write_csv_bytes_as_before(tmp_path, y, x, mask, token):
    table = ObservationTable(y, np.where(mask, x, np.nan), mask, ("a", 'b "2"', "c,3"),
                             ModelStructure(("a",), ('b "2"', "c,3")))
    write_csv(table, tmp_path / "got.csv", missing_token=token)
    reference_write_csv(table, tmp_path / "want.csv", missing_token=token)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_predictions_csv_bytes_as_before(tmp_path, capsys):
    data = pathlib.Path(__file__).parent / "data"
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data / "toy.csv"), "--structure",
                 str(data / "toy_structure.txt"), "--fit-out", str(fit), "--seed", "1"]) == 0
    out = tmp_path / "preds.csv"
    assert main(["predict", "--fit", str(fit), "--data", str(data / "toy.csv"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    preds = predict(load_fit(fit), load_rows(data / "toy.csv", ("u1", "w1", "w2")))
    want = io.StringIO(newline="")
    csv.writer(want).writerows([["row", "prediction"]] + [[i, repr(float(v))] for i, v in enumerate(preds)])
    assert out.read_bytes() == want.getvalue().encode()


def formatted(value):
    return st.sampled_from([
        repr(value), f"{value:e}", f"{value:+.3E}", f"{value:.17g}", f"{value:g}",
    ])


number_text = floats.flatmap(formatted) | st.sampled_from([
    "1", "+1", "-0", "007", ".5", "5.", "-.5e-3", "1E5", "1e308", "1e309", "-1e400",
    "4.9e-324", "2e-324", "inf", "-Infinity", "nan", "NaN",
])
other_text = st.sampled_from([
    "", "NA", "na", "?", "#", "#1", "abc", "1e", "e5", ".", "-", "+-1", "0x10", "1.2.3",
    "1 2", "--1", "1,5",
])


@st.composite
def cells(draw):
    text = draw(number_text | other_text)
    text = draw(st.sampled_from(["", " ", "\t", "  "])) + text
    text += draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.booleans()):
        text = '"' + text + '"'
    elif "," in text:
        text = text.replace(",", "")
    return text


def dropped_row_with_bad_cell(path, error, token):
    """Whether ``error`` is at a row whose response is missing: with
    drop_missing_response the old reader skipped such rows unread."""
    located = re.search(r":(\d+): cannot parse numeric cell ", error)
    with open(path, newline="") as fh:
        row = list(csv.reader(fh))[int(located.group(1)) - 1]
    return row[0].strip() in ("", token)


@given(rows=st.lists(st.lists(cells(), min_size=4, max_size=4), min_size=1, max_size=6),
       token=st.sampled_from(["NA", "?", "-999", "nan"]),
       drop=st.booleans())
@SETTINGS
def test_hand_made_cells_read_as_before(tmp_path, rows, token, drop):
    path = tmp_path / "t.csv"
    path.write_text("y,a,b,c\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    kwargs = dict(missing_token=token, drop_missing_response=drop)
    got = outcome(load_csv, path, STRUCTURE, **kwargs)
    want = outcome(reference_load_csv, path, STRUCTURE, **kwargs)
    if got != want:
        # every cell of a read column is now parsed, also in a dropped row
        assert drop and got[0] is MalformedCsv and dropped_row_with_bad_cell(path, got[1], token)
    got = outcome(load_rows, path, COLUMNS, token)
    want = outcome(reference_read_rows, path, COLUMNS, token)
    if want[0] is MalformedCsv and "cannot parse" in want[1]:
        # the bad cell is now quoted as it stands in the file, padding included
        assert got[0] is MalformedCsv
        assert got[1].split(": cannot parse")[0] == want[1].split(": cannot parse")[0]
    else:
        assert got == want


@given(text=st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'), max_size=12)
       | number_text)
@SETTINGS
def test_covariate_and_response_cells_share_one_grammar(tmp_path, text):
    # load_csv reads its covariate columns through the missing-cell
    # converter, load_rows its columns by np.loadtxt alone
    path = tmp_path / "t.csv"
    path.write_text(f"y,a,b,c\n1.0,{text},{text},0.5\n", encoding="utf-8")
    table = outcome(load_csv, path, ModelStructure((), ("a", "b", "c")), missing_token="")
    rows = outcome(load_rows, path, ("a", "b", "c"), "")
    if rows[0] is IncompleteRow:
        assert table[2] == [[False, False, True]]
    elif rows[0] is MalformedCsv:
        assert table == rows
    elif np.isfinite(np.array(rows, dtype=np.uint64).view(float)).all():
        assert table[1:] == (rows, [[True] * 3])
    else:
        assert table == (MalformedCsv, "observed covariate entries must be finite")


@pytest.mark.parametrize("cell", ["1_0", "1_000.5", "١", "１", "1٠"])
def test_cells_python_float_takes_but_loadtxt_does_not(tmp_path, capsys, cell):
    assert math.isfinite(float(cell))
    path = tmp_path / "t.csv"
    path.write_text(f"y,a,b,c\n1.0,0.5,2.0,3.0\n1.0,0.25,{cell},3.0\n", encoding="utf-8")
    text = f"{path}:3: cannot parse numeric cell {cell!r}"
    for read, args in ((load_csv, (path, STRUCTURE)), (load_rows, (path, COLUMNS))):
        with pytest.raises(MalformedCsv) as err:
            read(*args)
        assert str(err.value) == text
    structure = tmp_path / "s.txt"
    structure.write_text("response = y\nnonlinear = a\nlinear = b, c\n")
    rc = main(["fit", "--data", str(path), "--structure", str(structure),
               "--fit-out", str(tmp_path / "f.json"), "--seed", "1"])
    assert (rc, capsys.readouterr().err) == (3, f"error: {text}\n")


# -- numpy-only first pass ------------------------------------------------------
# load_csv first reads a file by np.loadtxt alone and keeps that result only
# when no cell can have been missing; every other file is read again with the
# missing-cell converter.  Both paths must read as the reference reader does.


def complete_lines(n=300, seed=3):
    """The lines of a complete y,a,b,c file of ``n`` random rows."""
    values = np.random.default_rng(seed).normal(size=(n, 4))
    return ["y,a,b,c"] + [",".join(map(repr, row)) for row in values.tolist()]


def edited(lines, row, text):
    """``lines`` with data row ``row`` (negative counts from the end) set to ``text``."""
    lines = list(lines)
    lines[row if row < 0 else row + 1] = text
    return lines


LATE = {
    "late hole": (edited(complete_lines(), -1, "0.5,0.25,NA,1.0"), "NA", False),
    "late empty cell": (edited(complete_lines(), -1, "0.5,0.25,,1.0"), "NA", False),
    "numeric token in a covariate only": (
        edited(complete_lines(), 200, "0.5,-999,0.5,1.0"), "-999", False),
    "numeric token observed as a near value": (
        edited(complete_lines(), 200, "0.5,-999.0,0.5,1.0"), "-999", False),
    "nan token": (edited(complete_lines(), 100, "0.5,nan,0.5,1.0"), "nan", False),
    "blank line": (edited(complete_lines(), 150, ""), "NA", False),
    "nan cell in a complete file": (edited(complete_lines(), 120, "0.5,0.1,nan,1.0"), "NA", False),
    "malformed last cell": (edited(complete_lines(), -1, "0.5,0.1,0.2,1.0x"), "NA", False),
    "short last row": (edited(complete_lines(), -1, "0.5,0.1,0.2"), "NA", False),
    "late missing response, dropped": (edited(complete_lines(), -2, "NA,0.1,0.2,0.3"), "NA", True),
    "late missing response, kept": (edited(complete_lines(), -2, "NA,0.1,0.2,0.3"), "NA", False),
    "response equals the numeric token": (
        edited(complete_lines(), -1, "-999,0.1,0.2,0.3"), "-999", True),
    "complete": (complete_lines(), "NA", False),
    "complete, numeric token absent": (complete_lines(), "-999", False),
}


@pytest.mark.parametrize("case", LATE, ids=list(LATE))
def test_late_cells_read_as_before(tmp_path, case):
    lines, token, drop = LATE[case]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kwargs = dict(missing_token=token, drop_missing_response=drop)
    want = outcome(reference_load_csv, path, STRUCTURE, **kwargs)
    assert outcome(load_csv, path, STRUCTURE, **kwargs) == want
    assert outcome(load_rows, path, COLUMNS, token) == outcome(
        reference_read_rows, path, COLUMNS, token
    )


def test_late_missing_response_cli(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(edited(complete_lines(), -2, "NA,0.1,0.2,0.3")) + "\n")
    structure = tmp_path / "s.txt"
    structure.write_text("response = y\nnonlinear = a\nlinear = b, c\n")
    argv = ["fit", "--data", str(path), "--structure", str(structure),
            "--fit-out", str(tmp_path / "f.json"), "--seed", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {path}:300: response value is missing\n"
    assert main(argv + ["--drop-missing-response"]) == 0


@pytest.mark.parametrize("case, passes", [("complete", 1), ("late hole", 2), ("nan token", 2)])
def test_loadtxt_passes(tmp_path, monkeypatch, case, passes):
    lines, token, _ = LATE[case]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(kwargs.get("converters"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    load_csv(path, STRUCTURE, missing_token=token)
    # a complete file is read once, by numpy alone
    assert len(calls) == passes and calls[0] is None
    calls.clear()
    if passes == 1:
        load_rows(path, COLUMNS, token)
        assert len(calls) == 1
