"""The CSV grammar at its edges, through load_csv, `primeplm fit` and
`primeplm predict`.

Each error case pins the exception class, the ``path:line`` text and the exit
code; each accepted case pins the values read.  Blank lines, ragged rows,
cells starting with '#', numeric-looking missing tokens, extra columns,
quotes, whitespace, CRLF line ends and header-only or empty files are the
places where a vectorized parser is most likely to drift from the grammar.
"""

import csv
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from primeplm import ModelStructure, load_csv, load_fit, predict
from primeplm.dataset import load_rows
from primeplm.cli import main
from primeplm.errors import MalformedCsv, MissingResponse

DATA = pathlib.Path(__file__).parent / "data"
STRUCTURE_FILE = str(DATA / "toy_structure.txt")
STRUCTURE = ModelStructure(nonlinear=("u1",), linear=("w1", "w2"))

HEADER = "y,u1,w1,w2"
R1 = "1.5,0.25,2.0,-1.0"
R2 = "0.5,0.75,1.0,3.0"


def write(tmp_path, lines, end="\n", name="data.csv"):
    path = tmp_path / name
    path.write_bytes("".join(line + end for line in lines).encode())
    return str(path)


@pytest.fixture(scope="module")
def fit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit") / "model.json"
    rc = main(["fit", "--data", str(DATA / "toy.csv"), "--structure", STRUCTURE_FILE,
               "--fit-out", str(path), "--seed", "5"])
    assert rc == 0
    return str(path)


def run_fit(path, capsys, *extra):
    rc = main(["fit", "--data", path, "--structure", STRUCTURE_FILE,
               "--fit-out", path + ".fit.json", "--seed", "1", *extra])
    return rc, capsys.readouterr().err


def run_predict(fit_file, path, capsys, *extra):
    out = path + ".preds.csv"
    rc = main(["predict", "--fit", fit_file, "--data", path, "--out", out, *extra])
    err = capsys.readouterr().err
    if rc:
        return rc, err, None
    with open(out, newline="") as fh:
        preds = np.array([float(row[1]) for row in list(csv.reader(fh))[1:]])
    return rc, err, preds


# -- errors: load_csv and fit ------------------------------------------------------

FIT_ERRORS = [
    ("blank-line", [HEADER, R1, "", R2], MalformedCsv, ":3: expected 4 cells, found 0"),
    ("trailing-blank-line", [HEADER, R1, R2, ""], MalformedCsv,
     ":4: expected 4 cells, found 0"),
    ("cell-too-many", [HEADER, R1, R2 + ",9.0"], MalformedCsv,
     ":3: expected 4 cells, found 5"),
    ("cell-too-few", [HEADER, R1, "0.5,0.75,1.0"], MalformedCsv,
     ":3: expected 4 cells, found 3"),
    ("hash-cell", [HEADER, R1, "0.5,#0.75,1.0,3.0"], MalformedCsv,
     ":3: cannot parse numeric cell '#0.75'"),
    ("hash-first-cell", [HEADER, "#1.5,0.25,2.0,-1.0"], MalformedCsv,
     ":2: cannot parse numeric cell '#1.5'"),
    ("hash-line", [HEADER, R1, "# a comment", R2], MalformedCsv,
     ":3: expected 4 cells, found 1"),
    ("padded-bad-cell", [HEADER, R1, "0.5, oops ,1.0,3.0"], MalformedCsv,
     ":3: cannot parse numeric cell ' oops '"),
    ("missing-response", [HEADER, R1, "NA,0.75,1.0,3.0"], MissingResponse,
     ":3: response value is missing"),
    ("bad-before-blank", [HEADER, "0.5,x,1.0,3.0", ""], MalformedCsv,
     ":2: cannot parse numeric cell 'x'"),
    ("header-only", [HEADER], MalformedCsv, ": no data rows"),
    # a hole in a covariate that may miss is passed over on the way to the bad cell
    ("hole-before-bad-cell", [HEADER, "1.5,NA,2.0,-1.0", "0.5,oops,1.0,3.0"], MalformedCsv,
     ":3: cannot parse numeric cell 'oops'"),
]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("lines, error, text", [c[1:] for c in FIT_ERRORS],
                         ids=[c[0] for c in FIT_ERRORS])
def test_fit_errors(tmp_path, capsys, lines, error, text, end):
    path = write(tmp_path, lines, end)
    with pytest.raises(error) as err:
        load_csv(path, STRUCTURE)
    assert str(err.value) == path + text
    assert run_fit(path, capsys) == (3, f"error: {path}{text}\n")


def test_fit_empty_file(tmp_path, capsys):
    path = write(tmp_path, [])
    with pytest.raises(MalformedCsv) as err:
        load_csv(path, STRUCTURE)
    assert str(err.value) == f"{path}: empty file"
    assert run_fit(path, capsys) == (3, f"error: {path}: empty file\n")


# -- accepted cells: load_csv --------------------------------------------------------


def test_numeric_missing_token_counts_as_missing(tmp_path, capsys):
    path = write(tmp_path, [HEADER, R1, "0.5,0.75,-999,3.0", "2.5,-999.0,-0.5,0.0"])
    table = load_csv(path, STRUCTURE, missing_token="-999")
    assert_array_equal(table.mask, [[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert table.x[2, 0] == -999.0
    with pytest.raises(MissingResponse) as err:
        load_csv(write(tmp_path, [HEADER, "-999,0.75,1.0,3.0"]), STRUCTURE,
                 missing_token="-999")
    assert str(err.value).endswith(":2: response value is missing")


def test_nan_cell_is_an_observed_value(tmp_path):
    path = write(tmp_path, [HEADER, R1, "0.5,NaN,1.0,3.0"])
    with pytest.raises(MalformedCsv) as err:
        load_csv(path, STRUCTURE)
    assert str(err.value) == "observed covariate entries must be finite"
    table = load_csv(path, STRUCTURE, missing_token="NaN")
    assert_array_equal(table.mask, [[1, 1, 1], [0, 1, 1]])


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_quotes_and_whitespace(tmp_path, end):
    path = write(tmp_path, [
        ' y ,"u1",w1 ,w2',
        '"1.5", 0.25 ,"2.0" , -1.0\t',
        '0.5,"",  NA ,"3.0"',
        '2.5," 0.5 ",-0.5,"NA"',
    ], end)
    table = load_csv(path, STRUCTURE)
    assert_array_equal(table.y, [1.5, 0.5, 2.5])
    assert_array_equal(table.mask, [[1, 1, 1], [0, 0, 1], [1, 1, 0]])
    assert_array_equal(table.x[table.mask], [0.25, 2.0, -1.0, 3.0, 0.5, -0.5])


def test_extra_columns_are_ignored(tmp_path):
    path = write(tmp_path, [
        "id,y,u1,note,w1,w2",
        '"Smith, J",1.5,0.25,# not a comment,2.0,-1.0',
        ",0.5,0.75,,1.0,3.0",
    ])
    table = load_csv(path, STRUCTURE)
    assert_array_equal(table.y, [1.5, 0.5])
    assert_array_equal(table.x, [[0.25, 2.0, -1.0], [0.75, 1.0, 3.0]])


def test_repeated_read_column_is_rejected(tmp_path, capsys, fit_file):
    path = write(tmp_path, ["y,u1,u1,w1,w2", "1.5,0.25,0.9,2.0,-1.0", "0.5,0.75,0.1,1.0,3.0"])
    text = f"{path}:1: column 'u1' is repeated in the header"
    for read in (lambda: load_csv(path, STRUCTURE), lambda: load_csv(path, None),
                 lambda: load_rows(path, ("u1", "w1", "w2"))):
        with pytest.raises(MalformedCsv) as err:
            read()
        assert str(err.value) == text
    assert run_fit(path, capsys) == (3, f"error: {text}\n")
    assert run_predict(fit_file, path, capsys)[:2] == (3, f"error: {text}\n")
    rc = main(["average", "--data", path, "--out", path + ".avg.json", "--seed", "1"])
    assert (rc, capsys.readouterr().err) == (3, f"error: {text}\n")
    # columns that are not read may repeat, as they may hold anything
    path = write(tmp_path, ["y,u1,note,w1,w2,note", "1.5,0.25,a,2.0,-1.0,b",
                            "0.5,0.75,c,1.0,3.0,d"], name="notes.csv")
    assert_array_equal(load_csv(path, STRUCTURE).x, [[0.25, 2.0, -1.0], [0.75, 1.0, 3.0]])
    assert_array_equal(load_rows(path, ("w2", "u1")), [[-1.0, 0.25], [3.0, 0.75]])


# -- predict -----------------------------------------------------------------------

PREDICT_ERRORS = [
    ("blank-line", [HEADER, R1, "", R2], ":3: expected 4 cells, found 0"),
    ("cell-too-many", [HEADER, R1, R2 + ",9.0"], ":3: expected 4 cells, found 5"),
    ("cell-too-few", [HEADER, R1, "0.5,0.75,1.0"], ":3: expected 4 cells, found 3"),
    ("hash-cell", [HEADER, R1, "0.5,#0.75,1.0,3.0"],
     ":3: cannot parse numeric cell '#0.75'"),
    ("missing-cell", [HEADER, R1, "0.5,0.75,,3.0"], ":3: missing covariate value"),
    ("missing-token", [HEADER, R1, R2, "0.5,0.75,NA,3.0"], ":4: missing covariate value"),
    ("header-only", [HEADER], ": no data rows"),
]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("lines, text", [c[1:] for c in PREDICT_ERRORS],
                         ids=[c[0] for c in PREDICT_ERRORS])
def test_predict_errors(tmp_path, capsys, fit_file, lines, text, end):
    path = write(tmp_path, lines, end)
    rc, err, _ = run_predict(fit_file, path, capsys)
    assert (rc, err) == (3, f"error: {path}{text}\n")


def test_predict_empty_file(tmp_path, capsys, fit_file):
    path = write(tmp_path, [])
    assert run_predict(fit_file, path, capsys)[:2] == (3, f"error: {path}: empty file\n")


def test_predict_numeric_missing_token(tmp_path, capsys, fit_file):
    path = write(tmp_path, [HEADER, R1, "0.5,0.75,-999,3.0"])
    rc, err, _ = run_predict(fit_file, path, capsys, "--missing-token", "-999")
    assert (rc, err) == (3, f"error: {path}:3: missing covariate value\n")
    # a cell equal to the token's value but not its text is a value
    path = write(tmp_path, [HEADER, R1, "0.5,0.75,-999.0,3.0"], name="value.csv")
    rc, _, preds = run_predict(fit_file, path, capsys, "--missing-token", "-999")
    assert rc == 0
    fit = load_fit(fit_file)
    assert_array_equal(preds, predict(fit, np.array([[0.25, 2.0, -1.0], [0.75, -999.0, 3.0]])))


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_predict_extra_columns_quotes_and_whitespace(tmp_path, capsys, fit_file, end):
    path = write(tmp_path, [
        'id,w2 ,y,"u1",note,w1',
        '"Smith, J", -1.0 ,NA,"0.25",# note,2.0',
        ',"3.0",,  0.75 ,"a ""quoted"" note", 1.0\t',
        'x,0.0,oops," 0.5 ",,-0.5',
    ], end)
    rc, _, preds = run_predict(fit_file, path, capsys)
    assert rc == 0
    rows = np.array([[0.25, 2.0, -1.0], [0.75, 1.0, 3.0], [0.5, -0.5, 0.0]])
    assert_array_equal(preds, predict(load_fit(fit_file), rows))


# -- a byte-order mark ---------------------------------------------------------------
# a spreadsheet's "CSV UTF-8" starts the file with U+FEFF; the header is read without it

BOM = "\ufeff"


def with_bom(tmp_path, source, name):
    path = tmp_path / name
    path.write_bytes((BOM + pathlib.Path(source).read_text(encoding="utf-8")).encode())
    return str(path)


def test_fit_and_predict_skip_a_byte_order_mark(tmp_path, capsys, fit_file):
    plain, marked = str(DATA / "toy.csv"), with_bom(tmp_path, DATA / "toy.csv", "toy.csv")
    assert pathlib.Path(marked).read_bytes().startswith(b"\xef\xbb\xbfy,")
    want, got = load_csv(plain, STRUCTURE), load_csv(marked, STRUCTURE)
    assert_array_equal(got.y, want.y)
    assert_array_equal(got.x, want.x)
    assert_array_equal(load_rows(marked, ("u1", "w2")), load_rows(plain, ("u1", "w2")))
    out = str(tmp_path / "model.json")
    rc = main(["fit", "--data", marked, "--structure", STRUCTURE_FILE, "--fit-out", out,
               "--seed", "5"])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert pathlib.Path(out).read_bytes() == pathlib.Path(fit_file).read_bytes()
    rc, _, preds = run_predict(fit_file, marked, capsys)
    assert rc == 0
    assert_array_equal(preds, predict(load_fit(fit_file), want.x))


def test_structure_file_skips_a_byte_order_mark(tmp_path, capsys, fit_file):
    structure = with_bom(tmp_path, STRUCTURE_FILE, "structure.txt")
    out = str(tmp_path / "model.json")
    rc = main(["fit", "--data", str(DATA / "toy.csv"), "--structure", structure,
               "--fit-out", out, "--seed", "5"])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert pathlib.Path(out).read_bytes() == pathlib.Path(fit_file).read_bytes()


def test_file_with_holes_skips_a_byte_order_mark_on_every_pass(tmp_path, capsys):
    # holes fail np.loadtxt's first pass, so the header is read again after a seek
    plain = str(DATA / "toy_missing.csv")
    marked = with_bom(tmp_path, plain, "toy_missing.csv")
    want, got = load_csv(plain, STRUCTURE), load_csv(marked, STRUCTURE)
    assert not want.mask.all()
    assert_array_equal(got.mask, want.mask)
    assert_array_equal(got.x[got.mask], want.x[want.mask])
    assert_array_equal(got.y, want.y)
    # a bad cell after a hole is found by the csv pass, at its line
    path = write(tmp_path, [BOM + HEADER, "1.5,NA,2.0,-1.0", R2, "0.5,oops,1.0,3.0"])
    text = ":4: cannot parse numeric cell 'oops'"
    with pytest.raises(MalformedCsv) as err:
        load_csv(path, STRUCTURE)
    assert str(err.value) == path + text
    assert run_fit(path, capsys) == (3, f"error: {path}{text}\n")
