import importlib.util
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import COLUMNS, STRUCTURE, make_pattern_table, make_random_table
from primeplm import (
    ModelStructure,
    ObservationTable,
    build_pattern_index,
    complete_case_subset,
    load_csv,
    load_structure,
    minmax_normalize,
    write_csv,
)
from primeplm.dataset import _observed_ranges
from primeplm.errors import (
    DegenerateColumn,
    MalformedCsv,
    MissingResponse,
    StructureMismatch,
    UnknownColumn,
)


def test_structure_counts():
    s = ModelStructure(nonlinear=("a", "b"), linear=("c",))
    assert s.p == 2 and s.q == 1


def test_structure_overlap_rejected():
    with pytest.raises(StructureMismatch):
        ModelStructure(nonlinear=("a", "b"), linear=("b",))
    with pytest.raises(StructureMismatch):
        ModelStructure(nonlinear=(), linear=())


def test_table_validation():
    y = np.zeros(3)
    x = np.zeros((3, 2))
    mask = np.ones((3, 2), dtype=bool)
    s = ModelStructure(nonlinear=("a",), linear=("b",))
    with pytest.raises(StructureMismatch):
        ObservationTable(y, x, mask[:, :1], ("a", "b"), s)
    with pytest.raises(StructureMismatch):
        ObservationTable(y[:2], x, mask, ("a", "b"), s)
    with pytest.raises(StructureMismatch):
        ObservationTable(y, x, mask, ("a", "a"), s)
    with pytest.raises(MissingResponse):
        ObservationTable(np.array([0.0, np.nan, 0.0]), x, mask, ("a", "b"), s)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(MalformedCsv):
        ObservationTable(y, bad, mask, ("a", "b"), s)


def test_table_arrays_frozen(pattern_table):
    with pytest.raises(ValueError):
        pattern_table.y[0] = 7.0
    with pytest.raises(ValueError):
        pattern_table.mask[0, 0] = False


def test_table_holds_its_own_read_only_copies(pattern_table):
    x = np.array(pattern_table.x)
    table = ObservationTable(pattern_table.y, x, pattern_table.mask, COLUMNS, STRUCTURE)
    assert not table.x.flags.writeable
    with pytest.raises(ValueError):
        table.x[0, 0] = 7.0
    for ours, theirs in ((table.x, x), (table.y, pattern_table.y),
                         (table.mask, pattern_table.mask)):
        assert not np.shares_memory(ours, theirs)
    x[0, 0] = 7.0
    assert table.x[0, 0] == pattern_table.x[0, 0]
    rebuilt = ObservationTable(table.y, table.x, table.mask, table.columns, STRUCTURE)
    assert not np.shares_memory(table.x, rebuilt.x)


def test_position_and_unknown(pattern_table):
    assert pattern_table.position("x4") == 3
    with pytest.raises(UnknownColumn):
        pattern_table.position("nope")


def test_pattern_fixture_layout(pattern_table):
    pat = build_pattern_index(pattern_table)
    assert len(pat) == 5
    assert_array_equal(complete_case_subset(pattern_table), [0, 1])
    # row 2 misses {2, 5, 6, 7} and shares that pattern with row 3
    assert_array_equal(pat[pattern_table.mask[2].tobytes()], [2, 3])
    observed = [np.flatnonzero(np.frombuffer(key, dtype=bool)) for key in pat]
    assert_array_equal(observed[1], [0, 1, 3, 4])
    assert [len(c) for c in observed] == [8, 4, 6, 7, 5]


def test_pattern_partition_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        table = make_random_table(rng, n=30, p=3, q=4, missing_rate=0.4)
        pat = build_pattern_index(table)
        firsts = []
        seen = np.zeros(table.n, dtype=int)
        for key, rows in pat.items():
            assert (table.mask[rows] == np.frombuffer(key, dtype=bool)).all()
            assert_array_equal(rows, np.sort(rows))
            seen[rows] += 1
            firsts.append(rows[0])
        assert (seen == 1).all()
        assert firsts == sorted(firsts)


def row_loop_index(mask):
    """The pattern index as one Python step per row, mask row bytes as keys."""
    groups = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    return {k: np.array(v, dtype=int) for k, v in groups.items()}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("missing_rate", [0.0, 0.3])
@pytest.mark.parametrize("n", [0, 1, 30])
def test_pattern_index_equals_the_row_loop(n, missing_rate, order):
    rng = np.random.default_rng(n)
    mask = rng.uniform(size=(n, 5)) >= missing_rate
    x = np.where(mask, rng.normal(size=(n, 5)), np.nan)
    table = ObservationTable(
        np.zeros(n), np.asarray(x, order=order), np.asarray(mask, order=order),
        tuple("abcde"), ModelStructure(nonlinear=("a",), linear=tuple("bcde")),
    )
    if order == "F" and n > 1:
        # the table keeps its mask's order, which a raw view cannot read
        assert not table.mask.flags.c_contiguous
    got, want = build_pattern_index(table), row_loop_index(mask)
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert_array_equal(got[key], want[key])
        assert not got[key].flags.writeable
    if n and missing_rate == 0.0:
        assert len(got) == 1


DEGENERATE = {
    "one distinct value": ([0.7, 0.7, 0.7, 0.7], [True] * 4),
    "signed zeros": ([-0.0, 0.0, -0.0, 0.0], [True] * 4),
    "never observed": ([np.nan] * 4, [False] * 4),
}


@pytest.mark.parametrize("case", DEGENERATE, ids=list(DEGENERATE))
def test_degenerate_ranges_raise_as_before(case):
    values, observed = DEGENERATE[case]
    mask = np.column_stack([observed, [True] * 4])
    t = ObservationTable(
        np.zeros(4), np.column_stack([values, np.arange(4.0)]), mask, ("a", "b"),
        ModelStructure(nonlinear=("a",), linear=("b",)),
    )
    text = "nonlinear column 'a' has fewer than two distinct observed values"
    with pytest.raises(DegenerateColumn) as err:
        minmax_normalize(t)
    assert str(err.value) == text
    with pytest.raises(DegenerateColumn) as err:
        _observed_ranges(t, ("a", "b"))
    assert str(err.value) == text
    assert _observed_ranges(t, ("b",)).ranges == {"b": (0.0, 3.0)}


def test_complete_case_subset_empty():
    rng = np.random.default_rng(3)
    table = make_random_table(rng, n=10, missing_rate=0.0)
    mask = np.array(table.mask)
    mask[:, 0] = False
    mask[0] = True
    mask[0, 1] = False
    broken = ObservationTable(
        table.y, np.where(mask, table.x, np.nan), mask, table.columns,
        table.structure,
    )
    assert complete_case_subset(broken).size == 0


def test_minmax_normalize_bounds_and_roundtrip(pattern_table):
    normalized, nmap = minmax_normalize(pattern_table)
    for name in pattern_table.structure.nonlinear:
        pos = pattern_table.position(name)
        obs = pattern_table.mask[:, pos]
        vals = normalized.x[obs, pos]
        assert vals.min() == 0.0 and vals.max() == 1.0
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        again = nmap.apply(name, pattern_table.x[obs, pos])
        assert_allclose(again, vals, atol=1e-12)
    # linear columns untouched
    for name in pattern_table.structure.linear:
        pos = pattern_table.position(name)
        obs = pattern_table.mask[:, pos]
        assert_array_equal(normalized.x[obs, pos], pattern_table.x[obs, pos])


def test_minmax_clamp_and_unknown(pattern_table):
    _, nmap = minmax_normalize(pattern_table)
    lo, hi = nmap.ranges["x1"]
    z = nmap.apply("x1", np.array([lo - 10.0, hi + 10.0]))
    assert_array_equal(z, [0.0, 1.0])
    unclamped = nmap.apply("x1", np.array([hi + (hi - lo)]), clamp=False)
    assert unclamped[0] == pytest.approx(2.0)
    with pytest.raises(UnknownColumn):
        nmap.apply("x9", np.zeros(1))


def test_minmax_degenerate_column():
    y = np.zeros(4)
    x = np.column_stack([np.full(4, 0.7), np.arange(4.0)])
    mask = np.ones((4, 2), dtype=bool)
    t = ObservationTable(
        y, x, mask, ("a", "b"), ModelStructure(nonlinear=("a",), linear=("b",))
    )
    with pytest.raises(DegenerateColumn):
        minmax_normalize(t)


def test_csv_roundtrip_random_tables(tmp_path):
    rng = np.random.default_rng(7)
    for k in range(20):
        table = make_random_table(rng, n=25, p=2, q=3, missing_rate=0.3)
        path = tmp_path / f"t{k}.csv"
        write_csv(table, path)
        back = load_csv(path, table.structure)
        assert_array_equal(back.mask, table.mask)
        assert_array_equal(back.y, table.y)
        obs = table.mask
        assert_array_equal(back.x[obs], table.x[obs])
        assert back.columns == table.columns


def test_csv_missing_tokens(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,a,b\n1.0,NA,2.0\n2.0,,3.0\n3.0,0.5,4.0\n")
    s = ModelStructure(nonlinear=("a",), linear=("b",))
    table = load_csv(path, s)
    assert_array_equal(table.mask[:, 0], [False, False, True])
    assert np.isnan(table.x[0, 0]) and np.isnan(table.x[1, 0])


def test_csv_custom_missing_token(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,a,b\n1.0,?,2.0\n3.0,0.5,4.0\n")
    s = ModelStructure(nonlinear=("a",), linear=("b",))
    table = load_csv(path, s, missing_token="?")
    assert_array_equal(table.mask[:, 0], [False, True])


def test_csv_errors(tmp_path):
    s = ModelStructure(nonlinear=("a",), linear=("b",))
    f = tmp_path / "bad.csv"

    f.write_text("y,a\n1.0,2.0\n")
    with pytest.raises(StructureMismatch):
        load_csv(f, s)

    f.write_text("z,a,b\n1.0,2.0,3.0\n")
    with pytest.raises(MissingResponse):
        load_csv(f, s)

    f.write_text("y,a,b\n1.0,2.0\n")
    with pytest.raises(MalformedCsv) as err:
        load_csv(f, s)
    assert ":2:" in str(err.value)

    f.write_text("y,a,b\n1.0,oops,3.0\n")
    with pytest.raises(MalformedCsv):
        load_csv(f, s)

    f.write_text("y,a,b\nNA,1.0,3.0\n")
    with pytest.raises(MissingResponse):
        load_csv(f, s)

    f.write_text("y,a,b\n")
    with pytest.raises(MalformedCsv):
        load_csv(f, s)

    f.write_text("")
    with pytest.raises(MalformedCsv):
        load_csv(f, s)


def test_csv_drop_missing_response(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,a,b\n1.0,0.1,2.0\nNA,0.2,3.0\n4.0,0.3,5.0\n")
    s = ModelStructure(nonlinear=("a",), linear=("b",))
    table = load_csv(path, s, drop_missing_response=True)
    assert_array_equal(table.y, [1.0, 4.0])


def test_load_structure_sidecar(tmp_path):
    path = tmp_path / "m.structure"
    path.write_text(
        "# layout\nresponse = y\nnonlinear = a, b\nlinear = c\n"
    )
    structure, response = load_structure(path)
    assert response == "y"
    assert structure.nonlinear == ("a", "b") and structure.linear == ("c",)

    path.write_text("response = y\nnonlinear = a\nlinear = b\nextra = 1\n")
    with pytest.raises(StructureMismatch):
        load_structure(path)

    path.write_text("nonlinear = a\nlinear = b\n")
    with pytest.raises(StructureMismatch):
        load_structure(path)


def test_make_fixtures_rebuilds_the_committed_csvs(tmp_path):
    data = pathlib.Path(__file__).parent / "data"
    spec = importlib.util.spec_from_file_location("make_fixtures", data / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(tmp_path)
    for name in ("toy.csv", "toy_missing.csv"):
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes()
