import csv
import json
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from primeplm import cli, errors
from primeplm.cli import REPLICATION_HEADER, SUMMARY_HEADER, main
from primeplm.dataset import load_csv, load_rows, load_structure, minmax_normalize
from primeplm.kernel_impute import KernelConfig
from primeplm.model_averaging import fit_prime_ma
from primeplm.prime_fit import fit_prime, load_fit, predict
from primeplm.spline import make_spec

DATA = pathlib.Path(__file__).parent / "data"
TOY = str(DATA / "toy.csv")
TOY_MISSING = str(DATA / "toy_missing.csv")
STRUCTURE = str(DATA / "toy_structure.txt")
SCENARIO = str(DATA / "scenario_small.txt")

# fit on toy.csv with default spline settings; the data are complete, so
# these do not depend on the seed or the kernel configuration
FROZEN_INTERCEPT = 0.24391973137778902
FROZEN_LINEAR = (0.9794668775979886, -0.4801588794013653)


def run_fit(tmp_path, data=TOY, *extra):
    fit_path = tmp_path / "model.json"
    rc = main([
        "fit", "--data", data, "--structure", STRUCTURE,
        "--fit-out", str(fit_path), "--seed", "5", *extra,
    ])
    assert rc == 0
    return fit_path


def read_predictions(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "prediction"]
    return np.array([float(r[1]) for r in rows[1:]])


# -- exit codes ---------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "primeplm" in capsys.readouterr().out


def test_missing_required_flag(capsys):
    assert main(["fit", "--data", TOY]) == 2
    capsys.readouterr()


def test_unreadable_data_is_usage_error(tmp_path, capsys):
    rc = main([
        "fit", "--data", str(tmp_path / "nope.csv"), "--structure", STRUCTURE,
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


_NUMERICAL = (
    errors.Underdetermined, errors.InsufficientCompleteCases, errors.SingularGram,
    np.linalg.LinAlgError,
)


@pytest.mark.parametrize(
    "error",
    sorted(errors.PrimeError.__subclasses__(), key=lambda cls: cls.__name__)
    + [np.linalg.LinAlgError],
    ids=lambda cls: cls.__name__,
)
def test_exit_code_per_error_class(monkeypatch, capsys, error):
    # usage 2, numerical 4, any other package error 3
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_report", fail)
    want = 2 if error is errors.InvalidConfig else 4 if error in _NUMERICAL else 3
    assert main(["report", "summary.csv"]) == want
    assert capsys.readouterr().err == "error: boom\n"


def test_bad_bandwidth_and_projection_flags(tmp_path, capsys):
    base = [
        "fit", "--data", TOY, "--structure", STRUCTURE,
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
    ]
    assert main(base + ["--bandwidth", "gauss"]) == 2
    assert main(base + ["--bandwidth", "fixed:a,b"]) == 2
    # NaN is not JSON, and would send every imputed cell to its column mean
    assert main(base + ["--bandwidth", "fixed:nan,1,1"]) == 2
    assert main(base + ["--bandwidth", "fixed:inf,1,1"]) == 2
    assert main(base + ["--projection", "3"]) == 2
    assert main(base + ["--projection", "x:standard_normal"]) == 2
    assert main(base + ["--projection", "2:triangular"]) == 2
    assert capsys.readouterr().err.endswith("unknown direction distribution 'triangular'\n")
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("command", [
    ["fit", "--structure", STRUCTURE, "--placement", "uniform"],
    ["fit", "--structure", STRUCTURE, "--placement", "quantile"],
    ["average"],
], ids=["fit-uniform", "fit-quantile", "average"])
@pytest.mark.parametrize("flag, message", [
    (["--degree", "0"], "degree must be >= 1, got 0"),
    (["--knots", "-1"], "interior knot count must be >= 0, got -1"),
], ids=["degree", "knots"])
def test_bad_spline_flags_are_usage_errors(tmp_path, capsys, command, flag, message):
    # a fit file's bad spline block is a data error instead (BadFitFile, exit 3)
    out = tmp_path / "out.json"
    output = ["--fit-out" if command[0] == "fit" else "--out", str(out)]
    assert main(command + output + ["--data", TOY_MISSING, "--seed", "1", *flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_fixed_bandwidth_wrong_length(tmp_path, capsys):
    rc = main([
        "fit", "--data", TOY_MISSING, "--structure", STRUCTURE,
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
        "--bandwidth", "fixed:0.5",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "average"])
@pytest.mark.parametrize("projection", [
    [], ["--projection", "1:standard_normal", "--projection-threshold", "0"],
], ids=["product", "resampled"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command, projection):
    out = str(tmp_path / "out.json")
    args = (
        ["fit", "--structure", STRUCTURE, "--fit-out", out] if command == "fit"
        else ["average", "--out", out]
    )
    rc = main(args + ["--data", TOY_MISSING, "--seed", "-1", *projection])
    assert rc == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


def test_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,u1,w1,w2\n1,2,3\n")
    rc = main([
        "fit", "--data", str(bad), "--structure", STRUCTURE,
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
    ])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    (b"response = y\nnonlinear u1\n", ":2:"),
    (b"response = y\n = u1\n", ":2:"),
    (b"response = y\nlinear = w1\nnonlinear = u1\nlinear = w2\n", ":4:"),
    (b"response = y\xff\n", ": not UTF-8"),
], ids=["no-equals", "empty-key", "duplicate-key", "not-utf8"])
def test_malformed_structure_sidecar_is_data_error(tmp_path, capsys, text, where):
    sidecar = tmp_path / "structure.txt"
    sidecar.write_bytes(text)
    rc = main([
        "fit", "--data", TOY, "--structure", str(sidecar),
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
    ])
    assert rc == 3
    assert f"{sidecar}{where}" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_underdetermined_fit_is_numerical_error(tmp_path, capsys):
    few = tmp_path / "few.csv"
    with open(TOY) as fh:
        lines = fh.read().splitlines()
    few.write_text("\n".join(lines[:5]) + "\n")
    rc = main([
        "fit", "--data", str(few), "--structure", STRUCTURE,
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
    ])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


# -- fit ----------------------------------------------------------------------


def test_fit_matches_library_route_and_frozen_reference(tmp_path, capsys):
    fit_path = run_fit(tmp_path)
    out = capsys.readouterr().out
    assert "fitted 80 rows (80 complete)" in out
    assert str(fit_path) in out

    fit = load_fit(fit_path)
    assert fit.intercept == pytest.approx(FROZEN_INTERCEPT, abs=1e-8)
    assert_allclose(fit.linear_coefs, FROZEN_LINEAR, atol=1e-8)

    structure, response = load_structure(STRUCTURE)
    table = load_csv(TOY, structure, response=response)
    direct = fit_prime(table)
    assert fit.intercept == pytest.approx(direct.intercept, abs=1e-12)
    assert_allclose(fit.curve_coefs, direct.curve_coefs, atol=1e-12)
    assert_allclose(fit.linear_coefs, direct.linear_coefs, atol=1e-12)


def test_fit_reruns_are_byte_identical(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    a = run_fit(a_dir, TOY_MISSING)
    b = run_fit(b_dir, TOY_MISSING)
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_fit_without_seed_prints_note(tmp_path, capsys):
    fit_path = tmp_path / "f.json"
    rc = main([
        "fit", "--data", TOY, "--structure", STRUCTURE,
        "--fit-out", str(fit_path),
    ])
    assert rc == 0
    assert "no --seed" in capsys.readouterr().err
    fit = load_fit(fit_path)
    assert fit.intercept == pytest.approx(FROZEN_INTERCEPT, abs=1e-8)


def test_fit_reports_fallbacks_on_incomplete_data(tmp_path, capsys):
    run_fit(tmp_path, TOY_MISSING)
    out = capsys.readouterr().out
    assert "fitted 80 rows (50 complete)" in out
    assert "fallback imputations" not in out
    # bandwidths this small underflow every donor weight
    fit_path = run_fit(tmp_path, TOY_MISSING, "--bandwidth", "fixed:1e-3,1e-3,1e-3")
    imp = load_fit(fit_path).diagnostics.imputation
    assert imp.total_fallbacks > 0 and not imp.no_donor_fallbacks
    out = capsys.readouterr().out
    assert f"fallback imputations: {imp.total_fallbacks} (no donors: {{}}, underflow: {{" in out
    assert all(f"{name!r}: {count}" in out for name, count in imp.underflow_fallbacks.items())


def test_fit_fallback_line_lists_columns_in_fit_file_order(tmp_path, capsys):
    fit_path = run_fit(tmp_path, TOY_MISSING, "--bandwidth", "fixed:1e-3,1e-3,1e-3")
    out = capsys.readouterr().out
    counts = json.loads(fit_path.read_text())["diagnostics"]["underflow_fallbacks"]
    assert list(counts) == ["u1", "w1", "w2"]  # nonlinear first, then linear
    assert f"underflow: {counts})" in out


def test_fit_quantile_knots(tmp_path, capsys):
    fit_path = run_fit(tmp_path, TOY, "--placement", "quantile", "--knots", "2")
    capsys.readouterr()
    fit = load_fit(fit_path)
    assert len(fit.spec.interior_knots) == 2
    # data quantiles of u1, not the uniform grid
    assert fit.spec.interior_knots != (pytest.approx(1 / 3), pytest.approx(2 / 3))
    assert 0.0 < fit.spec.interior_knots[0] < fit.spec.interior_knots[1] < 1.0

    # exactly the quantiles of the nonlinear columns' observed values, pooled
    # from the normalized table, with and without holes and over two columns
    two = tmp_path / "two_nonlinear.txt"
    two.write_text("response = y\nnonlinear = u1, w1\nlinear = w2\n")
    for data, structure in ((TOY, STRUCTURE), (TOY_MISSING, STRUCTURE), (TOY_MISSING, two)):
        fit_path = tmp_path / "quantile.json"
        assert main([
            "fit", "--data", data, "--structure", str(structure), "--fit-out", str(fit_path),
            "--seed", "1", "--placement", "quantile", "--knots", "3",
        ]) == 0
        normalized, _ = minmax_normalize(load_csv(data, *load_structure(structure)))
        pooled = np.concatenate([
            normalized.x[normalized.mask[:, j], j]
            for j in map(normalized.position, normalized.structure.nonlinear)
        ])
        assert load_fit(fit_path).spec == make_spec(3, 3, "quantile", data=pooled)
    capsys.readouterr()


def test_fit_drop_missing_response(tmp_path, capsys):
    holed = tmp_path / "holed.csv"
    with open(TOY) as fh:
        lines = fh.read().splitlines()
    cells = lines[3].split(",")
    cells[0] = "NA"
    lines[3] = ",".join(cells)
    holed.write_text("\n".join(lines) + "\n")

    args = [
        "fit", "--data", str(holed), "--structure", STRUCTURE,
        "--fit-out", str(tmp_path / "f.json"), "--seed", "1",
    ]
    assert main(args) == 3
    assert main(args + ["--drop-missing-response"]) == 0
    assert "fitted 79 rows" in capsys.readouterr().out


# -- predict --------------------------------------------------------------------


def test_predict_roundtrip(tmp_path, capsys):
    fit_path = run_fit(tmp_path)
    out_path = tmp_path / "preds.csv"
    rc = main(["predict", "--fit", str(fit_path), "--data", TOY,
               "--out", str(out_path)])
    assert rc == 0
    capsys.readouterr()

    preds = read_predictions(out_path)
    fit = load_fit(fit_path)
    structure, response = load_structure(STRUCTURE)
    table = load_csv(TOY, structure, response=response)
    assert_allclose(preds, predict(fit, table.x), atol=1e-12)
    # fitted means should track the observed response
    assert np.corrcoef(preds, table.y)[0, 1] > 0.9

    meta = json.loads((tmp_path / "preds.csv.meta.json").read_text())
    assert meta["format"] == "primeplm.predictions"
    assert meta["rows"] == 80


def test_predict_missing_cell_is_data_error(tmp_path, capsys):
    fit_path = run_fit(tmp_path)
    rc = main(["predict", "--fit", str(fit_path), "--data", TOY_MISSING,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "missing covariate" in capsys.readouterr().err


def test_predict_rejects_wrong_fit_file(tmp_path, capsys):
    rc = main(["predict", "--fit", TOY, "--data", TOY,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    capsys.readouterr()


def test_predict_truncated_fit_file_is_data_error(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format": "primeplm.fit", "version": 1}')
    rc = main(["predict", "--fit", str(truncated), "--data", TOY,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "malformed fit file" in capsys.readouterr().err

    payload = json.loads(run_fit(tmp_path).read_text())
    payload["centering_means"] = payload["centering_means"][0][:-1]
    reshaped = tmp_path / "reshaped.json"
    reshaped.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["predict", "--fit", str(reshaped), "--data", TOY,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "centering_means" in capsys.readouterr().err


# the kernel block run_fit writes
KERNEL = {
    "bandwidth": "silverman", "fixed_h": None, "projection": "none", "n_projections": 2,
    "projection_dist": "standard_normal", "projection_threshold": 4, "seed": 5,
}


@pytest.mark.parametrize("edit", [
    {"normalization": {"u1": [0.5]}},
    {"normalization": {"u1": [0.4, 0.4]}},
    {"normalization": {"u1": [0.9, 0.1]}},
    {"normalization": {"u1": [0.0, float("nan")]}},
    {"normalization": {}},
    {"normalization": {"u1": [0.0, 1.0], "w1": [0.0, 1.0]}},
    {"spline": {"degree": 3, "interior_knots": [0.7, 0.3]}},
    {"spline": {"degree": 3, "interior_knots": [0.3, 1.7]}},
    {"spline": {"degree": 3, "interior_knots": [0.0, 0.5]}},
    {"kernel": {**KERNEL, "bandwidth": "fixed", "fixed_h": [float("nan"), 1.0, 1.0]}},
    {"kernel": {**KERNEL, "bandwidth": "fixed", "fixed_h": [0.5, float("inf"), 1.0]}},
    {"kernel": {**KERNEL, "seed": -1}},
    # a field that means nothing in its mode
    {"kernel": {**KERNEL, "fixed_h": ["not", "a", "bandwidth"]}},
    {"kernel": {**KERNEL, "fixed_h": [-1.0]}},
    {"kernel": {**KERNEL, "n_projections": 0}},
    # integer fields must be JSON integers
    {"spline": {"degree": 3.7, "interior_knots": [0.3, 0.7]}},
    {"spline": {"degree": 3.0, "interior_knots": [0.3, 0.7]}},
    {"spline": {"degree": "3", "interior_knots": [0.3, 0.7]}},
    {"kernel": {**KERNEL, "seed": 1.5}},
    {"kernel": {**KERNEL, "seed": True}},
    {"kernel": {**KERNEL, "projection_threshold": 2.5}},
    {"kernel": {**KERNEL, "n_projections": "two"}},
    # a kernel block must hold every KernelConfig field and nothing else
    {"kernel": {k: v for k, v in KERNEL.items() if k != "seed"}},
    {"kernel": {**KERNEL, "bandwith": "silverman"}},
    # coefficients that would predict nan or inf for every row
    {"intercept": float("nan")},
    {"curve_coefs": [[float("inf")] + [0.0] * 5]},
    {"linear_coefs": [1.0, float("-inf")]},
    {"centering_means": [[0.0] * 5 + [float("nan")]]},
], ids=[
    "one-value-range", "empty-range", "reversed-range", "nan-range",
    "no-range", "range-for-linear-column",
    "reversed-knots", "knot-above-one", "knot-on-boundary",
    "nan-bandwidth", "infinite-bandwidth", "negative-seed",
    "bandwidths-under-silverman", "negative-bandwidth-under-silverman", "zero-projections",
    "fractional-degree", "float-degree", "string-degree", "fractional-seed", "bool-seed",
    "fractional-threshold", "string-projection-count",
    "kernel-key-missing", "kernel-key-extra",
    "nan-intercept", "infinite-curve-coef", "infinite-linear-coef", "nan-centering-mean",
])
def test_predict_rejects_malformed_fit_file(tmp_path, capsys, edit):
    # two interior knots keep the coefficient shapes valid after the edits
    payload = json.loads(run_fit(tmp_path, TOY, "--knots", "2").read_text())
    payload.update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["predict", "--fit", str(bad), "--data", TOY,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "malformed fit file" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_data_missing_columns(tmp_path, capsys):
    fit_path = run_fit(tmp_path)
    short = tmp_path / "short.csv"
    short.write_text("u1,w1\n0.5,1.0\n")
    rc = main(["predict", "--fit", str(fit_path), "--data", str(short),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "w2" in capsys.readouterr().err


# -- average ---------------------------------------------------------------------


def test_average_report_and_predictions(tmp_path, capsys):
    report_path = tmp_path / "avg.json"
    preds_path = tmp_path / "avg_preds.csv"
    rc = main([
        "average", "--data", TOY, "--response", "y",
        "--out", str(report_path), "--predictions-out", str(preds_path),
        "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "candidate weights" in out

    payload = json.loads(report_path.read_text())
    assert payload["format"] == "primeplm.average"
    assert sorted(payload["weights"]) == ["u1", "w1", "w2"]
    weights = np.array([payload["weights"][c] for c in ("u1", "w1", "w2")])
    assert weights.min() >= -1e-12
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert payload["n_complete"] == 80
    assert not payload["uniform_fallback"]
    assert np.isfinite(payload["objective"])
    assert payload["spline"] == {"degree": 3, "interior_knots": []}
    # the real curve lives on u1, so its candidate should dominate
    assert payload["weights"]["u1"] == max(payload["weights"].values())

    preds = read_predictions(preds_path)
    assert preds.shape == (80,)
    rows = np.genfromtxt(TOY, delimiter=",", skip_header=1)
    assert np.corrcoef(preds, rows[:, 0])[0, 1] > 0.9
    meta = json.loads((preds_path.with_suffix(".csv.meta.json")).read_text())
    assert meta["rows"] == 80


def test_average_predicts_given_rows(tmp_path, capsys):
    preds_path = tmp_path / "p.csv"
    rc = main(["average", "--data", TOY_MISSING, "--out", str(tmp_path / "avg.json"),
               "--predictions-out", str(preds_path), "--predict-data", TOY, "--seed", "3"])
    assert rc == 0
    assert "80 averaged predictions" in capsys.readouterr().out
    table = load_csv(TOY_MISSING, None)
    avg = fit_prime_ma(table, make_spec(), KernelConfig(seed=3))
    assert np.array_equal(read_predictions(preds_path),
                          avg.predict(load_rows(TOY, table.columns)))


def write_holes_csv(path):
    """30 rows, every one missing one covariate: no complete case."""
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(30, 4))
    with open(path, "w") as fh:
        fh.write("y,a,b,c\n")
        for i, row in enumerate(x.tolist()):
            row[1 + i % 3] = "NA"  # every row misses one covariate
            fh.write(",".join(map(str, row)) + "\n")


def test_average_without_complete_rows_needs_predict_data(tmp_path, capsys):
    data = tmp_path / "holes.csv"
    write_holes_csv(data)
    report = tmp_path / "avg.json"
    rc = main(["average", "--data", str(data), "--out", str(report),
               "--predictions-out", str(tmp_path / "p.csv"), "--seed", "1"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "uniform fallback" in captured.out
    assert captured.err == "error: no complete rows to predict; give --predict-data\n"
    assert not (tmp_path / "p.csv").exists()
    assert not report.exists()


def test_average_report_on_the_uniform_fallback_is_strict_json(tmp_path, capsys):
    data = tmp_path / "holes.csv"
    write_holes_csv(data)
    report = tmp_path / "avg.json"
    assert main(["average", "--data", str(data), "--out", str(report), "--seed", "1"]) == 0
    assert "uniform fallback" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(report.read_text(), parse_constant=reject)
    assert payload["uniform_fallback"] is True
    assert payload["objective"] is None


def test_average_reruns_are_byte_identical(tmp_path, capsys):
    args = ["average", "--data", TOY_MISSING, "--response", "y", "--seed", "4"]
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("data_file"), b.pop("data_file")
    assert first.read_bytes().replace(b"r1", b"r2") == second.read_bytes()
    assert a == b


def test_average_report_records_knot_positions(tmp_path, capsys):
    report_path = tmp_path / "avg.json"
    rc = main(["average", "--data", TOY, "--response", "y", "--knots", "3",
               "--out", str(report_path), "--seed", "3"])
    assert rc == 0
    capsys.readouterr()
    spline = json.loads(report_path.read_text())["spline"]
    # positions, as in a fit file, not the knot count
    assert spline["interior_knots"] == pytest.approx([0.25, 0.5, 0.75])


def test_average_missing_response_column(tmp_path, capsys):
    rc = main(["average", "--data", TOY, "--response", "z",
               "--out", str(tmp_path / "a.json"), "--seed", "1"])
    assert rc == 3
    capsys.readouterr()


# -- simulate / report --------------------------------------------------------------


@pytest.fixture(scope="module")
def study_prefix(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("study") / "smoke"
    rc = main([
        "simulate", "--scenario", SCENARIO, "--methods", "prime,cc",
        "--workers", "1", "--out-prefix", str(prefix),
    ])
    assert rc == 0
    return prefix


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_summary_schema(study_prefix):
    rows = read_csv_rows(f"{study_prefix}_summary.csv")
    assert rows[0] == SUMMARY_HEADER == [
        "method", "n", "n_test", "rho", "error_mode", "missing",
        "mr_a", "mr_b", "mr_c", "mr_d", "mr_e", "r_squared",
        "replications", "seed", "n_ok", "n_failed",
        "pe", "pe_sd", "pe_ratio", "mse", "variance", "bias_sq",
    ]
    assert [r[0] for r in rows[1:]] == ["prime", "cc"]
    for row in rows[1:]:
        # the settings of scenario_small.txt, as the summary spells them
        assert row[1:14] == [
            "60", "50", "0.3", "homoscedastic", "scenario1",
            "0.1", "0.5", "0.1", "-1.1", "0.3", "0.7", "2", "7",
        ]
        rec = dict(zip(SUMMARY_HEADER, row))
        assert float(rec["pe"]) > 0.0
        assert int(rec["n_ok"]) + int(rec["n_failed"]) == 2
    prime = dict(zip(SUMMARY_HEADER, rows[1]))
    assert float(prime["pe_ratio"]) == pytest.approx(1.0)


def test_simulate_replication_log(study_prefix):
    rows = read_csv_rows(f"{study_prefix}_replications.csv")
    assert rows[0] == REPLICATION_HEADER
    assert len(rows) == 1 + 2 * 2
    for row in rows[1:]:
        rec = dict(zip(REPLICATION_HEADER, row))
        if rec["ok"] == "1":
            assert float(rec["pe"]) > 0.0
            assert float(rec["beta_sq_err"]) >= 0.0
        else:
            assert rec["error"]


PROVENANCE = """{
  "format": "primeplm.provenance",
  "version": 1,
  "tool_version": %(version)s,
  "scenario_file": %(scenario)s,
  "config": {
    "n": 60,
    "n_test": 50,
    "rho": "0.3",
    "error_mode": "homoscedastic",
    "missing": "scenario1",
    "mr_params": [
      0.1,
      0.5,
      0.1,
      -1.1,
      0.3
    ],
    "r_squared": 0.7,
    "replications": 2,
    "seed": 7
  },
  "methods": [
    "prime",
    "cc"
  ],
  "outputs": [
    %(summary)s,
    %(replications)s
  ]
}
"""


def test_simulate_provenance(study_prefix):
    # the bytes, so a change to the layout or the key order shows
    want = PROVENANCE % {
        "version": json.dumps(cli.__version__),
        "scenario": json.dumps(SCENARIO),
        "summary": json.dumps(f"{study_prefix}_summary.csv"),
        "replications": json.dumps(f"{study_prefix}_replications.csv"),
    }
    assert pathlib.Path(f"{study_prefix}_provenance.json").read_text() == want


def test_simulate_reruns_are_byte_identical(study_prefix, tmp_path, capsys):
    before = {
        name: pathlib.Path(f"{study_prefix}_{name}").read_bytes()
        for name in ("summary.csv", "replications.csv", "provenance.json")
    }
    rc = main([
        "simulate", "--scenario", SCENARIO, "--methods", "prime,cc",
        "--workers", "1", "--out-prefix", str(study_prefix),
    ])
    assert rc == 0
    capsys.readouterr()
    for name, payload in before.items():
        assert pathlib.Path(f"{study_prefix}_{name}").read_bytes() == payload


def test_simulate_flag_overrides(tmp_path, capsys):
    prefix = tmp_path / "ov"
    rc = main([
        "simulate", "--scenario", SCENARIO, "--methods", "prime",
        "--n", "64", "--replications", "1", "--seed", "9",
        "--workers", "1", "--out-prefix", str(prefix),
    ])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(pathlib.Path(f"{prefix}_provenance.json").read_text())
    assert payload["config"]["n"] == 64
    assert payload["config"]["replications"] == 1
    assert payload["config"]["seed"] == 9


def test_simulate_bad_scenario_file(tmp_path, capsys):
    bad = tmp_path / "scenario.txt"
    bad.write_text("n = 60\nreplications = 2\nseed = 1\nflavor = lemon\n")
    rc = main(["simulate", "--scenario", str(bad), "--methods", "prime",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert "flavor" in capsys.readouterr().err


def test_simulate_nonfinite_mr_params(tmp_path, capsys):
    # a NaN deletion coefficient used to leave its group complete
    bad = tmp_path / "scenario.txt"
    bad.write_text("n = 60\nreplications = 1\nseed = 1\nmr_params = nan,0.5,0.1,-1.1,0.3\n")
    rc = main(["simulate", "--scenario", str(bad), "--methods", "cc",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_simulate_unknown_method(tmp_path, capsys):
    rc = main(["simulate", "--scenario", SCENARIO, "--methods", "prime,mystery",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert "mystery" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--methods", ","], "no methods requested"),
    (["--workers", "0"], "workers must be >= 1"),
], ids=["no-method", "no-worker"])
def test_simulate_usage_errors(tmp_path, capsys, flags, message):
    rc = main(["simulate", "--scenario", SCENARIO, *flags, "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_report_markdown_bolds_best_method(study_prefix, tmp_path, capsys):
    out_md = tmp_path / "table.md"
    rc = main(["report", f"{study_prefix}_summary.csv", "--out", str(out_md)])
    assert rc == 0
    capsys.readouterr()

    lines = out_md.read_text().splitlines()
    assert lines[0].startswith("| n | rho | errors | missing |")
    assert "prime" in lines[0] and "cc" in lines[0]
    assert len(lines) == 3

    summary = read_csv_rows(f"{study_prefix}_summary.csv")
    pes = {r[0]: float(dict(zip(SUMMARY_HEADER, r))["pe"]) for r in summary[1:]}
    best = min(pes, key=pes.get)
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    named = dict(zip([h.strip() for h in lines[0].strip("|").split("|")], cells))
    assert named[best].startswith("**") and named[best].endswith("**")
    others = [m for m in pes if m != best]
    assert all("**" not in named[m] for m in others)


def test_report_to_stdout_and_plot_table(study_prefix, tmp_path, capsys):
    plot_path = tmp_path / "ratios.csv"
    rc = main(["report", f"{study_prefix}_summary.csv",
               "--plot-out", str(plot_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("| n | rho |")

    rows = read_csv_rows(plot_path)
    assert rows[0] == ["method", "r_squared", "pe_ratio"]
    assert [r[0] for r in rows[1:]] == ["prime", "cc"]
    assert float(rows[1][2]) == pytest.approx(1.0)


def write_summary(path, rows, **cells):
    """The summary ``rows`` with the given setting cells replaced in every row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow([cells.get(h, c) for h, c in zip(SUMMARY_HEADER, row)])
    return str(path)


def report_lines(capsys, *paths):
    assert main(["report", *paths]) == 0
    return capsys.readouterr().out.splitlines()


def test_report_labels_settings_that_differ(study_prefix, tmp_path, capsys):
    summary = f"{study_prefix}_summary.csv"
    rows = read_csv_rows(summary)
    first = report_lines(capsys, summary)
    # settings that differ only in the six label columns keep the six labels
    bigger = write_summary(tmp_path / "n.csv", rows, n="80")
    lines = report_lines(capsys, summary, bigger)
    assert lines[:3] == first
    assert lines[3].startswith("| 80 | 0.3 | homoscedastic | scenario1 | 0.3 | 0.7 | ")
    # mr_params 0.1,0.3,0.1,-0.5,0.3 and another seed share every label with
    # the scenario's preset, so the columns that differ are shown
    other = write_summary(tmp_path / "mr.csv", rows, mr_b="0.3", mr_d="-0.5", seed="8")
    lines = report_lines(capsys, summary, other)
    labels = "| n | rho | errors | missing | mr(e) | R2 |"
    assert lines[0] == labels + " mr_b | mr_d | seed | prime | cc |"
    same = "| 60 | 0.3 | homoscedastic | scenario1 | 0.3 | 0.7 |"
    assert lines[2].startswith(same + " 0.5 | -1.1 | 7 | ")
    assert lines[3].startswith(same + " 0.3 | -0.5 | 8 | ")


def test_report_marks_absent_method(study_prefix, tmp_path, capsys):
    rows = read_csv_rows(f"{study_prefix}_summary.csv")
    prime_only = write_summary(tmp_path / "prime.csv", rows[:2], n="80")
    lines = report_lines(capsys, f"{study_prefix}_summary.csv", prime_only)
    assert lines[0].endswith("| prime | cc |")
    assert lines[3].startswith("| 80 | ") and lines[3].endswith("** | - |")


def test_report_rejects_non_summary_csv(capsys):
    assert main(["report", TOY]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("column, cell", [
    ("missing", None), ("pe", "big"), ("pe_sd", "x"), ("r_squared", ""),
], ids=["ragged-row", "text-pe", "text-pe-sd", "empty-r-squared"])
def test_report_rejects_malformed_summary_row(study_prefix, tmp_path, capsys, column, cell):
    rows = read_csv_rows(f"{study_prefix}_summary.csv")
    k = SUMMARY_HEADER.index(column)
    rows[2] = rows[2][:k] if cell is None else rows[2][:k] + [cell] + rows[2][k + 1:]
    bad = tmp_path / "summary.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["report", str(bad), "--out", str(tmp_path / "t.md")]) == 3
    assert f"{bad}:3:" in capsys.readouterr().err
    assert not (tmp_path / "t.md").exists()


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.csv")]) == 2
    capsys.readouterr()
