"""Command-line front end: fit, predict, average, simulate, report.

Exit codes: 0 success, 2 usage problems, 3 unreadable or inconsistent
data, 4 numerical failures.  All randomness flows from --seed (or the
scenario file's seed); outputs carry their resolved configuration and
contain no timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from . import __version__
from ._kv import read_kv_file
from .dataset import _observed_ranges, complete_case_subset, load_csv, load_rows, load_structure
from .errors import (
    InsufficientCompleteCases,
    InvalidConfig,
    MalformedCsv,
    PrimeError,
    SingularGram,
    StructureMismatch,
    Underdetermined,
)
from .kernel_impute import KernelConfig
from .model_averaging import fit_prime_ma
from .prime_fit import _diagnostics_payload, _write_json, fit_prime, load_fit, predict, save_fit
from .simulation import (
    _ALL_METHODS,
    _SETTINGS,
    TRUE_BETA,
    MethodMetrics,
    MetricsReport,
    run_study,
    scenario_from_entries,
)
from .spline import make_spec

# any other PrimeError is a data problem (exit 3)
_USAGE_ERRORS = (FileNotFoundError, IsADirectoryError, PermissionError, InvalidConfig)
_NUMERICAL_ERRORS = (
    Underdetermined,
    InsufficientCompleteCases,
    SingularGram,
    np.linalg.LinAlgError,
)

# a summary row: the method, the scenario settings (mr_params spread over
# mr_a..mr_e), then MethodMetrics' other fields
_MR_COLUMNS = ("mr_a", "mr_b", "mr_c", "mr_d", "mr_e")
_SETTING_COLUMNS = [
    column for key, _, _ in _SETTINGS
    for column in (_MR_COLUMNS if key == "mr_params" else (key,))
]
SUMMARY_HEADER = ["method", *_SETTING_COLUMNS, *(f.name for f in fields(MethodMetrics)[1:])]

REPLICATION_HEADER = ["method", "replication", "ok", "pe", "beta_sq_err", "error"]


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    fresh = int(np.random.SeedSequence().entropy % (2**32))
    print(f"note: no --seed given, using {fresh}", file=sys.stderr)
    return fresh


def _kernel_config(args, seed: int) -> KernelConfig:
    """The kernel settings the flags name; the rest keep KernelConfig's defaults."""
    settings = {"projection_threshold": args.projection_threshold, "seed": seed}
    bandwidth, projection = args.bandwidth, args.projection
    if bandwidth.startswith("fixed:"):
        try:
            settings["fixed_h"] = tuple(float(v) for v in bandwidth[len("fixed:"):].split(","))
        except ValueError:
            raise InvalidConfig(f"cannot parse fixed bandwidths in {bandwidth!r}") from None
        settings["bandwidth"] = "fixed"
    elif bandwidth != "silverman":
        raise InvalidConfig(
            f"--bandwidth must be 'silverman' or 'fixed:h1,h2,...', got {bandwidth!r}"
        )
    if projection != "none":
        parts = projection.split(":")
        if len(parts) != 2:
            raise InvalidConfig(f"--projection must be 'none' or 'B:dist', got {projection!r}")
        try:
            settings["n_projections"] = int(parts[0])
        except ValueError:
            raise InvalidConfig(f"projection count must be an integer, got {parts[0]!r}") from None
        settings.update(projection="resampled", projection_dist=parts[1])
    return KernelConfig(**settings)


def _spline_spec(args, table):
    if args.placement == "quantile":
        # the observed values of the nonlinear columns, each scaled onto [0, 1]
        nonlinear = table.structure.nonlinear
        nmap = _observed_ranges(table, nonlinear)
        pooled = np.concatenate([np.empty(0)] + [
            nmap.apply(c, table.x[table.mask[:, j], j], clamp=False)
            for c, j in zip(nonlinear, map(table.position, nonlinear))
        ])
        return make_spec(args.degree, args.knots, "quantile", data=pooled)
    return make_spec(args.degree, args.knots)


def _cell(value) -> str:
    """A CSV cell: a float as its round-trip repr, anything else as str."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_predictions(path: str, preds: np.ndarray, meta: dict) -> None:
    """``row,prediction`` CSV plus its ``.meta.json`` sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,prediction\r\n")  # csv's line ends
        fh.writelines(f"{i},{value!r}\r\n" for i, value in enumerate(preds.tolist()))
    _write_json(path + ".meta.json", {
        "format": "primeplm.predictions",
        "version": 1,
        "tool_version": __version__,
        **meta,
        "rows": int(preds.size),
    })


# -- fit -------------------------------------------------------------------


def cmd_fit(args) -> int:
    seed = _resolve_seed(args.seed)
    structure, response = load_structure(args.structure)
    table = load_csv(
        args.data,
        structure,
        response=response,
        missing_token=args.missing_token,
        drop_missing_response=args.drop_missing_response,
    )
    spec = _spline_spec(args, table)
    config = _kernel_config(args, seed)
    fit = fit_prime(table, spec, config)
    save_fit(fit, args.fit_out)

    diag = fit.diagnostics
    print(f"fitted {table.n} rows ({diag.n_complete} complete), "
          f"design {diag.n_rows} x {diag.n_columns}, rank {diag.rank}")
    print(f"intercept  {fit.intercept: .6g}")
    for name, value in zip(fit.structure.linear, fit.linear_coefs):
        print(f"{name:<10} {value: .6g}")
    if diag.imputation.total_fallbacks:
        counts = _diagnostics_payload(diag, fit.structure)  # the fit file's column order
        print(f"fallback imputations: {diag.imputation.total_fallbacks} "
              f"(no donors: {counts['no_donor_fallbacks']}, "
              f"underflow: {counts['underflow_fallbacks']})")
    for note in diag.notes:
        print(f"note: {note}")
    print(f"fit written to {args.fit_out}")
    return 0


# -- predict -----------------------------------------------------------------


def cmd_predict(args) -> int:
    fit = load_fit(args.fit)
    rows = load_rows(args.data, fit.columns, args.missing_token)
    preds = predict(fit, rows)
    _write_predictions(
        args.out, preds, {"fit_file": str(args.fit), "data_file": str(args.data)}
    )
    print(f"{preds.size} predictions written to {args.out}")
    return 0


# -- average -----------------------------------------------------------------


def cmd_average(args) -> int:
    seed = _resolve_seed(args.seed)
    table = load_csv(
        args.data, None, response=args.response, missing_token=args.missing_token
    )
    spec = make_spec(args.degree, args.knots)
    config = _kernel_config(args, seed)
    avg = fit_prime_ma(table, spec, config)
    print(f"candidate weights (complete cases: {avg.n_complete}"
          + (", uniform fallback" if avg.uniform_fallback else "") + ")")
    for name, w in zip(avg.candidates, avg.weights):
        print(f"{name:<10} {w:.4f}")
    for note in avg.notes:
        print(f"note: {note}")

    preds = None  # computed before any file is written, so a failure leaves none
    if args.predictions_out:
        if args.predict_data:
            rows = load_rows(args.predict_data, table.columns, args.missing_token)
        else:
            rows = table.x[complete_case_subset(table)]
            if rows.size == 0:
                raise InsufficientCompleteCases(
                    "no complete rows to predict; give --predict-data"
                )
        preds = avg.predict(rows)

    payload = {
        "format": "primeplm.average",
        "version": 1,
        "tool_version": __version__,
        "data_file": str(args.data),
        "response": args.response,
        "spline": {"degree": spec.degree, "interior_knots": list(spec.interior_knots)},
        "kernel": {
            "bandwidth": args.bandwidth,
            "projection": args.projection,
            "projection_threshold": args.projection_threshold,
            "seed": seed,
        },
        "weights": {name: w for name, w in zip(avg.candidates, avg.weights.tolist())},
        "n_complete": avg.n_complete,
        "n_dropped": avg.n_dropped,
        # the uniform fallback has no CV objective (NaN), which JSON cannot hold
        "objective": avg.objective if np.isfinite(avg.objective) else None,
        "uniform_fallback": avg.uniform_fallback,
        "notes": list(avg.notes),
    }
    _write_json(args.out, payload)
    if preds is not None:
        _write_predictions(args.predictions_out, preds, {"average_report": str(args.out)})
        print(f"{preds.size} averaged predictions written to {args.predictions_out}")
    print(f"report written to {args.out}")
    return 0


# -- simulate ------------------------------------------------------------------


def _summary_rows(report: MetricsReport) -> list[list[str]]:
    settings = []
    for _, name, _ in _SETTINGS:
        value = getattr(report.config, name)
        settings += map(_cell, value) if name == "mr_params" else [_cell(value)]
    return [
        [method, *settings, *map(_cell, astuple(report.metrics[method])[1:])]
        for method in report.methods
    ]


def cmd_simulate(args) -> int:
    entries = read_kv_file(args.scenario, InvalidConfig)
    for key in ("n", "replications", "seed"):
        if (value := getattr(args, key)) is not None:
            entries[key] = str(value)
    config = scenario_from_entries(entries)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    report = run_study(config, methods, workers=workers)

    summary_path = f"{args.out_prefix}_summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(_summary_rows(report))

    repl_path = f"{args.out_prefix}_replications.csv"
    with open(repl_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPLICATION_HEADER)
        for rec in report.records:
            beta_err = ""
            if rec.beta is not None:
                beta_err = _cell(((np.array(rec.beta) - TRUE_BETA) ** 2).sum())
            writer.writerow([
                rec.method, str(rec.replication),
                "1" if rec.pe is not None else "0",
                _cell(rec.pe) if rec.pe is not None else "",
                beta_err,
                rec.error or "",
            ])

    prov_path = f"{args.out_prefix}_provenance.json"
    _write_json(prov_path, {
        "format": "primeplm.provenance",
        "version": 1,
        "tool_version": __version__,
        "scenario_file": str(args.scenario),
        "config": {key: getattr(config, name) for key, name, _ in _SETTINGS},
        "methods": list(report.methods),
        "outputs": [summary_path, repl_path],
    })

    for method in report.methods:
        m = report.metrics[method]
        line = f"{method:<12} PE {m.pe:.4f} ({m.pe_sd:.4f})"
        if np.isfinite(m.pe_ratio):
            line += f"  ratio {m.pe_ratio:.3f}"
        if m.n_failed:
            line += f"  [{m.n_failed} failed]"
        print(line)
    print(f"summary written to {summary_path}")
    return 0


# -- report --------------------------------------------------------------------


def _read_summary(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedCsv(f"{path}: empty file")
        if header != SUMMARY_HEADER:
            raise StructureMismatch(
                f"{path}: not a summary file (unexpected columns)"
            )
        rows = []
        for cells in reader:
            where = f"{path}:{reader.line_num}"
            if len(cells) != len(header):
                raise MalformedCsv(f"{where}: {len(cells)} cells, expected {len(header)}")
            row = dict(zip(header, cells))
            for key in ("r_squared", "pe", "pe_sd"):  # the cells report reads as numbers
                try:
                    float(row[key])
                except ValueError:
                    raise MalformedCsv(f"{where}: {key} {row[key]!r} is not a number") from None
            rows.append(row)
        return rows


def cmd_report(args) -> int:
    rows: list[dict[str, str]] = []
    for path in args.inputs:
        rows.extend(_read_summary(path))
    if not rows:
        raise StructureMismatch("summary files contain no rows")

    settings: dict[tuple, dict[str, dict[str, str]]] = {}
    methods: list[str] = []
    for row in rows:
        key = tuple(row[k] for k in _SETTING_COLUMNS)
        settings.setdefault(key, {})[row["method"]] = row
        if row["method"] not in methods:
            methods.append(row["method"])

    labels = ("n", "rho", "error_mode", "missing", "mr_e", "r_squared")
    # a setting column the labels leave out is shown when the settings differ in it
    varying = [c for k, c in enumerate(_SETTING_COLUMNS)
               if c not in labels and len({key[k] for key in settings}) > 1]
    lines = []
    head = ["n", "rho", "errors", "missing", "mr(e)", "R2", *varying, *methods]
    lines.append("| " + " | ".join(head) + " |")
    lines.append("|" + "|".join("---" for _ in head) + "|")
    for key, per_method in settings.items():
        setting = dict(zip(_SETTING_COLUMNS, key))
        cells = [setting[c] for c in labels[:-1]]
        cells += [f"{float(setting['r_squared']):g}", *(setting[c] for c in varying)]
        pes = {
            m: float(r["pe"]) for m, r in per_method.items() if np.isfinite(float(r["pe"]))
        }
        best = min(pes, key=pes.get) if pes else None
        for method in methods:
            row = per_method.get(method)
            if row is None:
                cells.append("-")
                continue
            pe, sd = float(row["pe"]), float(row["pe_sd"])
            text = f"{pe:.3f} ({sd:.3f})" if np.isfinite(sd) else f"{pe:.3f}"
            if method == best:
                text = f"**{text}**"
            cells.append(text)
        lines.append("| " + " | ".join(cells) + " |")
    markdown = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"markdown written to {args.out}")
    else:
        print(markdown, end="")

    if args.plot_out:
        with open(args.plot_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "r_squared", "pe_ratio"])
            for row in rows:
                writer.writerow([row["method"], row["r_squared"], row["pe_ratio"]])
        print(f"ratio table written to {args.plot_out}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_kernel_flags(sub) -> None:
    sub.add_argument("--degree", type=int, default=3, help="spline degree (default 3)")
    sub.add_argument("--knots", type=int, default=0,
                     help="number of interior knots (default 0)")
    sub.add_argument("--bandwidth", default="silverman",
                     help="'silverman' or 'fixed:h1,h2,...', one finite positive h per "
                          "covariate column in its raw units")
    sub.add_argument("--projection", default="none",
                     help="'none' or 'B:dist' with dist standard_normal|scaled_uniform")
    sub.add_argument("--projection-threshold", type=int, default=4,
                     help="project when a unit observes more than this many covariates")
    sub.add_argument("--seed", type=int, default=None,
                     help="nonnegative RNG seed (fresh entropy if omitted, printed to stderr)")
    sub.add_argument("--missing-token", default="NA",
                     help="cell text marking a missing value (default NA)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeplm",
        description="Partially linear additive models with missing covariates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit on all rows with kernel imputation")
    p_fit.add_argument("--data", required=True, help="training CSV")
    p_fit.add_argument("--structure", required=True,
                       help="sidecar naming response/nonlinear/linear columns")
    p_fit.add_argument("--fit-out", required=True, help="output fit file (JSON)")
    p_fit.add_argument("--placement", choices=("uniform", "quantile"), default="uniform")
    p_fit.add_argument("--drop-missing-response", action="store_true",
                       help="drop rows whose response is missing instead of failing")
    _add_kernel_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict means for complete rows")
    p_pred.add_argument("--fit", required=True, help="fit file from 'fit'")
    p_pred.add_argument("--data", required=True, help="CSV of complete covariate rows")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.add_argument("--missing-token", default="NA")
    p_pred.set_defaults(func=cmd_predict)

    p_avg = sub.add_parser("average", help="model averaging over candidate fits")
    p_avg.add_argument("--data", required=True, help="training CSV")
    p_avg.add_argument("--response", default="y", help="response column (default y)")
    p_avg.add_argument("--out", required=True, help="output weights report (JSON)")
    p_avg.add_argument("--predictions-out", default=None,
                       help="optional CSV of averaged predictions")
    p_avg.add_argument("--predict-data", default=None,
                       help="complete rows to predict (default: input's complete rows)")
    _add_kernel_flags(p_avg)
    p_avg.set_defaults(func=cmd_average)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--scenario", required=True, help="scenario key=value file")
    p_sim.add_argument("--n", type=int, default=None, help="override sample size")
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sim.add_argument("--methods", default=",".join(_ALL_METHODS),
                       help="comma list: " + ", ".join(_ALL_METHODS))
    p_sim.add_argument("--workers", type=int, default=None,
                       help="parallel workers (default: all cores)")
    p_sim.add_argument("--out-prefix", default="study",
                       help="prefix for summary/replications/provenance files")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="merge summaries into a markdown table")
    p_rep.add_argument("inputs", nargs="+", help="summary CSVs from 'simulate'")
    p_rep.add_argument("--out", default=None, help="markdown output (default stdout)")
    p_rep.add_argument("--plot-out", default=None,
                       help="optional CSV of (method, r_squared, pe_ratio)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as err:
        return _fail(4, str(err))
    except _USAGE_ERRORS as err:
        return _fail(2, str(err))
    except PrimeError as err:
        return _fail(3, str(err))


if __name__ == "__main__":
    sys.exit(main())
