"""Workloads, timed operations and correctness checks of the primeplm benchmark.

Every workload runs the same five operations per round, on a training table
drawn fresh for that round from the run seed:

  prime        fit_prime on the table, predict and score the test rows
  prime_ma     fit_prime_ma on the table, predict and score the test rows
  baselines    fit_cc and fit_mean_impute, predict and score the test rows
  cli_fit      `primeplm fit` on the table's CSV, in-process through cli.main
  cli_predict  `primeplm predict` with that fit file on the predict CSV

Workloads differ only in what the program is given: missingness, kernel
mode, sample size and prediction size (see WORKLOADS).  On ``study`` the
three library operations are simulation.run_study calls of one replication
each, so that table is drawn inside the paper's own Monte Carlo harness.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracle
import primeplm
import tracing
from primeplm import cli, model_averaging, prime_fit, simulation

RHO = "0.3"
R_SQUARED = 0.7
CELL_MISSING = 0.2
OP_KINDS = ("prime", "prime_ma", "baselines", "cli_fit", "cli_predict")
SCORED = ("prime", "prime_ma", "cc", "mean_impute")
MIN_ROUNDS = 2
SETUP_REPEATS = 3
ORACLE_CELLS = 400
ORACLE_TOL = 1e-9
CC_TOL = 1e-10  # the complete-data agreement tolerance of acceptance criterion 1
PREDICT_RTOL = 1e-12

END_TO_END = (
    ("setup_s", "s"),
    ("prime_rep_s", "s/replication"),
    ("prime_ma_rep_s", "s/replication"),
    ("baselines_rep_s", "s/replication"),
    ("cli_fit_s", "s/command"),
    ("cli_predict_s", "s/command"),
    ("pe_prime", "mse"),
    ("pe_prime_ma", "mse"),
    ("peak_rss_mb", "MB"),
)
TIMED_METRIC = {
    "prime_rep_s": "prime",
    "prime_ma_rep_s": "prime_ma",
    "baselines_rep_s": "baselines",
    "cli_fit_s": "cli_fit",
    "cli_predict_s": "cli_predict",
}

PER_LAYER = (
    ("kernel_impute.impute_s", "s/round"),
    ("kernel_impute.cells", "count/round"),
    ("kernel_impute.donor_pairs", "count/round"),
    ("kernel_impute.us_per_cell", "us/cell"),
    ("kernel_impute.ns_per_pair", "ns/pair"),
    ("kernel_impute.fallbacks", "count/round"),
    ("prime_fit.assemble_calls", "count/round"),
    ("prime_fit.assemble_s", "s/round"),
    ("prime_fit.lstsq_s", "s/round"),
    ("prime_fit.save_fit_s", "s/round"),
    ("prime_fit.load_fit_s", "s/round"),
    ("prime_fit.predict_s", "s/round"),
    ("prime_fit.predict_rows", "count/round"),
    ("dataset.pattern_index_s", "s/round"),
    ("dataset.pattern_index_calls", "count/round"),
    ("dataset.load_csv_s", "s/round"),
    ("dataset.normalize_s", "s/round"),
    ("dataset.patterns", "count"),
    ("dataset.incomplete_rows", "count"),
    ("spline.basis_s", "s/round"),
    ("spline.basis_points", "count/round"),
    ("model_averaging.candidate_fits", "count/round"),
    ("model_averaging.cv_matrix_s", "s/round"),
    ("model_averaging.weights_s", "s/round"),
    ("model_averaging.predict_s", "s/round"),
    ("simulation.datagen_s", "s/round"),
    ("simulation.failed_reps", "count/round"),
    ("cli.self_s", "s/round"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # training rows per round
    missing: str  # "scenario1" (paper, MR60), "cells" (each cell with CELL_MISSING) or "none"
    knots: int  # interior knots of the cubic spline
    n_predict: int  # rows in the CLI predict file; the first n_test are scored
    n_test: int = 10_000

    @property
    def study(self) -> bool:
        """Library operations go through run_study, with its projection kernel."""
        return self.missing == "scenario1"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("study", n=1000, missing="scenario1", knots=0, n_predict=10_000),
        Workload("impute_arbitrary", n=4000, missing="cells", knots=0, n_predict=10_000),
        Workload("complete_cli", n=20_000, missing="none", knots=4, n_predict=100_000),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    return dataclasses.replace(workload, n=300, n_predict=400, n_test=400)


def _pe(pred: np.ndarray, mu: np.ndarray) -> float:
    return float(np.mean((pred - mu) ** 2))


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return f"p{100.0 * (n - 10) / n:.0f}", ordered[n - 11]


@dataclass
class RoundInputs:
    index: int
    seed: int
    table: primeplm.ObservationTable
    train_csv: str


@dataclass
class RoundRecord:
    index: int
    times: dict[str, float] = field(default_factory=dict)
    pe: dict[str, float] = field(default_factory=dict)
    failed_reps: int = 0
    spans: list = field(default_factory=list)
    mask: np.ndarray | None = None  # the round's training mask, kept on traced rounds


class Run:
    """One workload at one seed, with its files under ``workdir``.

    Every file is written once under a fresh name: rewriting a file in place
    can make close() wait for the disk (ext4 flushes replaced data), which
    would put device latency into the CLI timings.
    """

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.spec = primeplm.make_spec(3, workload.knots)
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self._serial = 0

    def fresh(self, name: str) -> str:
        """A path in the work directory that has not been written yet."""
        self._serial += 1
        return os.path.join(self.dir, f"{self._serial:06d}-{name}")

    def sweep(self, keep=()) -> None:
        """Delete the files written so far, except those in ``keep``."""
        for entry in os.listdir(self.dir):
            path = os.path.join(self.dir, entry)
            if os.path.isfile(path) and path not in keep:
                os.remove(path)

    # -- inputs ----------------------------------------------------------------

    def prepare(self) -> None:
        """Test rows, the predict CSV and the structure file of the run."""
        self.sigma2 = simulation.sigma_for_r2(
            simulation.calibration_mu_samples(RHO), R_SQUARED
        )
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.x_predict = simulation.gen_covariates(self.w.n_predict, RHO, rng)
        self.x_test = self.x_predict[: self.w.n_test]
        self.mu_test = simulation.true_mean(self.x_test)
        s = primeplm.SIM_STRUCTURE
        self.structure_file = self.fresh("structure.txt")
        with open(self.structure_file, "w", encoding="utf-8") as fh:
            fh.write(f"response = y\nnonlinear = {', '.join(s.nonlinear)}\n"
                     f"linear = {', '.join(s.linear)}\n")
        self.predict_csv = self.fresh("predict.csv")
        complete = np.ones(self.x_predict.shape, dtype=bool)
        primeplm.write_csv(
            self._table(simulation.true_mean(self.x_predict), self.x_predict, complete),
            self.predict_csv,
        )

    def _table(self, y, x, mask) -> primeplm.ObservationTable:
        return primeplm.ObservationTable(
            y=y, x=np.where(mask, x, np.nan), mask=mask,
            columns=primeplm.SIM_COLUMNS, structure=primeplm.SIM_STRUCTURE,
        )

    def round_inputs(self, index: int) -> RoundInputs:
        """The round's training table, also written as the CLI's CSV."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0, index]))
        x = simulation.gen_covariates(self.w.n, RHO, rng)
        mu = simulation.true_mean(x)
        eps = simulation.gen_errors(x, self.sigma2, "homoscedastic", rng)
        if self.w.missing == "scenario1":
            mask = simulation.apply_missing_scenario1(x, eps, primeplm.MR_PARAMS_60, rng)
        elif self.w.missing == "cells":
            mask = rng.uniform(size=x.shape) >= CELL_MISSING
        else:
            mask = np.ones(x.shape, dtype=bool)
        table = self._table(mu + eps, x, mask)
        train_csv = self.fresh("train.csv")
        primeplm.write_csv(table, train_csv)
        return RoundInputs(index, int(rng.integers(2**31)), table, train_csv)

    def kernel(self, r: RoundInputs) -> primeplm.KernelConfig:
        if self.w.study:
            # the kernel run_study fits its replications with
            return primeplm.KernelConfig(
                seed=r.seed, projection="resampled", n_projections=2, projection_threshold=2
            )
        return primeplm.KernelConfig(seed=r.seed)

    # -- operations ------------------------------------------------------------
    # each returns (PE by method, failed replications, outputs for the checks)

    def _study(self, r: RoundInputs, methods: tuple[str, ...]):
        config = primeplm.ScenarioConfig(
            n=self.w.n, replications=1, seed=r.seed, n_test=self.w.n_test
        )
        report = simulation.run_study(config, methods, workers=1, spec=self.spec)
        pe = {m: report.metrics[m].pe for m in methods}
        return pe, sum(report.metrics[m].n_failed for m in methods), {}

    def _score(self, fit) -> float:
        return _pe(prime_fit.predict(fit, self.x_test), self.mu_test)

    def op_prime(self, r: RoundInputs):
        if self.w.study:
            return self._study(r, ("prime",))
        fit = prime_fit.fit_prime(r.table, self.spec, self.kernel(r))
        return {"prime": self._score(fit)}, 0, {"fit": fit}

    def op_prime_ma(self, r: RoundInputs):
        if self.w.study:
            return self._study(r, ("prime_ma",))
        avg = model_averaging.fit_prime_ma(r.table, self.spec, self.kernel(r))
        return {"prime_ma": _pe(avg.predict(self.x_test), self.mu_test)}, 0, {"avg": avg}

    def op_baselines(self, r: RoundInputs):
        if self.w.study:
            return self._study(r, ("cc", "mean_impute"))
        cc = prime_fit.fit_cc(r.table, self.spec, self.kernel(r))
        mean = prime_fit.fit_mean_impute(r.table, self.spec, self.kernel(r))
        return {"cc": self._score(cc), "mean_impute": self._score(mean)}, 0, {"cc": cc}

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def cli_fit_argv(self, r: RoundInputs, out: str) -> list[str]:
        argv = [
            "fit", "--data", r.train_csv, "--structure", self.structure_file,
            "--fit-out", out, "--seed", str(r.seed), "--knots", str(self.w.knots),
        ]
        if self.w.study:
            argv += ["--projection", "2:standard_normal", "--projection-threshold", "2"]
        return argv

    def op_cli_fit(self, r: RoundInputs):
        self.fit_file = self.fresh("fit.json")
        return {}, 0, {"rc": self._cli(self.cli_fit_argv(r, self.fit_file))}

    def op_cli_predict(self, r: RoundInputs):
        self.predictions = self.fresh("predictions.csv")
        rc = self._cli([
            "predict", "--fit", self.fit_file, "--data", self.predict_csv,
            "--out", self.predictions,
        ])
        return {}, 0, {"rc": rc}

    def run_ops(self, r: RoundInputs, tracer=None, check: bool = True) -> RoundRecord:
        rec = RoundRecord(r.index)
        outs: dict[str, dict] = {}
        for kind in OP_KINDS:
            op = getattr(self, "op_" + kind)
            scope = tracer.operation(kind, r.index) if tracer else contextlib.nullcontext()
            self.attempted += 1
            gc.collect()  # so no op pays for collecting the garbage of the one before
            try:
                with scope:
                    t0 = time.perf_counter()
                    pe, failed_reps, out = op(r)
                    elapsed = time.perf_counter() - t0
            except Exception:  # one failing operation is counted, not fatal
                self.failed += 1
                print(f"round {r.index} {kind} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            rec.times[kind] = elapsed
            rec.pe.update(pe)
            rec.failed_reps += failed_reps
            outs[kind] = out
            bad_pe = [m for m, v in pe.items() if not math.isfinite(v)]
            if failed_reps or bad_pe or out.get("rc", 0) != 0:
                self.failed += 1
                print(
                    f"round {r.index} {kind} failed: {failed_reps} failed replications, "
                    f"non-finite PE for {bad_pe}, exit code {out.get('rc', 0)}",
                    file=sys.stderr,
                )
        if check:
            self._check_round(r, outs)
        return rec

    # -- checks ----------------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def _check_round(self, r: RoundInputs, outs: dict[str, dict]) -> None:
        first = r.index == 0
        avg = outs.get("prime_ma", {}).get("avg")
        if avg is None and self.w.study and first:
            avg = model_averaging.fit_prime_ma(r.table, self.spec, self.kernel(r))
        if avg is not None:
            w = np.asarray(avg.weights)
            self.check(
                "prime_ma weights lie on the simplex",
                bool(np.all(w >= 0.0)) and abs(float(w.sum()) - 1.0) <= 1e-12,
                f"weights {np.round(w, 6).tolist()}",
            )

        fit = outs.get("prime", {}).get("fit")
        cc = outs.get("baselines", {}).get("cc")
        if self.w.missing == "none" and fit is not None and cc is not None:
            gap = max(
                abs(fit.intercept - cc.intercept),
                float(np.abs(fit.curve_coefs - cc.curve_coefs).max()),
                float(np.abs(fit.linear_coefs - cc.linear_coefs).max()),
            )
            self.check(
                "fit_prime equals fit_cc on complete data", gap <= CC_TOL,
                f"max coefficient gap {gap:.2e} (tol {CC_TOL:g})",
            )

        if "cli_predict" in outs and outs["cli_predict"]["rc"] == 0:
            if fit is None:
                fit = prime_fit.fit_prime(r.table, self.spec, self.kernel(r))
            got = np.loadtxt(
                self.predictions, delimiter=",", skiprows=1, usecols=1, ndmin=1
            )
            want = prime_fit.predict(fit, self.x_predict)
            same = got.shape == want.shape and bool(
                np.allclose(got, want, rtol=PREDICT_RTOL, atol=PREDICT_RTOL)
            )
            gap = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
            self.check(
                "`primeplm predict` equals library predict", same,
                f"{got.size} rows, max gap {gap:.2e}",
            )

        if first and outs.get("cli_fit", {}).get("rc") == 0:
            again = self.fresh("fit.json")
            rc = self._cli(self.cli_fit_argv(r, again))
            with open(self.fit_file, "rb") as a, open(again, "rb") as b:
                same = rc == 0 and a.read() == b.read()
            self.check("fit file is byte-identical across runs", same, f"second exit code {rc}")

        if first and self.w.missing == "cells":
            self.check_imputation(r)

    def check_imputation(self, r: RoundInputs) -> float:
        """assemble_design against the direct NW formula on sampled cells."""
        table = r.table
        normalized, _ = primeplm.minmax_normalize(table)
        design = prime_fit.assemble_design(
            normalized, primeplm.build_pattern_index(normalized), self.spec, self.kernel(r)
        )
        structure = table.structure
        nonlinear = [table.position(c) for c in structure.nonlinear]
        z = oracle.scaled(table.x, table.mask, nonlinear)
        h = oracle.silverman(z, table.mask)
        L = self.spec.basis_size

        def basis(values):
            return primeplm.basis_matrix(self.spec, values)

        cells = np.argwhere(~table.mask)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        picked = cells[rng.choice(len(cells), min(ORACLE_CELLS, len(cells)), replace=False)]
        worst = 0.0
        for i, j in picked:
            name = table.columns[j]
            if j in nonlinear:
                k = structure.nonlinear.index(name)
                at = design.labels.index(f"{name}:b1")
                got = design.matrix[i, at : at + L] + design.centering_means[k]
                want = oracle.imputed_value(z, table.mask, h, i, j, basis)
            else:
                got = design.matrix[i, design.labels.index(name)]
                want = oracle.imputed_value(z, table.mask, h, i, j)
            worst = max(worst, float(np.max(np.abs(got - want))))
        self.check(
            "imputed cells match the direct Nadaraya-Watson formula", worst <= ORACLE_TOL,
            f"{len(picked)} cells, max |diff| {worst:.2e} (tol {ORACLE_TOL:g})",
        )
        return worst

    # -- set-up and the timed loop ---------------------------------------------

    def warm_up(self) -> None:
        """Run every operation once on a tiny table, so lazy set-up is done."""
        warm = Run(tiny(self.w), self.seed, self.fresh("warmup"))
        try:
            warm.prepare()
            warm.run_ops(warm.round_inputs(0), check=False)
        finally:
            shutil.rmtree(warm.dir, ignore_errors=True)

    def setup(self) -> list[float]:
        """Set up SETUP_REPEATS times; returns each set-up's seconds."""
        times = []
        for _ in range(SETUP_REPEATS):
            self.sweep()
            t0 = time.perf_counter()
            self.prepare()
            self.warm_up()
            times.append(time.perf_counter() - t0)
        return times

    def measure(self, seconds: float, tracer: tracing.Tracer | None = None):
        """Rounds until the next would end after ``seconds``.  With a tracer each
        round's inputs run once untraced and once traced, the traced pass going
        first in odd rounds so that neither pass always meets cold state."""
        rounds: list[tuple[RoundRecord, RoundRecord | None]] = []
        durations: list[float] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            r = self.round_inputs(len(rounds))
            traced = None
            if tracer is not None and r.index % 2:
                traced = self.traced_pass(r, tracer)
            plain = self.run_ops(r)
            if tracer is not None and traced is None:
                traced = self.traced_pass(r, tracer)
            rounds.append((plain, traced))
            self.sweep(keep=(self.predict_csv, self.structure_file))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
                return rounds, elapsed

    def traced_pass(self, r: RoundInputs, tracer: tracing.Tracer) -> RoundRecord:
        first = len(tracer.spans)
        tracer.install()
        try:
            traced = self.run_ops(r, tracer=tracer, check=False)
        finally:
            tracer.uninstall()
        traced.spans = tracer.spans[first:]
        traced.mask = r.table.mask
        annotate_masks(traced.spans)
        return traced


# -- per-layer numbers -------------------------------------------------------------


def annotate_masks(spans) -> None:
    """Replace the mask an assemble_design span saw by its cell and donor-pair counts."""
    seen: dict[bytes, tuple[int, int]] = {}
    for s in spans:
        mask = s.counts.pop("mask", None)
        if mask is None:
            continue
        key = mask.tobytes() + bytes(str(mask.shape), "ascii")
        if key not in seen:
            seen[key] = oracle.donor_counts(mask)
        s.counts["cells"], s.counts["donor_pairs"] = seen[key]


def layer_values(plain: RoundRecord, traced: RoundRecord) -> dict[str, float]:
    """Per-layer metrics of one round's traced pass."""
    spans = traced.spans
    own = tracing.self_times(spans)
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.sid]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    impute_s = self_s.get("prime_fit.assemble_design", 0.0)
    cells = counts.get("cells", 0)
    pairs = counts.get("donor_pairs", 0)
    plain_total = sum(plain.times.values())
    mask = traced.mask
    return {
        "kernel_impute.impute_s": impute_s,
        "kernel_impute.cells": cells,
        "kernel_impute.donor_pairs": pairs,
        "kernel_impute.us_per_cell": impute_s / cells * 1e6 if cells else 0.0,
        "kernel_impute.ns_per_pair": impute_s / pairs * 1e9 if pairs else 0.0,
        "kernel_impute.fallbacks": counts.get("fallbacks", 0),
        "prime_fit.assemble_calls": calls.get("prime_fit.assemble_design", 0),
        "prime_fit.assemble_s": dur.get("prime_fit.assemble_design", 0.0),
        "prime_fit.lstsq_s": dur.get("prime_fit.solve_least_squares", 0.0),
        "prime_fit.save_fit_s": dur.get("prime_fit.save_fit", 0.0),
        "prime_fit.load_fit_s": dur.get("prime_fit.load_fit", 0.0),
        "prime_fit.predict_s": dur.get("prime_fit.predict", 0.0),
        "prime_fit.predict_rows": counts.get("predict_rows", 0),
        "dataset.pattern_index_s": dur.get("dataset.build_pattern_index", 0.0),
        "dataset.pattern_index_calls": calls.get("dataset.build_pattern_index", 0),
        "dataset.load_csv_s": dur.get("dataset.load_csv", 0.0),
        "dataset.normalize_s": dur.get("dataset.minmax_normalize", 0.0),
        "dataset.patterns": int(np.unique(mask, axis=0).shape[0]),
        "dataset.incomplete_rows": int((~mask.all(axis=1)).sum()),
        "spline.basis_s": dur.get("spline.basis_matrix", 0.0),
        "spline.basis_points": counts.get("basis_points", 0),
        "model_averaging.candidate_fits": calls.get("model_averaging.fit_candidate_full", 0),
        "model_averaging.cv_matrix_s": dur.get("model_averaging.build_cv_matrix", 0.0),
        "model_averaging.weights_s": dur.get("model_averaging.cv_weights", 0.0),
        "model_averaging.predict_s": dur.get("model_averaging.predict_averaged", 0.0),
        "simulation.datagen_s": sum(dur.get(name, 0.0) for name in tracing.DATAGEN),
        "simulation.failed_reps": plain.failed_reps + traced.failed_reps,
        "cli.self_s": sum(self_s.get(n, 0.0) for n in ("cli.main", "cli.cmd_fit", "cli.cmd_predict")),
        "trace.overhead_frac": sum(traced.times.values()) / plain_total - 1.0 if plain_total else 0.0,
    }


def breakdown(spans, ops) -> dict[str, dict[str, float]]:
    """Mean self time per layer, per operation of each kind (plus assemble calls)."""
    own = tracing.self_times(spans)
    per_kind: dict[str, dict[str, float]] = {}
    n_ops: dict[str, int] = {}
    for s in spans:
        kind = ops[s.op][0]
        row = per_kind.setdefault(kind, {})
        row[s.layer] = row.get(s.layer, 0.0) + own[s.sid]
        if s.name == "prime_fit.assemble_design":
            row["assemble_calls"] = row.get("assemble_calls", 0) + 1
        if s.layer == "bench":
            n_ops[kind] = n_ops.get(kind, 0) + 1
    return {
        kind: {key: value / n_ops[kind] for key, value in row.items()}
        for kind, row in per_kind.items()
    }


# -- one benchmark run ---------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: str,
        import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    workdir = os.path.join(out_dir, f"work-{workload.name}-{os.getpid()}")
    try:
        bench = Run(workload, seed, workdir)
        setup_times = bench.setup()
        tracer = tracing.Tracer() if trace else None
        t_measure = time.perf_counter()
        rounds, elapsed = bench.measure(seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record: dict = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "measured_s": elapsed,
        "setup_repeats_s": setup_times,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in bench.checks],
    }
    plains = [plain for plain, _ in rounds]
    if not trace:
        pe_means = {}
        for method in SCORED:
            values = [p.pe[method] for p in plains if math.isfinite(p.pe.get(method, math.nan))]
            pe_means[method] = statistics.fmean(values) if values else None
        metrics, timings = {}, {}
        for name, unit in END_TO_END:
            if name == "setup_s":
                value = import_s + statistics.median(setup_times)
            elif name in TIMED_METRIC:
                kind = TIMED_METRIC[name]
                samples = [p.times[kind] for p in plains if kind in p.times]
                value = statistics.median(samples) if samples else None
                if samples:
                    label, tail_value = tail(samples)
                    timings[name] = {"median": value, label: tail_value, "samples": len(samples)}
            elif name.startswith("pe_"):
                value = pe_means[name[3:]]
            else:  # peak_rss_mb: ru_maxrss is in KiB on Linux
                value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics[name] = {"value": value, "unit": unit}
        record["timings"] = timings
        record["pe_mean_by_method"] = pe_means
        record["per_round"] = [{"times": p.times, "pe": p.pe} for p in plains]
    else:
        per_round = [layer_values(plain, traced) for plain, traced in rounds]
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "fail_frac":
                value = bench.failed / bench.attempted
            else:
                value = statistics.median(v[name] for v in per_round)
            metrics[name] = {"value": value, "unit": unit}
        all_spans = [s for _, traced in rounds for s in traced.spans]
        record["breakdown_s_per_op"] = breakdown(all_spans, tracer.ops)
        record["per_round"] = per_round
        record["spans"] = tracer.dump(t_measure)
        record["absent_hooks"] = list(tracer.absent)
    record.update(
        correct=bench.failed == 0,
        attempted=bench.attempted,
        failed=bench.failed,
        metrics=metrics,
    )
    return record

