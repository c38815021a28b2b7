"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench  # noqa: E402
import oracle  # noqa: E402
import primeplm  # noqa: E402
import tracing  # noqa: E402
from primeplm import model_averaging, prime_fit  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_workload_runs_and_checks(name, trace, tmp_path):
    record = bench.run(bench.tiny(bench.WORKLOADS[name]), 5, 0.0, trace, str(tmp_path))
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["checks"]
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert [(k, v["unit"]) for k, v in record["metrics"].items()] == list(expected)
    values = [v["value"] for v in record["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert min(values) > 0.0
    else:
        assert record["absent_hooks"] == []
        assert record["metrics"]["prime_fit.assemble_calls"]["value"] > 0
    assert os.listdir(tmp_path) == []  # work files are removed


def test_benchmark_json_names_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _small_table(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = primeplm.gen_covariates(n, "0.3", rng)
    mask = rng.uniform(size=x.shape) >= 0.15
    y = primeplm.true_mean(x) + rng.standard_normal(n)
    return primeplm.ObservationTable(
        y=y, x=np.where(mask, x, np.nan), mask=mask,
        columns=primeplm.SIM_COLUMNS, structure=primeplm.SIM_STRUCTURE,
    )


def test_tracer_tolerates_a_missing_hooked_name(monkeypatch):
    # cv_weights gone from the library: its hook is absent, the run goes on
    monkeypatch.delattr(model_averaging, "cv_weights")
    hooks = tracing.HOOKS + (("no_such_module", "f", "x", None),)
    tracer = tracing.Tracer(hooks)
    table = _small_table()
    original = prime_fit.fit_prime
    tracer.install()
    try:
        assert prime_fit.fit_prime is not original
        with tracer.operation("prime", 0):
            prime_fit.fit_prime(table)
    finally:
        tracer.uninstall()
    assert prime_fit.fit_prime is original
    assert tracer.absent == ["model_averaging.cv_weights", "no_such_module.f"]

    bench.annotate_masks(tracer.spans)
    plain = bench.RoundRecord(0, times={"prime": 1.0})
    traced = bench.RoundRecord(0, times={"prime": 1.0}, spans=tracer.spans, mask=table.mask)
    values = bench.layer_values(plain, traced)
    assert values["model_averaging.weights_s"] == 0.0
    assert values["prime_fit.assemble_calls"] == 1
    assert (values["kernel_impute.cells"], values["kernel_impute.donor_pairs"]) == (
        oracle.donor_counts(table.mask)
    )
    assert values["kernel_impute.impute_s"] > 0.0


def test_imputation_check_catches_a_wrong_design(tmp_path, monkeypatch):
    run = bench.Run(bench.tiny(bench.WORKLOADS["impute_arbitrary"]), 3, str(tmp_path))
    run.prepare()
    r = run.round_inputs(0)
    assert run.check_imputation(r) <= bench.ORACLE_TOL
    assert run.failed == 0

    real = prime_fit.assemble_design

    def off_by_a_little(*args, **kwargs):
        design = real(*args, **kwargs)
        return type(design)(design.matrix + 1e-7, design.labels,
                            design.centering_means, design.imputation)

    monkeypatch.setattr(prime_fit, "assemble_design", off_by_a_little)
    run.check_imputation(r)
    assert run.failed == 1 and not run.checks[-1][1]


def test_donor_counts_match_a_direct_count():
    rng = np.random.default_rng(0)
    mask = rng.uniform(size=(60, 5)) > 0.3
    cells = pairs = 0
    for i, j in np.argwhere(~mask):
        donors = mask[:, j] & mask[:, mask[i]].all(axis=1)
        cells += 1
        pairs += int(donors.sum())
    assert oracle.donor_counts(mask) == (cells, pairs)


def test_run_fails_without_program_sources(tmp_path):
    # a directory holding only the benchmark files, as a checkout without src/
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
