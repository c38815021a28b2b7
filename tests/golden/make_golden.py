"""Regenerate the golden CLI outputs in this directory from ../data.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_golden.py [OUT_DIR]

OUT_DIR defaults to this directory.  The corpus holds:

- for each kernel below, ``primeplm fit --seed 1`` on toy_missing.csv and
  ``primeplm predict`` of that fit on toy.csv;
- the same fit and predict on the complete toy.csv;
- ``primeplm average --seed 1 --predictions-out`` on toy_missing.csv, once
  predicting its complete rows and once with ``--predict-data toy.csv``;
- ``primeplm simulate`` on scenario_small.txt, and ``primeplm report`` of
  its summary with ``--out`` and ``--plot-out``;
- ``primeplm simulate`` on scenario_covariate.txt, the covariate-driven
  deletion with heteroscedastic errors and AR(1) correlation.

The commands run in a scratch directory holding copies of the inputs, so the
file names that the outputs record carry no directory.  tests/test_golden.py
rebuilds the files and compares them with the committed ones; a change to a
committed file needs its reason logged.
"""

import contextlib
import io
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
DATA = HERE.parent / "data"
INPUTS = (
    "toy_missing.csv", "toy.csv", "toy_structure.txt",
    "scenario_small.txt", "scenario_covariate.txt",
)

KERNELS = {
    "product": ["--projection", "none"],
    # 8 cells underflow, the others keep their kernel weights
    "fixed": ["--bandwidth", "fixed:0.003,0.01,0.01"],
    "resampled": ["--projection", "1:standard_normal", "--projection-threshold", "1"],
}


def _commands(workers: int):
    """(argv, files it writes) for every command of the corpus, in order."""
    fits = [(kernel, "toy_missing.csv", flags) for kernel, flags in KERNELS.items()]
    for name, data, flags in [*fits, ("complete", "toy.csv", [])]:
        fit, predictions = f"{name}.fit.json", f"{name}.predictions.csv"
        yield (["fit", "--data", data, "--structure", "toy_structure.txt",
                "--fit-out", fit, "--seed", "1", *flags], [fit])
        yield (["predict", "--fit", fit, "--data", "toy.csv", "--out", predictions],
               [predictions, predictions + ".meta.json"])
    for name, predict_data in (("average", []), ("average_toy", ["--predict-data", "toy.csv"])):
        report, predictions = f"{name}.json", f"{name}.predictions.csv"
        yield (["average", "--data", "toy_missing.csv", "--out", report, "--seed", "1",
                "--predictions-out", predictions, *predict_data],
               [report, predictions, predictions + ".meta.json"])
    for prefix, scenario in (("study", "scenario_small.txt"), ("study2", "scenario_covariate.txt")):
        yield (["simulate", "--scenario", scenario, "--workers", str(workers),
                "--out-prefix", prefix],
               [f"{prefix}_{part}" for part in ("summary.csv", "replications.csv", "provenance.json")])
    yield (["report", "study_summary.csv", "--out", "report.md", "--plot-out", "report_plot.csv"],
           ["report.md", "report_plot.csv"])


def build(out, workers: int = 1) -> list[str]:
    """Write the corpus into ``out`` and return its file names, sorted.
    ``workers`` is passed to ``primeplm simulate``."""
    from primeplm.cli import main

    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    with tempfile.TemporaryDirectory() as work:
        for name in INPUTS:
            shutil.copy(DATA / name, work)
        with contextlib.chdir(work), contextlib.redirect_stdout(io.StringIO()):
            for argv, written in _commands(workers):
                if main(argv) != 0:
                    raise RuntimeError(f"primeplm {' '.join(argv)} failed")
                names += written
        for name in names:
            shutil.copy(pathlib.Path(work) / name, out / name)
    return sorted(names)


if __name__ == "__main__":
    build(sys.argv[1] if len(sys.argv) > 1 else HERE)
