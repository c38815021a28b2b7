"""Regenerate the golden CLI outputs in this directory from ../data.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_golden.py [OUT_DIR]

OUT_DIR defaults to this directory.  For each kernel below, ``primeplm fit
--seed 1`` runs on toy_missing.csv and ``primeplm predict`` of that fit on
toy.csv.  The commands run in a scratch directory holding copies of the
inputs, so the file names that the outputs record carry no directory.
tests/test_golden.py rebuilds the files and compares them with the
committed ones; a change to a committed file needs its reason logged.
"""

import contextlib
import io
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
DATA = HERE.parent / "data"
INPUTS = ("toy_missing.csv", "toy.csv", "toy_structure.txt")

KERNELS = {
    "product": ["--projection", "none"],
    # 8 cells underflow, the others keep their kernel weights
    "fixed": ["--bandwidth", "fixed:0.003,0.01,0.01"],
    "resampled": ["--projection", "1:standard_normal", "--projection-threshold", "1"],
}


def build(out) -> list[str]:
    """Write the corpus into ``out`` and return its file names, sorted."""
    from primeplm.cli import main

    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    with tempfile.TemporaryDirectory() as work:
        for name in INPUTS:
            shutil.copy(DATA / name, work)
        with contextlib.chdir(work), contextlib.redirect_stdout(io.StringIO()):
            for kernel, flags in KERNELS.items():
                fit, predictions = f"{kernel}.fit.json", f"{kernel}.predictions.csv"
                for argv in (
                    ["fit", "--data", "toy_missing.csv", "--structure", "toy_structure.txt",
                     "--fit-out", fit, "--seed", "1", *flags],
                    ["predict", "--fit", fit, "--data", "toy.csv", "--out", predictions],
                ):
                    if main(argv) != 0:
                        raise RuntimeError(f"primeplm {' '.join(argv)} failed")
                names += [fit, predictions, predictions + ".meta.json"]
        for name in names:
            shutil.copy(pathlib.Path(work) / name, out / name)
    return sorted(names)


if __name__ == "__main__":
    build(sys.argv[1] if len(sys.argv) > 1 else HERE)
