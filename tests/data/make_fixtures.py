"""Regenerate the CSV fixtures in this directory.

Run from the repository root:

    python3 tests/data/make_fixtures.py [OUT_DIR]

OUT_DIR defaults to this directory.  The files are committed; this script
only exists so they can be rebuilt (or audited) without guessing where the
numbers came from.
"""

import csv
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).parent


def main(out: pathlib.Path = HERE) -> None:
    rng = np.random.default_rng(2024)
    n = 80
    u1 = rng.uniform(0.0, 1.0, n)
    w1 = rng.normal(1.0, 1.0, n)
    w2 = rng.normal(1.0, 1.0, n)
    eps = rng.normal(0.0, 0.3, n)
    y = np.sin(2.0 * np.pi * u1) + 1.0 * w1 - 0.5 * w2 + eps

    with open(out / "toy.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "u1", "w1", "w2"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in (y[i], u1[i], w1[i], w2[i])])

    # same rows with holes punched in the covariates; the first two rows
    # stay complete so every donor search has somewhere to land
    with open(out / "toy_missing.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "u1", "w1", "w2"])
        for i in range(n):
            cells = [repr(float(v)) for v in (y[i], u1[i], w1[i], w2[i])]
            if i >= 2:
                if i % 5 == 2:
                    cells[2] = "NA"
                if i % 7 == 3:
                    cells[3] = "NA"
                if i % 11 == 4:
                    cells[1] = "NA"
            writer.writerow(cells)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
