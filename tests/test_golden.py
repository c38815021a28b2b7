"""The golden CLI outputs in tests/golden, rebuilt and compared.

Text other than numbers must match exactly; numbers must agree within 1e-12
relative, which allows for other BLAS builds and CPUs.  On one machine a
rebuild, and a study run with 2 workers in place of 1, must be byte-identical.
"""

import importlib.util
import math
import pathlib
import re

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def first_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("first")
    return out, make_golden.build(out)


def test_rebuilt_golden_outputs_match_the_committed_ones(first_build):
    out, written = first_build
    committed = sorted(p.name for p in GOLDEN.iterdir() if p.is_file() and p.suffix != ".py")
    assert written == committed
    for name in written:
        got = (out / name).read_bytes().decode("utf-8")
        want = (GOLDEN / name).read_bytes().decode("utf-8")
        assert _NUMBER.split(got) == _NUMBER.split(want), name
        pairs = list(zip(_NUMBER.findall(got), _NUMBER.findall(want)))
        bad = [(a, b) for a, b in pairs if not math.isclose(float(a), float(b), rel_tol=1e-12)]
        assert bad == [], name


@pytest.mark.parametrize("workers", [1, 2], ids=["rebuild", "two-workers"])
def test_golden_outputs_are_byte_identical_across_runs(first_build, workers, tmp_path):
    first, written = first_build
    assert make_golden.build(tmp_path, workers) == written
    for name in written:
        assert (tmp_path / name).read_bytes() == (first / name).read_bytes(), name
