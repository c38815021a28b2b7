"""The golden CLI outputs in tests/golden, rebuilt and compared.

Text other than numbers must match exactly; numbers must agree within 1e-12
relative, which allows for other BLAS builds and CPUs.
"""

import importlib.util
import math
import pathlib
import re

GOLDEN = pathlib.Path(__file__).parent / "golden"
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_rebuilt_golden_outputs_match_the_committed_ones(tmp_path):
    written = make_golden.build(tmp_path)
    committed = sorted(p.name for p in GOLDEN.iterdir() if p.is_file() and p.suffix != ".py")
    assert written == committed
    for name in written:
        got = (tmp_path / name).read_bytes().decode("utf-8")
        want = (GOLDEN / name).read_bytes().decode("utf-8")
        assert _NUMBER.split(got) == _NUMBER.split(want), name
        pairs = list(zip(_NUMBER.findall(got), _NUMBER.findall(want)))
        bad = [(a, b) for a, b in pairs if not math.isclose(float(a), float(b), rel_tol=1e-12)]
        assert bad == [], name
