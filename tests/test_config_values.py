"""Every accepted configuration serializes: a count or seed given as a numpy
integer is stored as a Python int, so the fields of a KernelConfig, SplineSpec
or ScenarioConfig write the same JSON whichever integer type they came in."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeplm.errors import InvalidConfig
from primeplm.kernel_impute import KernelConfig
from primeplm.simulation import ScenarioConfig
from primeplm.spline import make_spec

# (builder, one integer strategy per keyword); every value fits an int16
CONFIGS = {
    "KernelConfig": (
        lambda **values: KernelConfig(projection="resampled", **values),
        {"n_projections": st.integers(-1, 5), "projection_threshold": st.integers(-1, 6),
         "seed": st.integers(-2, 30_000)},
    ),
    "SplineSpec": (
        make_spec,
        {"degree": st.integers(-1, 6), "n_interior": st.integers(-1, 8)},
    ),
    "ScenarioConfig": (
        ScenarioConfig,
        {"n": st.integers(40, 3_000), "n_test": st.integers(0, 20_000),
         "replications": st.integers(0, 500), "seed": st.integers(-2, 30_000)},
    ),
}


def fields_json(build, values, kind):
    """The JSON of the built config's fields, or the error it raised."""
    try:
        config = build(**{key: kind(value) for key, value in values.items()})
    except InvalidConfig as err:
        return type(err).__name__, str(err)
    return json.dumps({f.name: getattr(config, f.name) for f in dataclasses.fields(config)
                       if f.init})


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from([np.int64, np.int32, np.int16]))
def test_accepted_configs_serialize_alike_for_numpy_integers(name, data, kind):
    build, strategies = CONFIGS[name]
    values = data.draw(st.fixed_dictionaries(strategies))
    assert fields_json(build, values, kind) == fields_json(build, values, int)
