import math

import pytest
from hypothesis import strategies as st

from cuspspec import (
    CompactCoreSurrogate,
    CuspEnd,
    ManifoldModel,
    TorusCrossSection,
    model_to_dict,
)

TWO_PI = 2.0 * math.pi


def circle_model(omega: float = 0.5, delta: float = 1.0, a: float = 1.0,
                 core_volume: float = 0.0, cusps: int = 1) -> ManifoldModel:
    cusp = CuspEnd(TorusCrossSection((TWO_PI,), (omega,)), a=a, delta=delta)
    return ManifoldModel(
        n=2,
        core=CompactCoreSurrogate(volume=core_volume),
        cusps=(cusp,) * cusps,
    )


def torus3_model(delta: float = 1.0) -> ManifoldModel:
    """n = 3 cusp over the two-length torus with a non-integer flux."""
    x = TorusCrossSection((TWO_PI, 1.3 * TWO_PI), (0.5, 0.3))
    return ManifoldModel(3, CompactCoreSurrogate(), (CuspEnd(x, a=1.0, delta=delta),))


@pytest.fixture
def ref_model() -> ManifoldModel:
    """n=2, single cusp, L=2pi, a=1, delta=1, omega=0.5, core=0."""
    return circle_model()


@pytest.fixture
def ref_model_075() -> ManifoldModel:
    return circle_model(delta=0.75)


@pytest.fixture
def zero_field_model() -> ManifoldModel:
    return circle_model(omega=0.0)


# JSON values a model file can hold in any field: plain numbers, huge ints,
# NaN and infinities, strings, null, booleans, nested lists and stray objects
JSON_VALUES = st.one_of(
    st.floats(0.05, 20.0),
    st.integers(-(10**400), 10**400),
    st.sampled_from([10**400, -(10**400), 10**309, 1e308, -1e308]),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.recursive(
        st.integers(-3, 3) | st.floats(0.5, 8.0), lambda kids: st.lists(kids, max_size=3),
        max_leaves=4,
    ),
    st.dictionaries(st.sampled_from(["a", "volume", "x"]), st.integers(-3, 3), max_size=2),
)

# every field of a one-cusp model file, as a path into its dict
FIELD_PATHS = [
    ("dimension",), ("core",), ("core", "volume"), ("core", "remainder_coeff"), ("cusps",),
    ("cusps", 0), ("cusps", 0, "a"), ("cusps", 0, "delta"), ("cusps", 0, "lengths"),
    ("cusps", 0, "lengths", 0), ("cusps", 0, "magnetic"), ("cusps", 0, "magnetic", 0),
]


def _holds(container, key) -> bool:
    if isinstance(container, dict):
        return key in container
    return isinstance(container, list) and isinstance(key, int) and key < len(container)


@st.composite
def model_dicts(draw):
    """The reference model's dict with one to three fields replaced by drawn
    JSON values or removed.  A path through a field that an earlier change
    replaced or removed is skipped."""
    data = model_to_dict(circle_model())
    for _ in range(draw(st.integers(1, 3))):
        *keys, last = draw(st.sampled_from(FIELD_PATHS))
        parent = data
        for key in keys:
            parent = parent[key] if _holds(parent, key) else None
        if not _holds(parent, last):
            continue
        if draw(st.booleans()):
            parent[last] = draw(JSON_VALUES)
        else:
            del parent[last]
    return data
