import math

import pytest

from cuspspec import (
    CompactCoreSurrogate,
    CuspEnd,
    ManifoldModel,
    TorusCrossSection,
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
