"""Geometric data model: flat-torus cross-sections, cusp ends, compact core.

A manifold here is a compact core surrogate glued to J >= 1 cusp ends
X x (a^2, oo) carrying the metric y^(-2*delta) (h + dy^2).  Cross-sections
are flat tori R^(n-1)/(L_1 Z x ... x L_{n-1} Z) with a constant one-form
A = sum_k omega_k dx_k, so volumes, fluxes and spectral thresholds are all
closed-form.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

# Tolerance for deciding "flux in 2*pi*Z"; see flux_nontrivial().
FLUX_TOL = 1e-12


def _as_floats(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class TorusCrossSection:
    """Flat torus with side lengths `lengths` and constant one-form `magnetic`."""

    lengths: tuple[float, ...]
    magnetic: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", _as_floats(self.lengths))
        object.__setattr__(self, "magnetic", _as_floats(self.magnetic))

    @property
    def dim(self) -> int:
        return len(self.lengths)

    def volume(self) -> float:
        return math.prod(self.lengths)

    def flux_nontrivial(self) -> bool:
        """True iff some loop holonomy omega_k * L_k is not in 2*pi*Z (within FLUX_TOL)."""
        for length, omega in zip(self.lengths, self.magnetic):
            flux = omega * length
            if not math.isfinite(flux):
                # beyond the float range no fractional part of the flux is left
                continue
            nearest = 2.0 * math.pi * round(flux / (2.0 * math.pi))
            if abs(flux - nearest) > FLUX_TOL:
                return True
        return False


@dataclass(frozen=True)
class CuspEnd:
    """One cusp end X x (a^2, oo) with decay exponent delta in (1/n, 1]."""

    cross_section: TorusCrossSection
    a: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class CompactCoreSurrogate:
    """Weyl surrogate for the compact core: volume plus a remainder band.

    volume = 0 selects the pure cusp ensemble, where all counts are exact.
    """

    volume: float = 0.0
    remainder_coeff: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "volume", float(self.volume))
        object.__setattr__(self, "remainder_coeff", float(self.remainder_coeff))


@dataclass(frozen=True)
class ManifoldModel:
    """Dimension n, compact-core surrogate and J >= 1 cusp ends."""

    n: int
    core: CompactCoreSurrogate
    cusps: tuple[CuspEnd, ...] = field(default=())

    def __post_init__(self):
        try:
            n = int(self.n)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != self.n:
            raise ValueError(f"dimension {self.n!r} must be an integer")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cusps", tuple(self.cusps))

    @property
    def delta(self) -> float:
        """min_j delta_j, the exponent governing thresholds and remainders."""
        return min(c.delta for c in self.cusps)

    @property
    def is_magnetic(self) -> bool:
        return any(w != 0.0 for c in self.cusps for w in c.cross_section.magnetic)


def validate_model(model: ManifoldModel) -> list[str]:
    """Collect human-readable violations; empty list means the model is valid.

    Never raises: malformed data yields descriptors, so batch callers can
    report everything at once.  The comparisons are written so that a NaN
    fails them.
    """
    violations: list[str] = []
    n = model.n
    # an int beyond the float range would overflow 1.0 / n below
    sized = 2 <= n <= sys.float_info.max
    if n < 2:
        violations.append(f"dimension n = {_int_text(n)} must be >= 2")
    elif not sized:
        violations.append(f"dimension n = {_int_text(n)} is too large for a float")
    if len(model.cusps) < 1:
        violations.append("model must have at least one cusp end (J >= 1)")
    if not 0 <= model.core.volume < math.inf:
        violations.append(f"core volume {model.core.volume} must be finite and >= 0")
    if not 0 <= model.core.remainder_coeff < math.inf:
        violations.append(
            f"core remainder_coeff {model.core.remainder_coeff} must be finite and >= 0"
        )
    magnetic_mode = model.is_magnetic
    for j, cusp in enumerate(model.cusps):
        x = cusp.cross_section
        if len(x.lengths) != n - 1:
            violations.append(
                f"cusp {j}: torus has {len(x.lengths)} lengths, "
                f"expected n-1 = {_int_text(n - 1)}"
            )
        if len(x.magnetic) != len(x.lengths):
            violations.append(
                f"cusp {j}: magnetic coefficients ({len(x.magnetic)}) do not match "
                f"lengths ({len(x.lengths)})"
            )
        if not all(0 < length < math.inf for length in x.lengths):
            violations.append(f"cusp {j}: all torus lengths must be finite and > 0")
        finite_field = all(math.isfinite(omega) for omega in x.magnetic)
        if not finite_field:
            violations.append(f"cusp {j}: magnetic coefficients must be finite")
        if not 0 < cusp.a < math.inf:
            violations.append(f"cusp {j}: a = {cusp.a} must be finite and > 0")
        if math.isnan(cusp.delta):
            violations.append(f"cusp {j}: delta must be a number, got nan")
        elif sized and not (1.0 / n < cusp.delta <= 1.0):
            if cusp.delta <= 1.0 / n:
                violations.append(
                    f"cusp {j}: delta <= 1/n ({cusp.delta} <= {1.0 / n:g})"
                )
            else:
                violations.append(f"cusp {j}: delta = {cusp.delta} must be <= 1")
        if (
            magnetic_mode
            and finite_field
            and len(x.lengths) == len(x.magnetic)
            and all(math.isfinite(length) for length in x.lengths)
            and not x.flux_nontrivial()
        ):
            violations.append(
                f"cusp {j}: integer flux (every omega_k * L_k in 2*pi*Z); "
                "magnetic mode needs non-integer flux on every cusp"
            )
    return violations


def _int_text(k: int) -> str:
    """k in decimal, or its bit length where Python's int-to-str digit limit
    refuses the decimal."""
    try:
        return str(k)
    except ValueError:
        sign = "negative " if k < 0 else ""
        return f"a {sign}{k.bit_length()}-bit integer"


def cusp_volume(cusp: CuspEnd, n: int) -> float:
    """Riemannian volume |X| / ((delta*n - 1) a^(2(delta*n - 1))) of one cusp."""
    exponent = cusp.delta * n - 1.0
    if exponent <= 0:
        raise ValueError(f"cusp volume requires delta*n > 1, got delta*n = {cusp.delta * n}")
    return cusp.cross_section.volume() / (exponent * cusp.a ** (2.0 * exponent))


def total_volume(model: ManifoldModel) -> float:
    return model.core.volume + sum(cusp_volume(c, model.n) for c in model.cusps)


def spectral_floor(model: ManifoldModel) -> float:
    """Bottom of the essential spectrum of the free Laplacian.

    (n-1)^2/4 when every cusp has delta = 1, else 0.
    """
    if model.delta < 1.0:
        return 0.0
    return (model.n - 1) ** 2 / 4.0


# ---------------------------------------------------------------------------
# Model file (JSON) I/O.  Field names are fixed; unknown fields are rejected.

_CORE_KEYS = {"volume", "remainder_coeff"}
_CUSP_KEYS = {"a", "delta", "lengths", "magnetic"}
_TOP_KEYS = {"dimension", "core", "cusps"}


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise ValueError(f"{name} = {value!r} is too large for a float") from None


def _numbers(values, name: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_number(v, name) for v in values)


def model_from_dict(data: dict) -> ManifoldModel:
    """Parse a model file's JSON object; any malformed field raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("model file must contain a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown model fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise ValueError(f"missing model fields: {sorted(missing)}")
    core_data = data["core"]
    if not isinstance(core_data, dict):
        raise ValueError(f"core must be an object, got {core_data!r}")
    unknown = set(core_data) - _CORE_KEYS
    if unknown:
        raise ValueError(f"unknown core fields: {sorted(unknown)}")
    core = CompactCoreSurrogate(
        volume=_number(core_data.get("volume", 0.0), "core volume"),
        remainder_coeff=_number(core_data.get("remainder_coeff", 0.0), "core remainder_coeff"),
    )
    if not isinstance(data["cusps"], (list, tuple)):
        raise ValueError(f"cusps must be a list, got {data['cusps']!r}")
    cusps = []
    for j, cusp_data in enumerate(data["cusps"]):
        if not isinstance(cusp_data, dict):
            raise ValueError(f"cusp {j} must be an object, got {cusp_data!r}")
        unknown = set(cusp_data) - _CUSP_KEYS
        if unknown:
            raise ValueError(f"cusp {j}: unknown fields {sorted(unknown)}")
        missing = _CUSP_KEYS - set(cusp_data)
        if missing:
            raise ValueError(f"cusp {j}: missing fields {sorted(missing)}")
        cusps.append(
            CuspEnd(
                cross_section=TorusCrossSection(
                    lengths=_numbers(cusp_data["lengths"], f"cusp {j}: lengths"),
                    magnetic=_numbers(cusp_data["magnetic"], f"cusp {j}: magnetic"),
                ),
                a=_number(cusp_data["a"], f"cusp {j}: a"),
                delta=_number(cusp_data["delta"], f"cusp {j}: delta"),
            )
        )
    return ManifoldModel(n=data["dimension"], core=core, cusps=tuple(cusps))


def model_to_dict(model: ManifoldModel) -> dict:
    return {
        "dimension": model.n,
        "core": {
            "volume": model.core.volume,
            "remainder_coeff": model.core.remainder_coeff,
        },
        "cusps": [
            {
                "a": c.a,
                "delta": c.delta,
                "lengths": list(c.cross_section.lengths),
                "magnetic": list(c.cross_section.magnetic),
            }
            for c in model.cusps
        ],
    }


def load_model(path: Union[str, Path]) -> ManifoldModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

