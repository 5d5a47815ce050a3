"""JSON run configuration: profiles, modes, and command parameters.

A config is one JSON document:

    {
      "profile": {"expr": "2 - r^2"},
      "modes":   [{"n": 1, "g": {"expr": "r^2*(1-r)"}, "f": {"poly": [0.0]}}],
      "params":  {"m_max": 3, "n_list": [1, 2]}
    }

Radial functions accept three spellings: {"expr": "..."} for the expression
language, {"poly": [c0, c1, ...]} for ascending polynomial coefficients, and
{"table": {"r": [...], "values": [...]}} for sampled data.  Mode entries may
add "g_imag"/"f_imag" for complex coefficients; a missing "f" (or "g") means
identically zero.  ``to_json`` emits a canonical form (sorted keys, two-space
indent) that round-trips byte-identically through ``parse_config``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RegularityError, ValidationError
from .modes import FourierMode
from .profile import CRITERIA_GRID, RadialProfile
from .radial import (ComplexRadialFunction, ExpressionFunction, PolynomialFunction,
                     RadialFunction, TableFunction, zero)

__all__ = ["MAX_INT", "RunConfig", "check_integer", "parse_config", "radial_from_spec"]

MAX_INT = 10 ** 12


def check_integer(value, name: str, least: int = -MAX_INT) -> int:
    """``value``, which must be a JSON integer in ``least`` ... ``MAX_INT``: past
    |n| ~ 1e12 the pressure's wall grading falls under the panels' round-off sliver."""
    if isinstance(value, bool) or not isinstance(value, int) or not least <= value <= MAX_INT:
        raise ValidationError(f"{name} is {value!r}, not an integer in {least:g} ... {MAX_INT:g}")
    return value


def _shaped(value, kind: type, name: str):
    """``value``, which must be a ``kind``: dict (a JSON object) or list (an array)."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be {'an object' if kind is dict else 'a list'}, "
                              f"got {value!r}")
    return value


def radial_from_spec(spec) -> RadialFunction:
    _shaped(spec, dict, "radial function spec")
    keys = set(spec) & {"expr", "poly", "table"}
    if len(keys) != 1:
        raise ValidationError(
            f"radial function spec needs exactly one of expr/poly/table, got {sorted(spec)}")
    if "expr" in spec:
        return ExpressionFunction(spec["expr"])
    if "poly" in spec:
        return PolynomialFunction(_numbers(spec["poly"], "poly"))
    tab = _shaped(spec["table"], dict, "'table'")
    if not {"r", "values"} <= set(tab):
        raise ValidationError(f"'table' needs keys 'r' and 'values', got {sorted(tab)}")
    return TableFunction(_numbers(tab["r"], "table 'r'"), _numbers(tab["values"], "table 'values'"))


def _numbers(values, name: str):
    """``values``, each a JSON number (a bool is not one) with a finite float value."""
    for v in values:
        if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
            raise ValidationError(f"{name} entry {v!r} is not a finite number")
    return values


def _complex_from_spec(cfg: dict, key: str) -> ComplexRadialFunction:
    real = radial_from_spec(cfg[key]) if key in cfg else zero()
    imag_key = f"{key}_imag"
    imag = radial_from_spec(cfg[imag_key]) if imag_key in cfg else None
    return ComplexRadialFunction(real, imag)


def _mode_from_spec(cfg) -> FourierMode:
    if "n" not in _shaped(cfg, dict, "'modes' entry"):
        raise ValidationError("mode spec missing 'n'")
    return FourierMode(check_integer(cfg["n"], "mode 'n'"),
                       _complex_from_spec(cfg, "g"), _complex_from_spec(cfg, "f"))


@dataclass
class RunConfig:
    raw: dict
    profile: RadialProfile
    modes: list
    params: dict

    def to_json(self) -> str:
        """Canonical serialization; stable under parse -> serialize."""
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"


def _require_finite(profile: RadialProfile, modes) -> None:
    """Reject a profile with a non-finite value on the criteria grid, a mode with
    one in its sample (``FourierMode.samples``, a superset of that grid), and a
    profile u that is 0 at every point of the grid."""
    r = CRITERIA_GRID
    with np.errstate(all="ignore"):
        u, du = profile.u(r), profile.u.derivative(r)
        samples = [u, du, u * u + 2.0 * r * u * du] + [m.samples for m in modes]
    if not all(np.all(np.isfinite(v)) for v in samples):
        raise ValidationError("u, u', eta, g, g', f or f' is not finite on [0, 1]")
    if not np.any(u):
        raise ValidationError("u is 0 on [0, 1]: the swirl field X = 0 spans no section")


def parse_config(source) -> RunConfig:
    """Build a RunConfig from a dict, a JSON document (``str``) or a file (``Path``).

    Profile and modes must be finite on [0, 1], u not 0 everywhere, and modes
    must carry distinct integer wavenumbers and meet the axis and wall
    conditions; finite energy is not required (g'(0) != 0 is fine).
    """
    if isinstance(source, Path):
        raw = json.loads(source.read_text())
    elif isinstance(source, str):
        raw = json.loads(source)
    elif isinstance(source, dict):
        raw = source
    else:
        raise ValidationError(f"cannot read config from {source!r}")
    try:
        if "profile" not in _shaped(raw, dict, "config"):
            raise ValidationError("config missing 'profile'")
        profile = RadialProfile(radial_from_spec(raw["profile"]))
        modes = [_mode_from_spec(m) for m in _shaped(raw.get("modes", []), list, "'modes'")]
        params = dict(_shaped(raw.get("params", {}), dict, "'params'"))
    except (KeyError, TypeError, ValueError) as exc:
        # a document or spec of the wrong type, a missing key or an empty
        # coefficient list is a config error, not a crash
        raise ValidationError(f"malformed config: {type(exc).__name__}: {exc}") from exc
    ns = [m.n for m in modes]
    if len(set(ns)) != len(ns):
        raise ValidationError(f"duplicate mode numbers in {ns}")
    _require_finite(profile, modes)
    for m in modes:
        try:
            m.validate()
        except RegularityError as exc:
            raise ValidationError(f"mode n = {m.n}: {exc}") from exc
    return RunConfig(raw=raw, profile=profile, modes=modes, params=params)
