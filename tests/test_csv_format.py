"""The CSV kernel ``cli._format`` writes exactly what Python's ``'%.16e' %`` writes."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swirlcurv.cli as cli
from swirlcurv.cli import _format, _write_csv, main

from _helpers import counting

RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}   # as main() runs it


def formatted(values) -> list:
    """The kernel's cells of ``values``, as strings, under main()'s error state."""
    with np.errstate(**RAISE):
        cells = _format(np.asarray(values, dtype=float))
    assert cells.shape == np.shape(values) + (24,)
    return [bytes(c).replace(b"\0", b"").decode() for c in cells.reshape(-1, 24)]


def assert_exact(values):
    values = np.asarray(values, dtype=float).ravel()
    assert formatted(values) == ["%.16e" % v for v in values.tolist()]


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_every_float64_bit_pattern(bits):
    assert_exact(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_every_float(values):
    assert_exact(values)


def ties() -> list:
    """Floats whose decimal expansion ends in a 5 at the 18th significant digit:
    v = m 2**(e - 17) with m odd and 10**e <= v < 10**(e + 1), so that
    v 10**(16 - e) = m 5**(16 - e) / 2 is an exact half."""
    out = []
    for e in range(-3, 16):
        lo = math.ceil(Fraction(10) ** e * 2 ** (17 - e)) | 1
        hi = min(math.floor(Fraction(10) ** (e + 1) * 2 ** (17 - e)), 2 ** 53) - 1
        for m in (lo, (lo + hi) // 2 | 1, hi - 1 + hi % 2):
            v = math.ldexp(m, e - 17)
            assert (Fraction(v) * Fraction(10) ** (16 - e)).denominator == 2
            out += [v, -v]
    return out


def test_edge_values():
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
             0.99999999999999994, 9.9999999999999995e-2, 1e-290, 1e290]
    for k in range(-300, 301):
        p = float(f"1e{k}")
        edges += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, math.inf)), -p]
    assert_exact(edges + ties())


def test_zero_rows_give_the_header_alone(tmp_path):
    assert _format(np.zeros((0, 3))).shape == (0, 3, 24)
    _write_csv(tmp_path / "empty.csv", ["n", "value"], [])
    assert (tmp_path / "empty.csv").read_bytes() == b"n,value\n"


def test_integer_columns_keep_percent_d(tmp_path):
    rows = [(3, 1, 0.5, -2.0), (-10 ** 12, 20, math.nan, 1e-300)]
    _write_csv(tmp_path / "t.csv", ["n", "m", "a", "b"], rows)
    assert (tmp_path / "t.csv").read_text() == "n,m,a,b\n" + "".join(
        "%d,%d,%.16e,%.16e\n" % row for row in rows)


def test_pow10_is_correctly_rounded():
    # a long double parse that is not correctly rounded would misround digits silently
    ks = np.arange(-280, 311)
    eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
    for k, p in zip(ks.tolist(), cli._pow10(ks)):
        exact = Fraction(10) ** k
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= eps / 2 * exact, k


def test_uncertified_values_take_python_percent(monkeypatch, tmp_path):
    # with float64's eps no rounding is certified, as where long double is a double
    rng = np.random.default_rng(7)
    values = rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)
    calls = counting(monkeypatch, cli, "_fallback")
    monkeypatch.setattr(cli, "_EPS", float(np.finfo(float).eps))
    assert_exact(values)
    assert sum(len(args[0]) for args in calls) == values.size

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"poly": [1.0, 0.0, 1.0]}, "params": {"n": 2}}))
    assert main(["jacobi", "--config", str(cfg), "--out", str(tmp_path / "slow"), "--quiet"]) == 0
    monkeypatch.undo()
    assert main(["jacobi", "--config", str(cfg), "--out", str(tmp_path / "fast"), "--quiet"]) == 0
    for path in (tmp_path / "fast").iterdir():
        assert path.read_bytes() == (tmp_path / "slow" / path.name).read_bytes()


@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_jacobi_formats_its_snapshots_in_one_kernel_call(tmp_path, monkeypatch, phase):
    calls = counting(monkeypatch, cli, "_format")
    slow = counting(monkeypatch, cli, "_fallback")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"poly": [1.0]},
                               "params": {"n": 2, "m": 2, "phase": phase}}))
    assert main(["jacobi", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    # 3 times x 4 fields x 64 x 16 points, and the 64 + 16 coordinates
    assert sorted(np.size(args[0]) for args in calls) == [80, 3 * 4 * 64 * 16]
    assert sum(len(args[0]) for args in slow) < 0.02 * (80 + 3 * 4 * 64 * 16)
