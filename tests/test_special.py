"""The package's scaled Bessel functions against mpmath and scipy, and their
Chebyshev tables against a fresh fit."""

import mpmath
import numpy as np
import pytest
from scipy import special as scipy_special

from swirlcurv import special

NAMES = ("i0e", "i1e", "k0e", "k1e")
# 0 to 2e4, dense where the series change (x = 2 for K, x = 8 for I)
X = np.unique(np.concatenate([
    [2.0, 8.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0),
     np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)],
    np.geomspace(1e-12, 1e-2, 11), np.linspace(0.01, 12.0, 120), np.geomspace(12.0, 2e4, 30)]))


def _mpmath(name, x):
    v = mpmath.mpf(float(x))
    order = int(name[1])
    if name[0] == "i":
        return mpmath.besseli(order, v) * mpmath.exp(-v)
    return mpmath.besselk(order, v) * mpmath.exp(v)


@pytest.mark.parametrize("name", NAMES)
def test_matches_mpmath(name):
    with mpmath.workdps(30):
        ref = np.array([float(_mpmath(name, x)) for x in X])
    got = getattr(special, name)(X)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-15


@pytest.mark.parametrize("name", NAMES)
def test_matches_scipy(name):
    # scipy's Cephes i1e is itself 1.6e-15 from mpmath near x = 7.5, where the
    # package's is 4e-16, so the bound is the sum of the two
    x = np.concatenate([X, np.linspace(0.0, 50.0, 20001)[1:]])
    ref = getattr(scipy_special, name)(x)
    got = getattr(special, name)(x)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-15


@pytest.mark.filterwarnings("error")
def test_special_values_and_types():
    assert special.i0e(0.0) == 1.0 and special.i1e(0.0) == 0.0
    assert special.k0e(0.0) == np.inf and special.k1e(0.0) == np.inf
    assert special.k1e(np.array([0.0, 1.0]))[0] == np.inf
    for name in NAMES:
        fn = getattr(special, name)
        assert isinstance(fn(0.5), np.floating)
        assert np.isnan(fn(np.nan))
        assert fn(np.zeros((2, 3)) + 3.0).shape == (2, 3)
        assert fn(np.array([], dtype=float)).shape == (0,)


def _chebfit(fn, terms, nodes=64):
    """Chebyshev coefficients of fn on [-1, 1] by discrete projection on
    ``nodes`` Chebyshev points, at the working precision."""
    theta = [mpmath.pi * (k + mpmath.mpf(1) / 2) / nodes for k in range(nodes)]
    values = [fn(mpmath.cos(a)) for a in theta]
    c = [2 * mpmath.fsum(v * mpmath.cos(j * a) for v, a in zip(values, theta)) / nodes
         for j in range(terms)]
    c[0] /= 2
    return np.array([float(x) for x in c])


def _tables():
    I, K, exp, sqrt, log = mpmath.besseli, mpmath.besselk, mpmath.exp, mpmath.sqrt, mpmath.log

    def on(x_of_t, f):
        return lambda t: f(x_of_t(t))

    small_i, large_i = (lambda t: 4 * (t + 1)), (lambda t: 16 / (t + 1))
    small_k, large_k = (lambda t: sqrt(2 * (t + 1))), (lambda t: 4 / (t + 1))
    return {
        "_I0_SMALL": on(small_i, lambda x: exp(-x) * I(0, x)),
        "_I1_SMALL": on(small_i, lambda x: exp(-x / 2) * I(1, x) / x),
        "_I0_LARGE": on(large_i, lambda x: sqrt(x) * exp(-x) * I(0, x)),
        "_I1_LARGE": on(large_i, lambda x: sqrt(x) * exp(-x) * I(1, x)),
        "_K0_SMALL": on(small_k, lambda x: K(0, x) + log(x / 2) * I(0, x)),
        "_K1_SMALL": on(small_k, lambda x: x * (K(1, x) - log(x / 2) * I(1, x))),
        "_K0_LARGE": on(large_k, lambda x: sqrt(x) * exp(x) * K(0, x)),
        "_K1_LARGE": on(large_k, lambda x: sqrt(x) * exp(x) * K(1, x)),
    }


@pytest.mark.parametrize("table", sorted(_tables()))
def test_tables_are_the_mpmath_fit(table):
    constants = np.array(getattr(special, table))
    with mpmath.workdps(40):
        fit = _chebfit(_tables()[table], len(constants) + 1)
    # equal to within one unit in the last place, whatever mpmath version rounds
    assert np.all(np.abs(constants - fit[:-1]) <= np.spacing(np.abs(fit[:-1])))
    # and the series is long enough: the next coefficient is below 1e-17 of c_0
    assert abs(fit[-1]) < 1e-17 * abs(constants[0])
