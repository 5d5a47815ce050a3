"""Independent numerical oracles used by the tests.

Everything here is deliberately primitive (power series, bisection,
finite differences) and shares no code with the package under test.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606


def i0_series(x: float, terms: int = 40) -> float:
    """I0 by its defining power series sum (x/2)^{2k} / (k!)^2."""
    half = x / 2.0
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= (half * half) / (k * k)
        total += term
    return total


def i1_series(x: float, terms: int = 40) -> float:
    """I1 = sum (x/2)^{2k+1} / (k! (k+1)!)."""
    half = x / 2.0
    term = half
    total = half
    for k in range(1, terms):
        term *= (half * half) / (k * (k + 1))
        total += term
    return total


def k0_series(x: float, terms: int = 40) -> float:
    """K0 for small x: -(log(x/2) + gamma) I0(x) + correction series."""
    half = x / 2.0
    total = -(math.log(half) + EULER_GAMMA) * i0_series(x, terms)
    term = 1.0
    harmonic = 0.0
    for k in range(1, terms):
        term *= (half * half) / (k * k)
        harmonic += 1.0 / k
        total += term * harmonic
    return total


def k1_from_wronskian(x: float) -> float:
    """K1 via I0 K1 + I1 K0 = 1/x with independently computed I0, I1, K0."""
    return (1.0 / x - i1_series(x) * k0_series(x)) / i0_series(x)


def j1_series(x: float, terms: int = 60) -> float:
    """Bessel J1 by its alternating power series (fine for x <= 25)."""
    half = x / 2.0
    term = half
    total = half
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + 1))
        total += term
    return total


def j1_zeros(count: int) -> list[float]:
    """First ``count`` positive zeros of J1 by sign-scan plus bisection."""
    zeros = []
    x = 0.5
    step = 0.05
    prev = j1_series(x)
    while len(zeros) < count:
        x2 = x + step
        cur = j1_series(x2)
        if prev * cur < 0.0:
            a, b, fa = x, x2, prev
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = j1_series(mid)
                if (fa < 0.0) != (fm < 0.0):
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        x, prev = x2, cur
    return zeros


def int_r3_i1(terms: int = 40) -> float:
    """int_0^1 s^3 I1(s) ds by term-by-term integration of the I1 series."""
    total = 0.0
    half_pow = 0.5
    fact = 1.0  # k! (k+1)!
    for k in range(terms):
        if k > 0:
            half_pow *= 0.25
            fact *= k * (k + 1)
        total += half_pow / (fact * (2 * k + 5))
    return total


def central_diff(fn, x: float, h: float):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def five_point_diff(fn, x: float, h: float):
    """Fourth-order central first derivative."""
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# Curvature reference values from mpmath (a third route, independent of both
# the closed Bessel-ratio rule and the finite-difference oracle)
# ---------------------------------------------------------------------------

# (u, n, g, f, Kbar): u, g, f as ascending polynomial coefficients (g and f
# complex), Kbar = 4 pi^2 int_0^1 (1/r) [n^2 |g|^2 eta + |H_n|^2 / I1(|n| r)^2] dr
# from ``kbar_mpmath`` at 30 digits, confirmed to the digits shown at 40.
KBAR_REFERENCES = [
    ([1.0, 0.0, 1.0], 3, [0, 0, 1, -1], [0, 1, -1], "23.71589935452322637369163"),
    ([2.0, 0.0, -1.0], 2, [0, 0, 1, -1 + 0.5j, 0, -0.5j], [0, 1 - 0.3j, -1],
     "1.298802181392846052156531"),
    ([1.0, 0.0, 1.0], 100, [0, 0, 1, -1], [0, 1, -1], "26162.79756580552615952609"),
]


def kbar_mpmath(u, n, g, f, dps=30):
    """Kbar of the closed formula by nested ``mpmath.quad`` at ``dps`` digits.

    Produced ``KBAR_REFERENCES``; the tests read the frozen values and do not
    run this (minutes per value at large n).  The inner integral
    H_n(r) / I1(N r) = int_0^r s^2 f u N I1(N s) / I1(N r) ds is split at
    r - 40/N, r - 10/N and r - 2/N, because the Bessel ratio peaks at s = r
    with width 1/N.
    """
    from mpmath import mp

    mp.dps = dps
    N = abs(int(n))

    def poly(coeffs, x):
        return sum(mp.mpmathify(c) * x ** k for k, c in enumerate(coeffs))

    du = [k * c for k, c in enumerate(u)][1:]

    def eta(r):
        return poly(u, r) ** 2 + 2 * r * poly(u, r) * poly(du, r)

    def h_ratio(r):
        i1r = mp.besseli(1, N * r)
        pts = [0] + [r - d / N for d in (40, 10, 2) if r - d / N > 0] + [r]
        return mp.quad(lambda s: s * s * poly(f, s) * poly(u, s) * N * mp.besseli(1, N * s) / i1r,
                       pts)

    outer = [0, mp.mpf(1) / N, mp.mpf(10) / N, 1] if N > 10 else [0, 1]
    first = mp.quad(lambda r: N * N * abs(poly(g, r)) ** 2 * eta(r) / r, [0, 1])
    second = mp.quad(lambda r: abs(h_ratio(r)) ** 2 / r, outer)
    return 4 * mp.pi ** 2 * (first + second)
