"""Exponentially scaled modified Bessel functions of orders 0 and 1.

``i0e(x) = I0(x) e^{-x}`` and ``i1e(x) = I1(x) e^{-x}`` for real x >= 0, to
within about 1e-15 relative.  Each is a Chebyshev series summed by
Clenshaw's recurrence on one of two ranges, as in Cephes (Moshier, *Methods
and Programs for Mathematical Functions*, 1989):

* x <= 8: e^{-x} I0(x) and e^{-x/2} I1(x) / x in t = x/4 - 1 (the half
  exponent keeps the I1 sum free of cancellation at both ends);
* x > 8: sqrt(x) e^{-x} I(x) in t = 16/x - 1.

The coefficients are the Chebyshev projections of those functions, computed
with mpmath at 40 digits on 64 Chebyshev nodes and rounded to double;
``tests/test_special.py`` fits them again and compares.
"""

from __future__ import annotations

import numpy as np

__all__ = ["i0e", "i1e"]

# names only: the benchmark tracer (bench/tracing.py) rebinds them, and nothing
# calls them, until ROADMAP item 3 gives the tracer a recorder to read
k0e = k1e = None

# Chebyshev coefficients c_0, c_1, ... of each series on t in [-1, 1]
_I0_SMALL = (
    0.33839763720473803, -0.3046826723431984, 0.17162090152220877,
    -0.09490109704804764, 0.04930528423967071, -0.02373741480589947,
    0.010546460394594998, -0.004324309995050576, 0.0016394756169413357,
    -0.0005763755745385824, 0.00018850288509584165, -5.754195010082104e-05,
    1.6448448070728896e-05, -4.4167383584587505e-06, 1.1173875391201037e-06,
    -2.670793853940612e-07, 6.046995022541919e-08, -1.300025009986248e-08,
    2.6598237246823866e-09, -5.189795601635263e-10, 9.675809035373237e-11,
    -1.726826291441556e-11, 2.95505266312964e-12, -4.856446783111929e-13,
    7.676185498604936e-14, -1.1685332877993451e-14, 1.715391285555133e-15,
    -2.431279846547955e-16, 3.3307945188222384e-17, -4.4153416464793395e-18,
)
_I1_SMALL = (
    0.5016557960671141, 0.21434352751696323, 0.1873117281781378,
    -0.002866387364893764, 0.017208834137830864, -0.003324430089778451,
    0.0014548980187094754, -0.00037900013304999214, 0.00010796419226905365,
    -2.6550877356173354e-05, 6.240759664697854e-06, -1.355735653672437e-06,
    2.771423936451657e-07, -5.320746788837881e-08, 9.642268261779336e-09,
    -1.6529004075997958e-09, 2.687936204597282e-10, -4.15621955881712e-11,
    6.124347398496822e-12, -8.617572968591565e-13, 1.1601023796285066e-13,
    -1.4967665782311686e-14, 1.853809985984863e-15, -2.2074328443875368e-16,
    2.5306636581163284e-17, -2.7969144281635414e-18,
)
_I0_LARGE = (
    0.4022452055070544, 0.0033691164782556943, 6.889758346916825e-05,
    2.8913705208347567e-06, 2.0489185894690638e-07, 2.266668990498178e-08,
    3.3962320257083865e-09, 4.94060238822497e-10, 1.1889147107846439e-11,
    -3.1499165279632416e-11, -1.3215811840447713e-11, -1.7941785315068062e-12,
    7.180124451383666e-13, 3.8527783827421426e-13, 1.54008621752141e-14,
    -4.150569347287222e-14, -9.554846698828307e-15, 3.8116806693526224e-15,
    1.7725601330565263e-15, -3.425485619677219e-16, -2.8276239805165836e-16,
    3.461222867697461e-17, 4.46562142029676e-17, -4.830504485944182e-18,
    -7.233180487874754e-18, 9.921475412173699e-19,
)
_I1_LARGE = (
    0.38928811750914005, -0.009761097491361469, -0.00011058893876262371,
    -3.882564808877691e-06, -2.512236237870209e-07, -2.6314688468895196e-08,
    -3.835380385964237e-09, -5.589743462196584e-10, -1.8974958123505413e-11,
    3.2526035830154884e-11, 1.4125807436613782e-11, 2.0356285441470896e-12,
    -7.198551776245908e-13, -4.0835511110921974e-13, -2.1015418427726643e-14,
    4.272440016711951e-14, 1.0420276984128802e-14, -3.8144030724370075e-15,
    -1.8803547755107825e-15, 3.3082023109209285e-16, 2.96262899764595e-16,
    -3.209525921993424e-17, -4.6503053684893586e-17, 4.414348323071708e-18,
    7.517296310842105e-18, -9.314178867326884e-19,
)


def _cheb(t, c):
    """sum_j c[j] T_j(t), by Clenshaw's recurrence in place on two buffers."""
    t2 = 2.0 * t
    b1, b2, tmp = np.full_like(t2, c[-1]), np.zeros_like(t2), np.empty_like(t2)
    for cj in c[-2:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += cj
        b1, b2, tmp = tmp, b1, b2
    out = t * b1
    out -= b2
    out += c[0]
    return out


def _split(x, small, large):
    """``small(x)`` where x <= 8 and ``large(x)`` elsewhere (NaN included)."""
    x = np.asarray(x, dtype=float)
    below = x <= 8.0
    if below.all():
        out = small(x)
    elif not below.any():
        out = large(x)
    else:
        out = np.empty_like(x)
        out[below], out[~below] = small(x[below]), large(x[~below])
    return out[()]


def _i_large(c):
    return lambda x: _cheb(16.0 / x - 1.0, c) / np.sqrt(x)


def _i0e_small(x):
    return _cheb(0.25 * x - 1.0, _I0_SMALL)


def _i1e_small(x):
    return x * np.exp(-0.5 * x) * _cheb(0.25 * x - 1.0, _I1_SMALL)


def i0e(x):
    """I0(x) e^{-x} for x >= 0."""
    return _split(x, _i0e_small, _i_large(_I0_LARGE))


def i1e(x):
    """I1(x) e^{-x} for x >= 0."""
    return _split(x, _i1e_small, _i_large(_I1_LARGE))
