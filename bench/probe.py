"""A fixed probe task that measures how fast this core runs at the moment.

On a shared machine the speed of a core drifts by tens of percent from minute
to minute.  ``run.py`` divides each measured time by the time of this task,
run just before it, so that the drift cancels.  The task never changes with
swirlcurv and shares no code with it.
"""

import time

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import integrate, special
from scipy.linalg import eigh_tridiagonal

_D = -2.0 - np.linspace(0.0, 1.0, 2047)
_E = np.ones(2046)
_F = np.array([0.0, 1.0, -1.0])
_U = np.array([1.0, 0.0, 1.0])


def _poly(coeffs, r):
    x = np.asarray(r, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"radius {r} outside [0, 1]")
    return npoly.polyval(float(x), coeffs)


def probe() -> float:
    """Seconds for a fixed task shaped like the workloads' hot paths (about 25 ms).

    A nested adaptive ``quad`` of a Bessel-ratio integrand with scalar numpy
    polynomial calls, as the closed curvature route does, and two small
    tridiagonal eigensolves, as the spectrum does.
    """
    start = time.perf_counter()
    n = 5.0

    def outer(r):
        if r == 0.0:
            return 0.0
        i1r = float(special.i1e(n * r))
        inner = integrate.quad(lambda s: s * s * _poly(_F, s) * float(_poly(_U, s)) * n
                               * special.i1e(n * s) / i1r * np.exp(-n * (r - s)),
                               0.0, r, epsabs=1e-10, epsrel=1e-8)[0]
        return inner * inner / r

    integrate.quad(outer, 0.0, 1.0, epsabs=1e-10, epsrel=1e-8, limit=50)
    for lo in (0, 2040):
        eigh_tridiagonal(_D, _E, select="i", select_range=(lo, lo + 4))
    return time.perf_counter() - start
