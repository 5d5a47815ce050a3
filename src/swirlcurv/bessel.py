"""Modified Bessel functions and the homogeneous pressure-ODE solutions.

Only orders 0 and 1, real nonnegative arguments, and only in exponentially
scaled form (I * e^{-x}, K * e^{+x}, from ``special``'s i0e/i1e/k0e/k1e) so that
downstream formulas can be written in ratio form and evaluated without
overflow for mode numbers up to 10^4.

The pressure ODE  (1/r)(r y')' - n^2 y = 0  has the bounded solution
xi_n(r) = I0(|n| r) and the companion  zeta_n(r) = (K1/I1)(|n|) I0(|n| r)
+ K0(|n| r), normalized so that zeta_n'(1) = 0; their Wronskian is
xi zeta' - zeta xi' = -1/r.
"""

from __future__ import annotations

import numpy as np

from . import special as sp
from .errors import InvalidModeError

__all__ = ["HomogeneousSolutions"]


class HomogeneousSolutions:
    """Scaled accessors for zeta_n and zeta_n', which carry a factor e^{+|n| r}.

    The growing family xi_n = I0(|n| r) is i0e times e^{|n| r}; the
    pressure formulas combine the two so that no intermediate exceeds O(1).
    """

    def __init__(self, n: int):
        if n == 0:
            raise InvalidModeError("homogeneous solutions are defined for n != 0")
        self.N = abs(int(n))
        # K1(N)/I1(N) in scaled space; the plain ratio is this times e^{-2N}
        self.c_scaled = float(sp.k1e(self.N) / sp.i1e(self.N))

    def zeta_scaled(self, r):
        """zeta(r) e^{+N r}."""
        r = np.asarray(r, dtype=float)
        x = self.N * r
        return self.c_scaled * np.exp(-2.0 * self.N * (1.0 - r)) * sp.i0e(x) + sp.k0e(x)

    def zeta_prime_scaled(self, r):
        """zeta'(r) e^{+N r}."""
        r = np.asarray(r, dtype=float)
        x = self.N * r
        return self.N * (self.c_scaled * np.exp(-2.0 * self.N * (1.0 - r)) * sp.i1e(x)
                         - sp.k1e(x))
