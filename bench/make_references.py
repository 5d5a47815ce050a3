"""Regenerate ``references.json``, the reference values the benchmark checks against.

    python3 bench/make_references.py

Every value comes from a route that shares no code with swirlcurv:

* curvature: K = pi^2/15 for u = 1, g = r^2(1-r) (AC-2), and the closed
  Bessel formula integrated by nested ``mpmath.quad`` at 25 digits for the
  poly and expr modes with n <= 10 (expressions are evaluated by mpmath);
* criteria: the exact extrema of eta and u*omega for the two profiles;
* spectrum / jacobi for u = 1: lambda = sqrt(j_{1,m}^2 + n^2) / 2 and the
  eigenfunction phi = c r J1(j r), normalised like the solver's;
* spectrum / limit-study for u = 1 + r^2: shooting on the Sturm-Liouville ODE
  with scipy's DOP853 at rtol 1e-13, bracketed by a sign scan and checked
  by its zero count (Sturm);
* oscillation-study: the closed form with Ci from ``scipy.special.sici`` for
  u = 1, and ``mpmath.quad`` split at the zeros of sin(k pi r) for u = 1 + r^2.

It takes a few minutes on one core.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import workloads as wl

OUT = Path(__file__).resolve().parent / "references.json"
mp.mp.dps = 25


# ---------------------------------------------------------------------------
# Curvature: nested mpmath quadrature of the closed formula
# ---------------------------------------------------------------------------

def mp_radial(spec):
    if spec is None:
        return lambda r: mp.mpf(0)
    if "poly" in spec:
        coeffs = [mp.mpf(c) for c in spec["poly"]]
        return lambda r: mp.polyval(coeffs[::-1], r)
    text = spec["expr"].replace("^", "**")
    names = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp, "log": mp.log,
             "sqrt": mp.sqrt, "pi": mp.pi}
    return lambda r: eval(text, {"__builtins__": {}}, dict(names, r=r))


def mp_complex(mode, key):
    re, im = mp_radial(mode.get(key)), mp_radial(mode.get(key + "_imag"))
    return lambda r: mp.mpc(re(r), im(r))


def kbar_mpmath(profile, mode) -> float:
    """4 pi^2 int (1/r)[n^2 |g|^2 eta + |H(r)|^2 / I1(N r)^2] dr."""
    u = mp_radial(profile)
    g, f = mp_complex(mode, "g"), mp_complex(mode, "f")
    n = mode["n"]
    N = abs(n)

    def eta(r):
        return u(r) ** 2 + 2 * r * u(r) * mp.diff(u, r)

    def second(r):
        H = mp.quad(lambda s: s * s * f(s) * u(s) * N * mp.besseli(1, N * s), [0, r])
        return abs(H / mp.besseli(1, N * r)) ** 2 / r

    first = mp.quad(lambda r: n * n * abs(g(r)) ** 2 * eta(r) / r, [0, 1])
    return float(4 * mp.pi ** 2 * (first + mp.quad(second, [0, 1])))


def curvature_refs() -> dict:
    out = {"one": {"1": math.pi ** 2 / 15}}
    for key, profile, modes in (("quad", wl.PROFILE_QUAD, wl.quad_modes()),
                                ("dec", wl.PROFILE_DEC, wl.dec_modes())):
        out[key] = {}
        for mode in modes:
            specs = [mode[k] for k in ("g", "g_imag", "f", "f_imag") if k in mode]
            if mode["n"] <= 10 and all("table" not in s for s in specs):
                out[key][str(mode["n"])] = kbar_mpmath(profile, mode)
                print("curvature", key, mode["n"], out[key][str(mode["n"])], flush=True)
    return out


def criteria_refs() -> dict:
    # u = 1 + r^2: eta = (1 + r^2)(1 + 5 r^2) >= 1, u*omega = (1 + r^2)(2 + 4 r^2) >= 2
    # u = 2 - r^2: eta = (2 - r^2)(2 - 5 r^2) has min -3 at r = 1 and a root at
    # sqrt(2/5); u*omega = (2 - r^2)(4 - 4 r^2) has min 0 at r = 1
    return {
        "quad": {"eta_min": 1.0, "u_omega_min": 2.0, "eta_strictly_positive": True,
                 "eta_nonnegative": True, "u_omega_positive": True},
        "dec": {"eta_min": -3.0, "u_omega_min": 0.0, "eta_strictly_positive": False,
                "eta_nonnegative": False, "u_omega_positive": False,
                "eta_root": math.sqrt(0.4)},
    }


# ---------------------------------------------------------------------------
# Sturm-Liouville eigenvalues
# ---------------------------------------------------------------------------

def one_lambda(n: int, m: int) -> float:
    return float(mp.sqrt(mp.besseljzero(1, m) ** 2 + n * n) / 2)


def _shoot(coeffs, n, lam, rtol=1e-13, dense=False):
    """phi(1) of (phi'/r)' = (n^2 - 2 lam^2 u omega) phi / r from phi ~ r^2 at 0."""
    u = np.polynomial.Polynomial(coeffs)
    u_omega = u * (2 * u + np.polynomial.Polynomial([0, 1]) * u.deriv())

    def rhs(r, y):
        return [r * y[1], (n * n - 2 * lam * lam * u_omega(r)) * y[0] / r]

    r0 = 1e-4
    c = (n * n - 2 * lam * lam * u_omega(0.0)) / 8.0
    y0 = [r0 ** 2 + c * r0 ** 4, 2.0 + 4.0 * c * r0 ** 2]
    sol = solve_ivp(rhs, (r0, 1.0), y0, method="DOP853", rtol=rtol, atol=1e-300,
                    dense_output=dense)
    return sol if dense else sol.y[0, -1]


def shooting_lambdas(coeffs, n: int, count: int) -> list[float]:
    step = 0.05 if n <= 10 else 0.02 * n
    found, lam, prev = [], 1e-3, _shoot(coeffs, n, 1e-3, rtol=1e-9)
    while len(found) < count:
        nxt = _shoot(coeffs, n, lam + step, rtol=1e-9)
        if prev * nxt < 0.0:
            root = brentq(lambda x: _shoot(coeffs, n, x), lam, lam + step,
                          xtol=1e-15, rtol=1e-15)
            phi = _shoot(coeffs, n, root, dense=True).sol(np.linspace(1e-4, 0.999, 4000))[0]
            zeros = int(np.sum(phi[:-1] * phi[1:] < 0.0))
            if zeros != len(found):
                raise RuntimeError(f"n={n}: eigenfunction {len(found) + 1} has {zeros} zeros")
            found.append(root)
        lam, prev = lam + step, nxt
    return found


def spectrum_refs() -> dict:
    quad = wl.PROFILE_QUAD["poly"]
    out = {"one": {str(n): [one_lambda(n, m) for m in range(1, 6)] for n in range(1, 11)},
           "quad": {}}
    for n in range(1, 6):
        out["quad"][str(n)] = shooting_lambdas(quad, n, 3)
        print("spectrum quad", n, out["quad"][str(n)], flush=True)
    return out


def limit_refs() -> dict:
    quad = wl.PROFILE_QUAD["poly"]
    out = {}
    for n in (4, 8, 16, 32, 64):
        out[str(n)] = shooting_lambdas(quad, n, 1)[0] / n
        print("limit quad", n, out[str(n)], flush=True)
    return {"quad": out}


def jacobi_refs() -> dict:
    """u = 1, n = 2, m = 2: phi = c r J1(j r) with int (4/r) phi^2 dr = 1."""
    n, m, snap = 2, 2, 64
    j = mp.besseljzero(1, m)
    c = 1 / (mp.sqrt(2) * abs(mp.besselj(0, j)))
    r = np.linspace(1.0 / snap, 1.0, snap)
    phi = np.array([float(c * x * mp.besselj(1, j * x)) for x in r])
    dense = np.linspace(0.0, 1.0, 20001)
    lobe = dense[np.argmax(np.abs(dense * sp.j1(float(j) * dense)))]
    if sp.j1(float(j) * lobe) < 0.0:  # the solver makes the dominant lobe positive
        phi = -phi
    return {"one": {"n": n, "m": m, "lambda": one_lambda(n, m), "phi": phi.tolist()}}


# ---------------------------------------------------------------------------
# Oscillation study
# ---------------------------------------------------------------------------

def oscillation_one(n: int, k: int) -> float:
    """u = 1: eta = 1, <<X, X>>/4pi^2 = 1/4, int sin^2(w r)/r = (gamma + ln 2w - Ci 2w)/2."""
    w = k * math.pi
    s0 = 0.5 * (np.euler_gamma + math.log(2 * w) - sp.sici(2 * w)[1])
    den = n * n * s0 + w * w * (0.5 + math.sin(2 * w) / (4 * w))
    return n * n * s0 / (4 * math.pi ** 2 * 0.25 * den)


def oscillation_mp(coeffs, n: int, k: int) -> float:
    u = mp_radial({"poly": coeffs})
    w = k * mp.pi
    pts = [mp.mpf(i) / (2 * k) for i in range(2 * k + 1)]

    def eta(r):
        return u(r) ** 2 + 2 * r * u(r) * mp.diff(u, r)

    num = n * n * mp.quad(lambda r: mp.sin(w * r) ** 2 * eta(r) / r, pts)
    den = mp.quad(lambda r: n * n * mp.sin(w * r) ** 2 / r + (w * mp.cos(w * r)) ** 2, pts)
    xx = mp.quad(lambda r: r ** 3 * u(r) ** 2, [0, 1])
    return float(num / (4 * mp.pi ** 2 * xx * den))


def oscillation_refs() -> dict:
    return {"one": [oscillation_one(1, k) for k in range(1, 65)],
            "quad": [oscillation_mp(wl.PROFILE_QUAD["poly"], 3, k) for k in range(1, 65)]}


def main():
    refs = {
        "check-profile": criteria_refs(),
        "oscillation-study": oscillation_refs(),
        "jacobi": jacobi_refs(),
        "limit-study": limit_refs(),
        "spectrum": spectrum_refs(),
        "curvature": curvature_refs(),
    }
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print("wrote", OUT)


if __name__ == "__main__":
    main()
