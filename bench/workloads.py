"""Workload definitions: the JSON configs and the CLI invocations of one pass.

Every workload is a list of invocations ``(key, command, config)``.  The
harness writes each config to a file and runs ``swirlcurv.cli.main`` on it;
the program sees nothing else.  ``key`` names the profile ("quad" for
u = 1 + r^2, "dec" for u = 2 - r^2, "one" for u = 1) and, with the command,
selects the entry of ``references.json`` that the artifacts are checked
against.  Why each workload was chosen is recorded in ``BENCHMARK.json``.

``toy=True`` keeps a small subset of every workload (the smoke test uses it);
the subset reuses the same names, configs and references.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

DEFAULT_SEED = 1409

# u = 1 + r^2: eta = (1 + r^2)(1 + 5 r^2) > 0.  u = 2 - r^2: eta changes sign.
PROFILE_QUAD = {"poly": [1.0, 0.0, 1.0]}
PROFILE_DEC = {"expr": "2 - r^2"}
PROFILE_ONE = {"poly": [1.0]}

G_BASE = [0.0, 0.0, 1.0, -1.0]          # r^2 (1 - r)
F_BASE = [0.0, 1.0, -1.0]               # r (1 - r)
TABLE_R = np.linspace(0.0, 1.0, 33)     # 33-knot spline tables


def _table(values) -> dict:
    return {"table": {"r": TABLE_R.tolist(), "values": np.asarray(values).tolist()}}


def random_modes(seed: int, count: int) -> list[dict]:
    """Random admissible complex modes: g = r^2(1-r) * cubic, f = r * quadratic.

    Wavenumbers are drawn without replacement from 4..9, so they never collide
    with the fixed modes (n in 1, 2, 3, 10, 200, 10^4) and the rows of
    ``curvature.csv`` keep a unique n.
    """
    rng = np.random.default_rng(seed)
    ns = rng.choice(np.arange(4, 10), size=count, replace=False)
    modes = []
    for n in sorted(int(x) for x in ns):
        g_re, g_im = (npoly.polymul(G_BASE, rng.uniform(-1.0, 1.0, 4)) for _ in range(2))
        f_re, f_im = (npoly.polymul([0.0, 1.0], rng.uniform(-1.0, 1.0, 3)) for _ in range(2))
        modes.append({"n": n, "g": {"poly": g_re.tolist()}, "g_imag": {"poly": g_im.tolist()},
                      "f": {"poly": f_re.tolist()}, "f_imag": {"poly": f_im.tolist()}})
    return modes


def quad_modes() -> list[dict]:
    return [
        {"n": 1, "g": {"poly": G_BASE}, "f": {"poly": F_BASE}},
        {"n": 2, "g": {"expr": "r^2*(1-r)*exp(r)"}, "f": {"expr": "r*sin(pi*r)"}},
        # a spline f makes every inner quadrature of the closed route subdivide
        {"n": 3, "g": {"poly": G_BASE}, "f": _table(TABLE_R * (1.0 - TABLE_R) ** 2)},
        {"n": 10, "g": {"poly": G_BASE}, "g_imag": {"poly": [0.0, 0.0, 0.5, 0.0, -0.5]},
         "f": {"poly": F_BASE}},
        {"n": 200, "g": {"poly": G_BASE}, "f": {"poly": F_BASE}},
        {"n": 10000, "g": {"poly": G_BASE}, "f": {"poly": F_BASE}},
    ]


def dec_modes() -> list[dict]:
    r = TABLE_R
    return [
        {"n": 1, "g": {"poly": G_BASE}, "f": {"poly": [0.0, 1.0, 0.0, -1.0]}},
        {"n": 2, "g": {"expr": "r^2*(1-r)"}, "g_imag": {"expr": "r^2*(1-r)*cos(r)"},
         "f": {"expr": "r*exp(-r)"}},
        # a spline g: only the outer integrand sees the knots
        {"n": 3, "g": _table(r ** 2 * (1.0 - r) * (1.0 + 0.5 * r)), "f": {"poly": F_BASE}},
        {"n": 10, "g": {"poly": G_BASE}, "f": {"poly": [0.0, 0.0, 1.0, -1.0]}},
        {"n": 200, "g": {"expr": "r^2*(1-r)"}, "f": {"expr": "r*(1-r)"}},
        {"n": 10000, "g": {"poly": G_BASE}, "f": {"poly": F_BASE}},
    ]


def _curvature_table(seed: int, toy: bool) -> list:
    extra = random_modes(seed, 4)
    quad, dec = quad_modes() + extra[0::2], dec_modes() + extra[1::2]
    if toy:
        quad, dec = quad[:2] + extra[:1], dec[:1]
    grid = {"grid": 4096}
    return [
        ("quad", "check-profile", {"profile": PROFILE_QUAD}),
        ("quad", "curvature", {"profile": PROFILE_QUAD, "modes": quad, "params": grid}),
        ("dec", "check-profile", {"profile": PROFILE_DEC}),
        ("dec", "curvature", {"profile": PROFILE_DEC, "modes": dec, "params": grid}),
        # the analytic spot value Kbar = pi^2 / 15 (AC-2)
        ("one", "curvature", {"profile": PROFILE_ONE, "modes": [{"n": 1, "g": {"poly": G_BASE}}],
                              "params": grid}),
    ]


def _conjugate_spectrum(seed: int, toy: bool) -> list:
    grid = 2048 if toy else 8192
    one_n = [1, 2] if toy else list(range(1, 11))
    quad_n = [1] if toy else list(range(1, 6))
    limit_n = [4, 8] if toy else [4, 8, 16, 32, 64]
    jacobi = {"grid": grid, "n": 2, "m": 2}
    return [
        ("one", "spectrum", {"profile": PROFILE_ONE,
                             "params": {"grid": grid, "m_max": 2 if toy else 5, "n_list": one_n}}),
        ("quad", "spectrum", {"profile": PROFILE_QUAD,
                              "params": {"grid": grid, "m_max": 3, "n_list": quad_n}}),
        ("quad", "limit-study", {"profile": PROFILE_QUAD,
                                 "params": {"grid": 1024, "m": 1, "n_list": limit_n}}),
        ("one", "jacobi", {"profile": PROFILE_ONE, "params": dict(jacobi, phase="cos")}),
        ("one", "jacobi", {"profile": PROFILE_ONE, "params": dict(jacobi, phase="sin")}),
    ]


def _oscillation_scan(seed: int, toy: bool) -> list:
    k_max = 4 if toy else 64
    return [
        ("one", "oscillation-study", {"profile": PROFILE_ONE, "params": {"n": 1, "k_max": k_max}}),
        ("quad", "oscillation-study", {"profile": PROFILE_QUAD,
                                       "params": {"n": 3, "k_max": k_max}}),
    ]


WORKLOADS = {
    "curvature_table": _curvature_table,
    "conjugate_spectrum": _conjugate_spectrum,
    "oscillation_scan": _oscillation_scan,
}


def invocations(workload: str, seed: int, toy: bool = False) -> list:
    """The invocations of one pass: ``(profile_key, command, config)`` tuples."""
    return WORKLOADS[workload](int(seed), toy)
