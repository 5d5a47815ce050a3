"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from swirlcurv import (FourierMode, PolynomialFunction, RadialProfile,
                       TableFunction, assemble_jacobi, curvature_mode_closed,
                       curvature_mode_oracle, curvature_table, jacobi_residuals,
                       oscillation_study, sl_spectra, sl_spectrum)
from swirlcurv.radial import ComplexRadialFunction

from _helpers import (fixed_size_spectrum, mode_poly, random_mode, scaled_mode, u_const,
                      u_decreasing, u_quadratic)
from _oracles import j1_zeros

PI2 = math.pi ** 2


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


def test_ac1_closed_formula_matches_oracle():
    profiles = [u_const(), u_quadratic(), u_decreasing()]
    rng = np.random.default_rng(20260823)
    cases = [(p, random_mode(rng, n=n))
             for p in profiles for n in (1, 2, 5, 10)]
    for _ in range(8):
        cases.append((profiles[int(rng.integers(0, 3))], random_mode(rng)))
    assert len(cases) == 20

    t0 = time.time()
    worst = 0.0
    for p, m in cases:
        kc = curvature_mode_closed(p, m)
        ko = curvature_mode_oracle(p, m)
        worst = max(worst, abs(kc - ko) / (1.0 + abs(kc)))
    elapsed = time.time() - t0
    report("AC-1", worst <= 1e-6 and elapsed <= 60.0,
           f"20 cases, worst relative discrepancy {worst:.3e}, {elapsed:.1f} s")


def test_ac2_analytic_spot_value():
    m = mode_poly(1, [0, 0, 1, -1])
    k = curvature_mode_closed(u_const(), m)
    err = abs(k - PI2 / 15)
    report("AC-2", err <= 1e-8, f"Kbar = {k:.10f} vs pi^2/15, |diff| = {err:.2e}")


def test_ac3_positivity_for_positive_eta():
    rng = np.random.default_rng(42)
    values = []
    for p in (u_const(), u_quadratic()):
        for _ in range(50):
            values.append(curvature_mode_closed(p, random_mode(rng)))
    values = np.array(values)
    report("AC-3", bool(np.all(values > 0.0)),
           f"100 random modes, min Kbar = {values.min():.3e}")


def test_ac4_negative_curvature_construction():
    # g supported inside [0.7, 0.9] where eta(2 - r^2) < 0; f = 0
    r = np.linspace(0.0, 1.0, 201)
    vals = np.zeros_like(r)
    inside = (r > 0.7) & (r < 0.9)
    s = (r[inside] - 0.8) / 0.1
    vals[inside] = np.exp(-1.0 / (1.0 - s ** 2))
    g = ComplexRadialFunction(TableFunction(r, vals))
    m = FourierMode(1, g, ComplexRadialFunction(PolynomialFunction([0.0])))
    k = curvature_mode_closed(u_decreasing(), m)
    report("AC-4", k < 0.0, f"Kbar = {k:.6e}")


@pytest.fixture(scope="module")
def ac5_spectra():
    spectra = {}
    t0 = time.time()
    for n in range(1, 11):
        spectra[n] = sl_spectrum(u_const(), n, 5)
    return spectra, time.time() - t0


def test_ac5_spectrum_matches_bessel_zeros(ac5_spectra):
    spectra, elapsed = ac5_spectra
    zeros = j1_zeros(5)
    worst = 0.0
    for n in range(1, 11):
        for m in range(1, 6):
            exact = math.sqrt(zeros[m - 1] ** 2 + n ** 2) / 2.0
            rel = abs(spectra[n].eigenvalues[m - 1] - exact) / exact
            worst = max(worst, rel)
    report("AC-5", worst <= 1e-6 and elapsed <= 30.0,
           f"m <= 5, n <= 10, worst relative error {worst:.3e}, {elapsed:.1f} s")


def test_ac6_conjugate_vanishing_and_residuals(ac5_spectra):
    spectra, _ = ac5_spectra
    p2 = u_quadratic()
    spectra2 = {n: sl_spectrum(p2, n, 3) for n in range(1, 6)}
    pairs = [(u_const(), spectra[n], m) for n in range(1, 11) for m in range(1, 6)]
    pairs += [(p2, spectra2[n], m) for n in range(1, 6) for m in range(1, 4)]

    r = np.linspace(0.1, 0.95, 30)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 9)[None, :]
    worst_vanish = 0.0
    worst_resid = 0.0
    for p, s, m in pairs:
        sol = assemble_jacobi(p, s, m)
        scale = max(np.max(np.abs(sol.fields(0.25 * sol.t_star, r, z)["g"])),
                    np.max(np.abs(sol.fields(0.5 * sol.t_star, r, z)["f"])))
        end = np.max([np.abs(sol.fields(sol.t_star, r, z)[name]) for name in ("g", "f")])
        # np.maximum and np.max carry a NaN through, where the builtin max would drop it
        worst_vanish = np.maximum(worst_vanish, end / scale)
        worst_resid = np.maximum(worst_resid, np.max(list(jacobi_residuals(sol).values())))

    # spectral decay of the discretization-limited residuals as the basis grows
    # (the two analytic identities sit at round-off at every size), down to
    # round-off at the basis size sl_spectrum accepts
    decay_ok = True
    ratios = []
    for p, n in ((u_const(), 1), (u_quadratic(), 2)):
        res = {}
        for K in (8, 16):
            rep = jacobi_residuals(assemble_jacobi(p, fixed_size_spectrum(p, n, K), 1))
            res[K] = np.maximum(rep["residual_stream_transport"], rep["residual_second_order"])
        accepted = jacobi_residuals(assemble_jacobi(p, sl_spectrum(p, n, 1), 1))
        ratios.append(res[8] / res[16])
        decay_ok = (decay_ok and res[8] / res[16] >= 100.0
                    and np.max(list(accepted.values())) <= 1e-10)

    ok = worst_vanish <= 1e-8 and worst_resid <= 1e-6 and decay_ok
    report("AC-6", ok,
           f"{len(pairs)} eigenpairs, worst vanishing {worst_vanish:.2e}, "
           f"worst residual {worst_resid:.2e}, decay ratios "
           + ", ".join(f"{x:.2f}" for x in ratios))


def test_ac7_oscillation_infimum_zero():
    rows = oscillation_study(u_const(), 1, 32)
    k = np.array([row[0] for row in rows], dtype=float)
    v = np.array([row[1] for row in rows])
    decreasing = bool(np.all(np.diff(v) < 0.0))
    sel = k >= 8
    slope = float(np.polyfit(np.log(k[sel]), np.log(v[sel]), 1)[0])
    ok = decreasing and abs(slope + 2.0) <= 0.2
    report("AC-7", ok, f"strictly decreasing={decreasing}, "
                       f"log-log slope over k=8..32 is {slope:.3f}")


def test_ac8_finite_limit_of_lambda_over_n():
    (s,) = sl_spectra(u_const(), [64], 1)
    gap = abs(float(s.eigenvalues[0] / abs(s.n)) - 0.5)

    ratios = [float(s.eigenvalues[0] / abs(s.n))
              for s in sl_spectra(u_quadratic(), [4, 8, 16, 32, 64], 1)]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    # the weight's maximum sits on the Dirichlet boundary, so the limit is
    # approached at the boundary-layer rate n^(-2/3): successive differences
    # shrink by 2^(2/3) ~ 1.59 per doubling, which is what we gate on
    shrinking = all(d2 <= d1 / 1.5 for d1, d2 in zip(diffs, diffs[1:]))
    ok = gap < 1e-3 and shrinking
    report("AC-8", ok, f"u=1: |lambda/64 - 1/2| = {gap:.2e}; u=1+r^2 diff ratios "
                       + ", ".join(f"{a / b:.2f}" for a, b in zip(diffs, diffs[1:])))


def test_ac9_special_function_identities():
    from scipy import special as sp
    x = np.linspace(0.1, 50.0, 2000)
    wron = sp.i0e(x) * sp.k1e(x) + sp.i1e(x) * sp.k0e(x)
    wron_err = float(np.max(np.abs(wron * x - 1.0)))

    def ratio(t):
        return sp.k1e(t) / sp.i1e(t) * math.exp(-2.0 * t)

    deriv_err = 0.0
    for t in np.linspace(0.5, 20.0, 79):
        h = 1e-4 * max(t, 1.0)
        lhs = (ratio(t - 2 * h) - 8 * ratio(t - h)
               + 8 * ratio(t + h) - ratio(t + 2 * h)) / (12 * h)
        rhs = -math.exp(-2.0 * t) / (t * sp.i1e(t) ** 2)
        deriv_err = max(deriv_err, abs(lhs - rhs) / abs(rhs))

    rng = np.random.default_rng(7)
    k200 = curvature_mode_closed(u_const(), random_mode(rng, n=200))
    ok = wron_err <= 1e-12 and deriv_err <= 1e-8 and np.isfinite(k200)
    report("AC-9", ok, f"Wronskian err {wron_err:.2e}, derivative err {deriv_err:.2e}, "
                       f"n=200 Kbar = {k200:.3e}")


def test_ac10_structural_properties():
    p = u_quadratic()
    rng = np.random.default_rng(11)
    modes = [random_mode(rng, n=n) for n in (1, 2, 4, 7)]
    total = sum(row.kbar_closed for row in curvature_table(p, modes))
    parts = sum(curvature_mode_closed(p, m) for m in modes)
    sum_err = abs(total - parts) / (1.0 + abs(parts))

    zero_mode = mode_poly(0, [0, 0, 1, -1], f_re=[0, 1, -1])
    k0 = abs(curvature_mode_closed(p, zero_mode))

    m = modes[1]
    k1 = curvature_mode_closed(p, m)
    k3 = curvature_mode_closed(p, scaled_mode(m, 3.0))
    scale_err = abs(k3 - 9.0 * k1) / (1.0 + abs(k3))

    ok = sum_err <= 1e-8 and k0 <= 1e-12 and scale_err <= 1e-10
    report("AC-10", ok, f"sum err {sum_err:.2e}, |Kbar(n=0)| = {k0:.2e}, "
                        f"scaling err {scale_err:.2e}")
