"""Shared builders for test profiles and modes."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

import swirlcurv.jacobi as jacobi
from swirlcurv import (ComplexRadialFunction, FourierMode, PolynomialFunction,
                       RadialFunction, RadialProfile, SLSpectrum)


def counting(monkeypatch, module, name, calls=None) -> list:
    """Wrap ``module.name`` for the test: each call appends its positional
    arguments to ``calls`` (a new list if None), then runs the function.
    Returns ``calls``; functions that share it log their calls in order."""
    calls, fn = [] if calls is None else calls, getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def workload_config(workload, key, command) -> dict:
    """The config of the benchmark ``workload``'s ``command`` on profile ``key``
    ("quad", "dec" or "one"; ``bench/workloads.py``) at its default seed."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    return next(config for k, c, config in workloads.invocations(workload, workloads.DEFAULT_SEED)
                if (k, c) == (key, command))


def profile_poly(coeffs) -> RadialProfile:
    return RadialProfile(PolynomialFunction(coeffs))


def u_const() -> RadialProfile:
    return profile_poly([1.0])


def u_quadratic() -> RadialProfile:
    # u = 1 + r^2: eta = (1 + r^2)(1 + 5 r^2) > 0 and u*omega > 0
    return profile_poly([1.0, 0.0, 1.0])


def u_decreasing() -> RadialProfile:
    # u = 2 - r^2: eta changes sign at r = sqrt(2/5)
    return profile_poly([2.0, 0.0, -1.0])


def galerkin(p: RadialProfile, K: int, n, m_max: int):
    """``jacobi._galerkin`` on the pencil of basis size K: the m_max smallest
    lambda and their coefficients, without sl_spectrum's doubling."""
    return jacobi._galerkin(jacobi._diagonalize(jacobi._pencil(p, K)), n, m_max)


def fixed_size_spectrum(p: RadialProfile, n: int, K: int) -> SLSpectrum:
    """lambda_1n and phi_1n at Galerkin basis size K, without sl_spectrum's doubling."""
    lam, coef = galerkin(p, K, n, 1)
    return SLSpectrum(n=n, eigenvalues=lam, error_estimates=0.0 * lam, grid=0, coef=coef)


def cplx(re_coeffs, im_coeffs=None) -> ComplexRadialFunction:
    imag = PolynomialFunction(im_coeffs) if im_coeffs is not None else None
    return ComplexRadialFunction(PolynomialFunction(re_coeffs), imag)


def mode_poly(n, g_re, g_im=None, f_re=(0.0,), f_im=None) -> FourierMode:
    return FourierMode(int(n), cplx(list(g_re), g_im), cplx(list(f_re), f_im))


class _ScaledPart(RadialFunction):
    """The real or imaginary part of c * fn, fn a complex radial function."""

    def __init__(self, fn, c, part):
        self.fn, self.c, self.part = fn, complex(c), part
        self.knots = fn.knots

    def __call__(self, r):
        return getattr(self.c * self.fn(r), self.part)

    def derivative(self, r):
        return getattr(self.c * self.fn.derivative(r), self.part)


def scaled_mode(m: FourierMode, c) -> FourierMode:
    """The mode c * Y_n for a complex number c, with exact derivatives."""
    def scaled(fn):
        return ComplexRadialFunction(_ScaledPart(fn, c, "real"), _ScaledPart(fn, c, "imag"))
    return FourierMode(m.n, scaled(m.g), scaled(m.f))


# g = r^2 (1 - r) as ascending coefficients, ditto f = r (1 - r)
G_BASE = [0.0, 0.0, 1.0, -1.0]
F_BASE = [0.0, 1.0, -1.0]


def standard_mode(n) -> FourierMode:
    """g = r^2(1-r), f = r(1-r): satisfies all axis/boundary invariants."""
    return mode_poly(n, G_BASE, f_re=F_BASE)


def random_mode(rng: np.random.Generator, n=None, complex_parts=True) -> FourierMode:
    """Random admissible mode: g = r^2(1-r) * cubic, f = r * quadratic."""
    if n is None:
        n = int(rng.integers(1, 7))

    def g_coeffs():
        return npoly.polymul([0.0, 0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, 3)).tolist()

    def f_coeffs():
        return npoly.polymul([0.0, 1.0], rng.uniform(-1.0, 1.0, 3)).tolist()

    if complex_parts:
        return mode_poly(n, g_coeffs(), g_coeffs(), f_coeffs(), f_coeffs())
    return mode_poly(n, g_coeffs(), f_re=f_coeffs())
