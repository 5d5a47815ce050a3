"""Sturm-Liouville spectrum, conjugate times, and explicit Jacobi fields.

Along the geodesic generated by X = u(r) d/dtheta, perturbations with
z-wavenumber n and stream function envelope phi(r) return to zero at times
t = 2 pi lambda / n, where -lambda^2 is an eigenvalue of

    (d/dr)((1/r) phi') - (n^2 / r) phi = (2 C u omega / r) phi,
    phi(0) = phi(1) = 0,

the phi = r psi form of the Bessel-type eigenproblem.  The weight
2 u omega / r must be positive on [0, 1]; otherwise the construction is
refused.  The discretization is a conservative second-order difference
scheme reduced (by the diagonal weight's square root) to a symmetric
tridiagonal problem, with Richardson extrapolation over grid doublings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from .errors import AccuracyError, HypothesisViolationError, InvalidModeError, ValidationError
from .profile import RadialProfile, classify_criteria

__all__ = [
    "SLSpectrum",
    "JacobiSolution",
    "ResidualReport",
    "sl_spectrum",
    "conjugate_times",
    "lambda_over_n_study",
    "assemble_jacobi",
    "jacobi_residuals",
]


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

@dataclass
class _Pencil:
    """One grid level of the discretized problem: the symmetric tridiagonal
    matrix W^-1/2 A W^-1/2 and its eigenvalues C nearest zero, ascending."""

    n: int                # |n|
    N: int                # grid intervals; the matrix has N - 1 rows
    w: np.ndarray         # weight 2 u omega / r at the interior nodes
    main: np.ndarray
    off: np.ndarray
    c: np.ndarray         # selected eigenvalues as the bisection returned them

    @property
    def lam(self) -> np.ndarray:
        # the weight w already carries the factor 2, so the pencil eigenvalue is C
        # itself; the largest C (closest to zero) give the smallest lambda
        return np.sqrt(-self.c[::-1])


@dataclass
class SLSpectrum:
    """Eigenvalues of ``sl_spectrum``; the eigenfunctions ``r``/``phi`` (and the
    Rayleigh defects) are computed by inverse iteration on first access."""

    n: int
    eigenvalues: np.ndarray          # lambda_{mn}, ascending, Richardson-extrapolated
    error_estimates: np.ndarray      # conservative relative error estimates
    grid: int                        # grid actually used (coarse level)
    _fine: _Pencil = field(repr=False, default=None)

    @cached_property
    def r(self) -> np.ndarray:
        """Fine grid including both endpoints."""
        return np.linspace(0.0, 1.0, self._fine.N + 1)

    @cached_property
    def phi(self) -> np.ndarray:
        """(m_max, len(r)) weight-normalized eigenfunctions, zero at both ends."""
        pen = self._fine
        K = pen.main.size
        stein, = get_lapack_funcs(("stein",), (pen.main, pen.off))
        isplit = np.zeros(K, dtype=np.int32)
        isplit[0] = K  # one block: the off-diagonal never vanishes
        vecs, info = stein(pen.main, pen.off, pen.c, np.ones(K, dtype=np.int32), isplit)
        if info != 0:
            raise AccuracyError(f"inverse iteration failed (stein info={info})")
        # largest C first; weight-norm one: h * sum(w phi^2) = 1
        phi = vecs[:, ::-1] / np.sqrt(pen.w)[:, None] / np.sqrt(1.0 / pen.N)
        # fix sign: dominant lobe positive
        phi *= np.sign(phi[np.argmax(np.abs(phi), axis=0), np.arange(phi.shape[1])])
        full = np.zeros((phi.shape[1], K + 2))
        full[:, 1:-1] = phi.T
        return full

    @cached_property
    def _rayleigh(self) -> np.ndarray:
        # discrete Rayleigh identity defect, with the solver's quadratic forms
        pen = self._fine
        h = 1.0 / pen.N
        a = 1.0 / ((np.arange(pen.N) + 0.5) * h)
        ph = self.phi[:, 1:-1]
        rhs = -(np.sum(a * np.diff(self.phi) ** 2 / h ** 2, axis=1)
                + np.sum(pen.n * pen.n * ph ** 2 / self.r[1:-1], axis=1)) * h
        lhs = pen.c[::-1] * np.sum(pen.w * ph ** 2, axis=1) * h
        return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)

    def spline(self, m: int) -> CubicSpline:
        """Cubic-spline interpolant of phi_{mn} (m is 1-based)."""
        return CubicSpline(self.r, self.phi[m - 1])

    def oscillation_count(self, m: int) -> int:
        """Number of interior sign changes of phi_{mn} (Sturm: m - 1)."""
        v = self.phi[m - 1][1:-1]
        v = v[np.abs(v) > 1e-9 * np.max(np.abs(v))]
        return int(np.sum(v[:-1] * v[1:] < 0.0))

    def rayleigh_residual(self, m: int) -> float:
        """Relative defect of 2C int u w phi^2/r = -int (phi'^2 + n^2 phi^2)/r,
        evaluated with the discrete quadratic forms of the solver."""
        return float(self._rayleigh[m - 1])


def _solve_grid(p: RadialProfile, n: int, m_max: int, N: int) -> _Pencil:
    h = 1.0 / N
    r = np.linspace(0.0, 1.0, N + 1)
    ri = r[1:-1]
    u = np.asarray(p.u(ri), dtype=float)
    om = np.asarray(p.omega(ri), dtype=float)
    w = 2.0 * u * om / ri
    if np.any(w <= 0.0):
        raise HypothesisViolationError("u * omega must be positive on (0, 1)")

    # conservative flux coefficients a_e = 1/r at edge midpoints
    edge = (np.arange(N) + 0.5) * h
    a = 1.0 / edge
    main = -(a[1:] + a[:-1]) / h ** 2 - n * n / ri
    off = a[1:-1] / h ** 2

    d = np.sqrt(w)
    b_main = main / w
    b_off = off / (d[:-1] * d[1:])

    K = N - 1
    lo = max(K - m_max, 0)
    # eigenvalues only (Sturm bisection); SLSpectrum.phi runs inverse iteration
    # on the accepted level when the eigenfunctions are read
    vals = eigh_tridiagonal(b_main, b_off, eigvals_only=True, select="i",
                            select_range=(lo, K - 1))
    if np.any(vals >= 0.0):
        raise AccuracyError("eigenvalue C came out nonnegative; weight not definite?")
    return _Pencil(n=n, N=N, w=w, main=b_main, off=b_off, c=vals)


def sl_spectrum(p: RadialProfile, n: int, m_max: int, grid: int = 2048,
                tol: float = 1e-6) -> SLSpectrum:
    """Smallest ``m_max`` eigenvalues lambda_{mn}; eigenfunctions on demand.

    Solves at ``grid`` and ``2 * grid`` and Richardson-extrapolates; the grid
    is doubled (up to three times) until the conservative relative error
    estimate |lambda_2N - lambda_N| / 3 falls below ``tol``.  After a doubling
    the old fine level is the new coarse one, so each level is solved once.
    """
    if n == 0:
        raise InvalidModeError("spectrum requires n != 0")
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    if grid < 256:
        raise ValidationError("grid must be >= 256")
    report = classify_criteria(p)
    if not report.u_omega_positive:
        raise HypothesisViolationError(
            f"u * omega is not positive on [0,1]; witnesses: {report.witness_points}")

    n_abs = abs(int(n))
    coarse = _solve_grid(p, n_abs, m_max, grid).lam
    for _ in range(4):
        fine = _solve_grid(p, n_abs, m_max, 2 * grid)
        lam2 = fine.lam
        est = np.abs(lam2 - coarse) / 3.0 / lam2
        if np.all(est <= tol):
            return SLSpectrum(n=int(n), eigenvalues=(4.0 * lam2 - coarse) / 3.0,
                              error_estimates=est, grid=grid, _fine=fine)
        coarse = lam2
        grid *= 2
    raise AccuracyError(
        f"eigenvalue estimate did not reach tol={tol} by grid {grid}",
        error_estimate=float(np.max(est)))


def conjugate_times(s: SLSpectrum):
    """Monoconjugate times t* = 2 pi lambda_{mn} / |n|, ascending in m."""
    return [(m + 1, float(2.0 * np.pi * lam / abs(s.n)))
            for m, lam in enumerate(s.eigenvalues)]


def lambda_over_n_study(p: RadialProfile, m: int, n_list, grid: int = 1024):
    """Numerical convergence diagnostic for the finite limit of lambda_{mn}/n."""
    out = []
    for n in n_list:
        s = sl_spectrum(p, int(n), m, grid=grid)
        out.append((int(n), float(s.eigenvalues[m - 1] / abs(n))))
    return out


# ---------------------------------------------------------------------------
# Jacobi fields
# ---------------------------------------------------------------------------

# Time factor T(theta) of h, its derivative T' and G = int_0^theta T.  Since
# T'' = -T, the secular coefficient T' + G is the constant T'(0): 0 for cos, 1 for sin.
_TIME_FACTORS = {"cos": (np.cos, lambda x: -np.sin(x), np.sin),
                 "sin": (np.sin, np.cos, lambda x: 1.0 - np.cos(x))}


@dataclass
class JacobiSolution:
    """Closed-form Jacobi field built from one eigenpair.

    ``h`` and ``j`` are the stream/swirl components of the linearized Euler
    solution; ``g`` and ``f`` the components of the Jacobi field itself.  They
    and their time derivatives are callables (t, r, z) -> array broadcast over
    (r, z), written for both phases through T, T' and G at theta = n t / lambda.
    """

    m: int
    n: int
    lam: float
    t_star: float
    phase: str
    profile: RadialProfile = field(repr=False, default=None)
    _phi: CubicSpline = field(repr=False, default=None)

    def _time(self, t):
        T, dT, G = _TIME_FACTORS[self.phase]
        theta = self.n * t / self.lam
        return T(theta), dT(theta), G(theta)

    def _space(self, r, z):
        r, nz = np.asarray(r, dtype=float), self.n * np.asarray(z)
        return r, self._phi(r), np.cos(nz), np.sin(nz)

    def h(self, t, r, z):
        T, _, _ = self._time(t)
        _, phi, cz, _ = self._space(r, z)
        return T * phi * cz

    def j(self, t, r, z):
        _, dT, _ = self._time(t)
        r, phi, _, sz = self._space(r, z)
        return (self.lam * self.profile.omega(r) / r ** 2) * phi * sz * dT

    def g(self, t, r, z):
        _, _, G = self._time(t)
        _, phi, cz, _ = self._space(r, z)
        return (self.lam / self.n) * cz * G * phi

    def f(self, t, r, z):
        # f = int_0^t (j - (u'/r) dg/dz) dt, and omega / r^2 = 2 u / r^2 + u' / r; with
        # the sine phase the secular u'(r) t term keeps f from re-vanishing at t*
        (T, _, _), (T0, secular, _) = self._time(t), self._time(0.0)
        r, phi, _, sz = self._space(r, z)
        u, up = self.profile.u(r), self.profile.u.derivative(r)
        return sz * phi * self.lam * (
            (2.0 * u / r ** 2) * (self.lam / self.n) * (T - T0) + secular * (up / r) * t)

    def dj_dt(self, t, r, z):
        T, _, _ = self._time(t)
        r, phi, _, sz = self._space(r, z)
        return -(self.n * self.profile.omega(r) / r ** 2) * phi * sz * T

    def dg_dt(self, t, r, z):
        return self.h(t, r, z)

    def df_dt(self, t, r, z):
        (_, dT, _), (_, secular, _) = self._time(t), self._time(0.0)
        r, phi, _, sz = self._space(r, z)
        u, up = self.profile.u(r), self.profile.u.derivative(r)
        return sz * phi * self.lam * ((2.0 * u / r ** 2) * dT + secular * up / r)


def assemble_jacobi(p: RadialProfile, s: SLSpectrum, m: int, *,
                    phase: str = "cos") -> JacobiSolution:
    """Build the explicit Jacobi field for eigenpair (m, n) of ``s``."""
    if phase not in ("cos", "sin"):
        raise ValidationError("phase must be 'cos' or 'sin'")
    if not (1 <= m <= len(s.eigenvalues)):
        raise ValidationError(f"eigenindex m={m} out of range")
    lam = float(s.eigenvalues[m - 1])
    return JacobiSolution(m=m, n=s.n, lam=lam,
                          t_star=float(2.0 * np.pi * lam / abs(s.n)),
                          phase=phase, profile=p, _phi=s.spline(m))


# ---------------------------------------------------------------------------
# Residuals of the linearized equations
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Max-norm residuals over the (r, z, t) sample set, scale-normalized."""

    swirl_transport: float    # d j/dt = (omega/r^2) dh/dz
    stream_transport: float   # dt[D h] = -2 r u dj/dz
    second_order: float       # dtt[D h] = -(2 u omega / r) dzz h
    flow_components: float    # dg/dt = h  and  df/dt + (u'/r) dg/dz = j

    def max_residual(self) -> float:
        return max(self.swirl_transport, self.stream_transport,
                   self.second_order, self.flow_components)


def _fft_dz(field: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral d/dz along the last axis (z uniform on [0, 2pi))."""
    nz = field.shape[-1]
    k = np.fft.fftfreq(nz, d=1.0 / nz)
    return np.real(np.fft.ifft((1j * k) ** order * np.fft.fft(field, axis=-1), axis=-1))


def _relative(defect, *terms) -> float:
    """max |defect| over the largest max |term|: scales taken over every term, so
    a term vanishing at a special time does not turn round-off into a large
    relative residual."""
    return float(np.max(np.abs(defect)) / max(*(np.max(np.abs(x)) for x in terms), 1e-300))


def jacobi_residuals(p: RadialProfile, sol: JacobiSolution, grid: int = 256,
                     times=None) -> ResidualReport:
    """Evaluate the four linearized-equation residuals for a Jacobi solution.

    Time derivatives are analytic (the closed forms are trigonometric in t);
    z derivatives are spectral; r derivatives come from the eigenfunction
    spline.  The radial grid starts away from the axis where the 1/r^2
    factors would amplify interpolation noise.
    """
    if times is None:
        times = [0.25 * sol.t_star, 0.5 * sol.t_star, 0.75 * sol.t_star]
    n = sol.n
    r = np.linspace(0.1, 1.0, grid)[:, None]
    nz = max(16, 4 * abs(n))
    z = (2.0 * np.pi * np.arange(nz) / nz)[None, :]

    u = np.asarray(p.u(r), dtype=float)
    om = np.asarray(p.omega(r), dtype=float)
    phi = sol._phi(r)
    dphi = sol._phi(r, 1)
    ddphi = sol._phi(r, 2)
    # D_r phi := (phi'/r)' - n^2 phi / r, the radial part of the stream operator
    lop = ddphi / r - dphi / r ** 2 - n * n * phi / r

    res_a = res_b = res_c = res_d = 0.0
    for t in times:
        cz = np.cos(n * z)

        h = sol.h(t, r, z)
        j = sol.j(t, r, z)

        # (a) swirl transport
        lhs = sol.dj_dt(t, r, z)
        rhs = (om / r ** 2) * _fft_dz(h)
        res_a = max(res_a, _relative(lhs - rhs, rhs, lhs))

        # time factor multiplying D(h): d/dt and d2/dt2 of the t-dependence T of h
        T, dT, _ = sol._time(t)
        tf1, tf2 = dT * n / sol.lam, -T * (n / sol.lam) ** 2

        # D(h) separates as (time factor) * [lop * cos(nz)]; assemble directly:
        dt_Dh = tf1 * lop * cz
        dtt_Dh = tf2 * lop * cz

        # (b) stream transport: dt[D h] + 2 r u dj/dz = 0
        term = 2.0 * r * u * _fft_dz(j)
        res_b = max(res_b, _relative(dt_Dh + term, term, dt_Dh))

        # (c) second-order equation: dtt[D h] + (2 u om / r) dzz h = 0
        term_c = (2.0 * u * om / r) * _fft_dz(h, order=2)
        res_c = max(res_c, _relative(dtt_Dh + term_c, term_c, dtt_Dh))

        # (d) flow components: dg/dt = h  and  df/dt + (u'/r) dg/dz = j
        dg = sol.dg_dt(t, r, z)
        df = sol.df_dt(t, r, z)
        drift = (np.asarray(p.u.derivative(r), dtype=float) / r) * _fft_dz(sol.g(t, r, z))
        res_d = max(res_d, _relative(dg - h, h, dg), _relative(df + drift - j, j, df, drift))

    return ResidualReport(res_a, res_b, res_c, res_d)
