"""Sturm-Liouville spectrum, conjugate times, and explicit Jacobi fields.

Along the geodesic generated by X = u(r) d/dtheta, perturbations with
z-wavenumber n and stream function envelope phi(r) return to zero at times
t = 2 pi lambda / n, where lambda^2 is an eigenvalue of

    -(d/dr)((1/r) phi') + (n^2 / r) phi = lambda^2 (2 u omega / r) phi,
    phi(0) = phi(1) = 0,

the phi = r psi form of the Bessel-type eigenproblem.  Its left side is
positive definite for every profile; the weight 2 u omega / r may change sign,
and the problem is then right-definite with an indefinite weight.  Since
d/dr (r^4 u^2) = 2 r^3 u omega, the weight is positive somewhere for every
u != 0, so there are infinitely many positive lambda^2, the m-th with an
eigenfunction of m - 1 interior zeros (Zettl, Sturm-Liouville Theory, AMS 2005).
The discretization is a Legendre-Galerkin method (Shen, SIAM J.
Sci. Comput. 15, 1994) on the basis phi_k = r^2 (1 - r) P_k(2r - 1), which
carries phi ~ r^2 at the axis and phi(1) = 0; each eigenfunction is a
``numpy.polynomial.Legendre`` series, differentiated exactly.  n enters the
pencil only as A + n^2 B, so ``sl_spectra`` assembles it once per basis size K,
on that size's own rule, and diagonalizes A and B together once; each
wavenumber is then a diagonal scaling of one matrix, and the pencils of many
wavenumbers are one stacked eigensolve; n and -n share one pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import Legendre

from .errors import AccuracyError, InvalidModeError, ValidationError
from .profile import RadialProfile
from .quadrature import gauss_nodes, panel_edges

# a name only: the benchmark tracer (bench/tracing.py) rebinds it, and nothing
# calls it, until ROADMAP item 3 gives the tracer a recorder to read
eigh_tridiagonal = None

__all__ = [
    "SLSpectrum",
    "JacobiSolution",
    "sl_spectrum",
    "sl_spectra",
    "conjugate_times",
    "assemble_jacobi",
    "jacobi_residuals",
]


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

# Doubling stops once no eigenvalue moves more than TOL relative.  Eigenvalue
# errors go as the square of eigenfunction errors, so the Jacobi fields set TOL:
# at 1e-6, u = 1 + r + r^2/2, n = 20, m = 4 stopped at K = 32 with residuals of
# 3.4e-8.  Past K_MAX the K-panel rule under-integrates the stiffness, a
# polynomial of degree up to 2K + 1 (ROADMAP item 21): u = 1, n = 1, m <= 5 has
# an error of 2.8e-15 at K = 128, 5.5e-11 at K = 192 and a spurious eigenvalue
# at K = 256.
TOL, K_MAX = 1e-8, 192
# wavenumbers per stacked eigensolve: 16 pencils of K_MAX^2 doubles, 4.7 MB
BLOCK = 16
_BUBBLE = -Legendre.fromroots([0.0, 0.0, 1.0], domain=[0.0, 1.0])  # r^2 (1 - r)


@dataclass
class SLSpectrum:
    """Smallest eigenvalues of ``sl_spectrum`` and their eigenfunctions."""

    n: int
    eigenvalues: np.ndarray          # lambda_{mn}, ascending, at the larger basis size
    error_estimates: np.ndarray      # |lambda_K' - lambda_K| / lambda_K', K' the larger size
    # the unread ``grid`` argument of sl_spectrum (0 from sl_spectra), echoed for
    # the benchmark tracer (bench/tracing.py) until ROADMAP item 3 replaces it
    grid: int
    coef: np.ndarray = field(repr=False)  # (m_max, K): phi_mn = sum_k coef[m - 1, k] phi_k

    def eigenfunction(self, m: int) -> Legendre:
        """phi_{mn} on [0, 1] (m is 1-based): int (2 u omega / r) phi^2 dr = 1,
        dominant lobe positive."""
        return Legendre(self.coef[m - 1], domain=[0.0, 1.0]) * _BUBBLE


def _pencil(p: RadialProfile, K: int):
    """The Galerkin matrices on phi_0 ... phi_{K-1} that do not depend on n:
    stiffness A = int phi' psi' / r, B = int phi psi / r, mass
    M = int (2 u omega / r) phi psi of u 2^-e, the basis values at the nodes, and
    2^-e, e the exponent of max |u| there: lambda(u) = 2^-e lambda(u 2^-e), and the
    power of two rounds nothing and keeps u omega from over- or underflowing."""
    x, w = gauss_nodes(panel_edges(0.0, 1.0, p.u.knots, K))
    r, w = x.ravel(), w.ravel()
    u = p.u(r)
    e = np.frexp(np.max(np.abs(u)))[1]
    weight = 2.0 * np.ldexp(u, -e) * np.ldexp(p.omega(r), -e) / r
    # P_k(2r - 1) and its r-derivative by the three-term recurrence, one row each
    P, dP, s = np.zeros((K, r.size)), np.zeros((K, r.size)), 2.0 * r - 1.0
    P[0], P[1], dP[1] = 1.0, s, 2.0
    for k in range(1, K - 1):
        P[k + 1] = ((2 * k + 1) * s * P[k] - k * P[k - 1]) / (k + 1)
        dP[k + 1] = dP[k - 1] + (4 * k + 2) * P[k]
    b = r * r * (1.0 - r)   # the bubble, with slope r (2 - 3r)
    phi, dphi = b * P, r * (2.0 - 3.0 * r) * P + b * dP
    return ((dphi * (w / r)) @ dphi.T, (phi * (w / r)) @ phi.T,
            (phi * (w * weight)) @ phi.T, phi.T, np.ldexp(1.0, -e))


def _diagonalize(pencil):
    """T, d, G = T^T M T, the basis values and the scale of ``_pencil``'s
    ``pencil``: with A = L L^T and L^-1 B L^-T = Q diag(d) Q^T, T = L^-T Q makes
    T^T (A + n^2 B) T = diag(1 + n^2 d) for every n (Golub & Van Loan, 4th ed.,
    sec. 8.7)."""
    A, B, M, phi, scale = pencil
    inv_chol = np.linalg.inv(np.linalg.cholesky(A))
    d, Q = np.linalg.eigh(inv_chol @ B @ inv_chol.T)
    T = inv_chol.T @ Q
    return T, d, T.T @ M @ T, phi, scale


def _galerkin(basis, n, m_max: int):
    """The ``m_max`` smallest lambda of (A + n^2 B) v = lambda^2 M v on
    ``_diagonalize``'s ``basis`` and their coefficient vectors, one row each; for
    an array of n, one such pair per n, stacked along a leading axis.  M need not
    be definite, so this solves the right-definite M v = mu (A + n^2 B) v for its
    m_max largest mu = 1 / lambda^2: with s = (1 + n^2 d)^-1/2, w are the
    eigenvectors of diag(s) G diag(s) and v = T (s w) lambda.  A mu <= 0 has
    no lambda: it gives NaN, which settles nothing."""
    T, d, G, phi, scale = basis
    s = (1.0 + np.asarray(n, float)[..., None] ** 2 * d) ** -0.5
    mu, w = np.linalg.eigh(s[..., :, None] * G * s[..., None, :])
    mu, w = mu[..., :-m_max - 1:-1], w[..., :-m_max - 1:-1]   # descending mu: ascending lambda
    lam = scale / np.sqrt(np.where(mu > 0.0, mu, np.nan))
    # v^T M v = 1 gives each phi weight-norm one; make its dominant lobe positive
    vecs = T @ (s[..., :, None] * w) * lam[..., None, :]
    vals = phi @ vecs
    peak = np.take_along_axis(vals, np.argmax(np.abs(vals), axis=-2)[..., None, :], axis=-2)
    vecs *= np.sign(peak)
    return lam, np.swapaxes(vecs, -1, -2)


def sl_spectra(p: RadialProfile, n_list, m_max: int) -> list:
    """Smallest ``m_max`` eigenvalues lambda_{mn} and their eigenfunctions, one
    ``SLSpectrum`` per n of ``n_list``, in its order.

    Solves at basis size K = max(16, 2 m_max) and doubles K, capped at
    ``K_MAX``, until every eigenvalue of an n moves less than ``TOL`` relative;
    the larger size's eigenvalues are returned with that change as their error
    estimate (m_max above 40 is not supported).  Every size is assembled on its
    own K-panel rule and diagonalized once, so the change between two sizes also
    sees the error of either rule.  The distinct |n| not yet settled are solved
    ``BLOCK`` at a time in one stacked eigensolve, each as a solve of its own, bit
    for bit; n and -n share the arrays of one spectrum.  n = 0 anywhere is refused
    before any solve; past ``K_MAX`` an ``AccuracyError`` names the smallest n
    that did not settle and its largest last change (NaN where an eigenvalue has
    no lambda).
    """
    n_list = [int(n) for n in n_list]
    if 0 in n_list:
        raise InvalidModeError("spectrum requires n != 0")
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")

    done, lam, est = {}, {}, {}   # by |n|
    K, todo = max(16, 2 * m_max), list(dict.fromkeys(abs(n) for n in n_list))
    while K <= K_MAX and todo:
        basis = _diagonalize(_pencil(p, K))
        for start in range(0, len(todo), BLOCK):
            block = todo[start:start + BLOCK]
            for n, fine, coef in zip(block, *_galerkin(basis, block, m_max)):
                if n in lam:
                    est[n] = np.abs(fine - lam[n]) / fine
                    if np.all(est[n] <= TOL):
                        done[n] = SLSpectrum(n=n, eigenvalues=fine, error_estimates=est[n],
                                             grid=0, coef=coef)
                lam[n] = fine
        todo = [n for n in todo if n not in done]
        K = min(2 * K, K_MAX) if K < K_MAX else K + 1  # K_MAX is the last size
    if todo:
        n = min(n for n in n_list if abs(n) in todo)
        # NaN where an eigenvalue has no lambda, or where no second size was solved
        change = float(np.max(est.get(abs(n), np.nan)))
        raise AccuracyError(f"n = {n}: {m_max} eigenvalues did not settle to {TOL:g} "
                            f"by basis size {K_MAX} (last change {change:.1e})",
                            error_estimate=change)
    return [replace(done[abs(n)], n=n) for n in n_list]


def sl_spectrum(p: RadialProfile, n: int, m_max: int, grid: int = 2048) -> SLSpectrum:
    """``sl_spectra`` of the one wavenumber n.  ``grid`` is not read: it stays in the
    signature, and in ``SLSpectrum.grid``, for the benchmark tracer (ROADMAP item 3)."""
    return replace(sl_spectra(p, [n], m_max)[0], grid=grid)


def conjugate_times(s: SLSpectrum):
    """Monoconjugate times t* = 2 pi lambda_{mn} / |n|, ascending in m."""
    return [(m + 1, float(2.0 * np.pi * lam / abs(s.n)))
            for m, lam in enumerate(s.eigenvalues)]


# ---------------------------------------------------------------------------
# Jacobi fields
# ---------------------------------------------------------------------------

# Time factor T(theta) of h, its derivative T' and G = int_0^theta T.  Since
# T'' = -T, the secular coefficient T' + G is the constant T'(0): 0 for cos, 1 for sin.
_TIME_FACTORS = {"cos": (np.cos, lambda x: -np.sin(x), np.sin),
                 "sin": (np.sin, np.cos, lambda x: 1.0 - np.cos(x))}


def check_phase(phase) -> str:
    """``phase``, which must be 'cos' or 'sin'."""
    if phase not in ("cos", "sin"):
        raise ValidationError(f"phase must be 'cos' or 'sin', got {phase!r}")
    return phase


@dataclass
class JacobiSolution:
    """Closed-form Jacobi field built from one eigenpair.

    ``fields(t, r, z)`` gives, broadcast over (t, r, z), the stream/swirl components
    ``h`` and ``j`` of the linearized Euler solution, the components ``g`` and
    ``f`` of the Jacobi field itself and the time derivatives ``dj_dt`` and
    ``df_dt``: all six for both phases through T, T' and G at theta = n t / lambda,
    from one evaluation of phi, u, u' and omega.  dg/dt is h itself, as G' = T.
    """

    m: int
    n: int
    lam: float
    t_star: float
    phase: str
    profile: RadialProfile = field(repr=False, default=None)
    _phi: Legendre = field(repr=False, default=None)

    @property
    def times(self):
        """t*/4, t*/2 and 3 t*/4: where the residuals and the snapshots are taken."""
        return [0.25 * self.t_star, 0.5 * self.t_star, 0.75 * self.t_star]

    def _time(self, t):
        T, dT, G = _TIME_FACTORS[self.phase]
        theta = self.n * t / self.lam
        return T(theta), dT(theta), G(theta)

    def fields(self, t, r, z) -> dict:
        """{h, j, g, f, dj_dt, df_dt} at the times t on the grid (r, z), all
        broadcast together: times of shape (k, 1, 1) give k grids in one call."""
        (T, dT, G), (T0, secular, _) = self._time(t), self._time(0.0)
        r, nz = np.asarray(r, dtype=float), self.n * np.asarray(z)
        phi, cz, sz = self._phi(r), np.cos(nz), np.sin(nz)
        u, up, om = self.profile.u(r), self.profile.u.derivative(r), self.profile.omega(r)
        lam, n, r2 = self.lam, self.n, r ** 2
        # f = int_0^t (j - (u'/r) dg/dz) dt, and omega / r^2 = 2 u / r^2 + u' / r; with
        # the sine phase the secular u'(r) t term keeps f from re-vanishing at t*
        return {"h": T * phi * cz,
                "j": (lam * om / r2) * phi * sz * dT,
                "g": (lam / n) * cz * G * phi,
                "f": sz * phi * lam * ((2.0 * u / r2) * (lam / n) * (T - T0)
                                       + secular * (up / r) * t),
                "dj_dt": -(n * om / r2) * phi * sz * T,
                "df_dt": sz * phi * lam * ((2.0 * u / r2) * dT + secular * up / r)}


def assemble_jacobi(p: RadialProfile, s: SLSpectrum, m: int, *,
                    phase: str = "cos") -> JacobiSolution:
    """Build the explicit Jacobi field for eigenpair (m, n) of ``s``."""
    check_phase(phase)
    if not (1 <= m <= len(s.eigenvalues)):
        raise ValidationError(f"eigenindex m={m} out of range")
    lam = float(s.eigenvalues[m - 1])
    return JacobiSolution(m=m, n=s.n, lam=lam,
                          t_star=float(2.0 * np.pi * lam / abs(s.n)),
                          phase=phase, profile=p, _phi=s.eigenfunction(m))


# ---------------------------------------------------------------------------
# Residuals of the linearized equations
# ---------------------------------------------------------------------------

# the largest residual of a Jacobi field the ``jacobi`` command publishes
RESIDUAL_TOL = 1e-8


# d/dx and d^2/dx^2 on the 16 periodic points x_j = j h, h = pi/8, in closed form
# (Trefethen, Spectral Methods in MATLAB, 2000, ch. 3; the second's diagonal is
# -pi^2/(3 h^2) - 1/6 = -(16^2 + 2)/12)
_dj = np.subtract.outer(np.arange(16), np.arange(16))
_x, _sign = np.where(_dj == 0, 1.0, _dj * np.pi / 16), (-1.0) ** _dj   # (j - k) h / 2
_D = (np.where(_dj == 0, 0.0, 0.5 * _sign / np.tan(_x)),
      np.where(_dj == 0, -(16 ** 2 + 2) / 12, -0.5 * _sign / np.sin(_x) ** 2))


def _dz(field: np.ndarray, n: int, order: int = 1) -> np.ndarray:
    """Spectral d/dz along the last axis, z on 16 points of one period [0, 2pi/|n|)."""
    return field @ (abs(n) ** order * _D[order - 1].T)


def _relative(defect, *terms) -> float:
    """max over the times (leading axis) of max |defect| over (r, z) divided by the
    largest max |term| there: scales taken over every term, so a term vanishing at a
    special time does not turn round-off into a large relative residual."""
    scale = np.maximum(np.max([np.max(np.abs(x), axis=(-2, -1)) for x in terms], axis=0), 1e-300)
    return float(np.max(np.max(np.abs(defect), axis=(-2, -1)) / scale))


def jacobi_residuals(sol: JacobiSolution) -> dict:
    """The four linearized-equation residuals of a Jacobi solution, on the profile
    its fields were built on: max-norm over the (r, z, t) sample set,
    scale-normalized, keyed as ``jacobi_residuals.json`` holds them:
    ``residual_swirl_transport`` d j/dt = (omega/r^2) dh/dz,
    ``residual_stream_transport`` dt[D h] = -2 r u dj/dz,
    ``residual_second_order`` dtt[D h] = -(2 u omega / r) dzz h and
    ``residual_flow_components`` df/dt + (u'/r) dg/dz = j.

    Time derivatives are analytic (the closed forms are trigonometric in t);
    z derivatives are spectral, one real matrix product each (``_dz``); r
    derivatives are those of the eigenfunction's Legendre series.  The 256-point
    radial grid starts away from the axis, where the 1/r^2 factors would amplify
    round-off; the fields are evaluated at all of ``sol.times`` in one call, along
    a leading axis.  Every field is one harmonic of nz, so z takes 16 points on
    one period 2pi/|n|, whatever n.
    """
    n = sol.n
    t = np.array(sol.times)[:, None, None]
    r = np.linspace(0.1, 1.0, 256)[:, None]
    z = (2.0 * np.pi / abs(n) * np.arange(16) / 16)[None, :]

    p = sol.profile
    u, up, om = p.u(r), p.u.derivative(r), p.omega(r)
    cz = np.cos(n * z)
    phi = sol._phi(r)
    dphi_series = sol._phi.deriv()
    dphi, ddphi = dphi_series(r), dphi_series.deriv()(r)
    # D_r phi := (phi'/r)' - n^2 phi / r, the radial part of the stream operator
    lop = ddphi / r - dphi / r ** 2 - n * n * phi / r

    fields = sol.fields(t, r, z)
    h, j = fields["h"], fields["j"]

    # (a) swirl transport
    lhs = fields["dj_dt"]
    rhs = (om / r ** 2) * _dz(h, n)
    res_a = _relative(lhs - rhs, rhs, lhs)

    # time factor multiplying D(h): d/dt and d2/dt2 of the t-dependence T of h
    T, dT, _ = sol._time(t)
    tf1, tf2 = dT * n / sol.lam, -T * (n / sol.lam) ** 2

    # D(h) separates as (time factor) * [lop * cos(nz)]; assemble directly:
    dt_Dh = tf1 * lop * cz
    dtt_Dh = tf2 * lop * cz

    # (b) stream transport: dt[D h] + 2 r u dj/dz = 0
    term = 2.0 * r * u * _dz(j, n)
    res_b = _relative(dt_Dh + term, term, dt_Dh)

    # (c) second-order equation: dtt[D h] + (2 u om / r) dzz h = 0
    term_c = (2.0 * u * om / r) * _dz(h, n, 2)
    res_c = _relative(dtt_Dh + term_c, term_c, dtt_Dh)

    # (d) flow components: df/dt + (u'/r) dg/dz = j
    df = fields["df_dt"]
    drift = (up / r) * _dz(fields["g"], n)
    res_d = _relative(df + drift - j, j, df, drift)

    return {"residual_swirl_transport": res_a, "residual_stream_transport": res_b,
            "residual_second_order": res_c, "residual_flow_components": res_d}
