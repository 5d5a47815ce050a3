"""The package's banded solver and its spectrum's Galerkin eigensolve against
scipy.linalg, on random systems and on the spline, pressure-Galerkin and
spectrum-Galerkin systems the package builds."""

import numpy as np
import pytest
import scipy.linalg

import swirlcurv.curvature as curvature
import swirlcurv.jacobi as jacobi
import swirlcurv.radial as radial
from swirlcurv import linalg

from _helpers import standard_mode, u_const, u_quadratic


def _captured(monkeypatch, module, name, run):
    """The arguments of every call ``run()`` makes to ``module.name``."""
    calls, original = [], getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, record)
    run()
    return calls


def _random_system(rng, n, trailing=(), dtype=float, bands=1):
    ab = rng.uniform(-1.0, 1.0, (2 * bands + 1, n)).astype(dtype)
    if dtype is complex:
        ab += 0.3j * rng.uniform(-1.0, 1.0, (2 * bands + 1, n))
    ab[bands] = 2 * bands + 0.5 + rng.uniform(0.0, 1.0, n)
    return ab, rng.normal(size=(n,) + trailing).astype(dtype)


def _assert_solves_like_scipy(ab, b, rtol, l_and_u=(1, 1)):
    got = linalg.solve_banded(l_and_u, ab, b)
    ref = scipy.linalg.solve_banded(l_and_u, ab, b.reshape(len(b), -1)).reshape(b.shape)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 33, 64, 65, 66, 100, 129, 1000, 4097])
@pytest.mark.parametrize("trailing,dtype", [((), float), ((), complex), ((2,), float),
                                            ((2, 3), complex)])
def test_solve_banded_random_systems(n, trailing, dtype):
    rng = np.random.default_rng(n)
    ab, b = _random_system(rng, n, trailing, dtype)
    ab[0, 0] = ab[2, -1] = 7.0   # storage corners that the matrix does not use
    _assert_solves_like_scipy(ab, b, 1e-14)


@pytest.mark.parametrize("n", [1, 9, 16, 17, 50, 161, 1000])
@pytest.mark.parametrize("l_and_u", [(9, 9), (2, 5), (0, 3), (17, 1)])
def test_solve_banded_wider_bands(n, l_and_u):
    rng = np.random.default_rng(n)
    l, u = l_and_u
    ab, b = _random_system(rng, n, (2,), bands=max(l, u))
    ab = ab[max(l, u) - u:max(l, u) + l + 1]
    for d in range(1, u + 1):   # storage corners that the matrix does not use
        ab[u - d, :d] = 7.0
    for d in range(1, l + 1):
        ab[u + d, n - d:] = 7.0
    _assert_solves_like_scipy(ab, b, 1e-14, l_and_u)


@pytest.mark.parametrize("size", [4, 33, 200, 4097])
def test_solve_banded_spline_systems(monkeypatch, size):
    rng = np.random.default_rng(size)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, size - 2)), [1.0]])
    y = rng.normal(size=size)
    calls = _captured(monkeypatch, radial, "solve_banded", lambda: radial.TableFunction(x, y))
    assert len(calls) == 1
    _assert_solves_like_scipy(*calls[0][1:], 1e-14)


@pytest.mark.parametrize("n", [1, 3, 200, 10 ** 6])
def test_solve_banded_galerkin_systems(monkeypatch, n):
    calls = _captured(monkeypatch, curvature, "solve_banded",
                      lambda: curvature.pressure_bvp_solve(u_quadratic(), standard_mode(n)))
    (l_and_u, ab, b), = calls
    assert l_and_u == (curvature.DEG, curvature.DEG) and b.shape == (len(ab), ab.shape[-1], 2)
    for ab_k, b_k in zip(ab, b):
        # condition numbers reach 1.9e5 (n = 200), so the two solves, both with
        # residuals of 1e-16 relative, differ by up to 7.9e-13
        _assert_solves_like_scipy(ab_k, b_k, 5e-12, l_and_u)


@pytest.mark.parametrize("l_and_u", [(9, 9), (1, 1)])
@pytest.mark.parametrize("trailing,dtype", [((2,), float), ((), complex), ((2, 3), complex)])
def test_solve_banded_stack_equals_each_system_alone(l_and_u, trailing, dtype):
    rng = np.random.default_rng(l_and_u[0])
    n, bands = 161, max(l_and_u)
    systems = [_random_system(rng, n, trailing, dtype, bands) for _ in range(5)]
    ab, b = (np.stack(part) for part in zip(*systems))
    x = linalg.solve_banded(l_and_u, ab.real, b)
    assert x.shape == b.shape
    for k in range(len(ab)):
        assert np.array_equal(x[k], linalg.solve_banded(l_and_u, ab[k].real, b[k]))
    # two leading axes are one stack
    assert np.array_equal(linalg.solve_banded(l_and_u, ab.real.reshape((1, 5) + ab.shape[1:]),
                                              b.reshape((1,) + b.shape)), x[None])


def test_solve_banded_rejects_other_bands_and_shapes():
    ab, b = _random_system(np.random.default_rng(0), 5)
    with pytest.raises(ValueError):
        linalg.solve_banded((2, 1), ab, b)
    with pytest.raises(ValueError):
        linalg.solve_banded((1, 1), ab, b[:4])
    with pytest.raises(ValueError):
        linalg.solve_banded((-1, 3), ab, b)


def test_solve_banded_rejects_a_stack_that_does_not_match():
    ab, b = _random_system(np.random.default_rng(0), 5, (2,))
    stack, rhs = np.stack([ab, ab, ab]), np.stack([b, b, b])
    for bad in (rhs[:2], rhs[:, :4], b, rhs[None]):
        with pytest.raises(ValueError):
            linalg.solve_banded((1, 1), stack, bad)
    with pytest.raises(ValueError):
        linalg.solve_banded((1, 1), ab[0], b)   # no band axis


@pytest.mark.parametrize("profile,n", [(u_const, 1), (u_quadratic, 1), (u_quadratic, 10)])
@pytest.mark.parametrize("K", [16, 32, 64])
def test_eigh_galerkin_pencils(profile, n, K):
    # the pencil of n in a stack with those of n = 1 and 10, as the spectrum stacks them
    m_max, ns = 3, [n, 1, 10]
    A, B, M, _, scale = pencil = jacobi._pencil(profile(), K)
    basis = jacobi._diagonalize(pencil)
    lam, coef = jacobi._galerkin(basis, ns, m_max)
    assert lam.shape == (len(ns), m_max) and coef.shape == (len(ns), m_max, K)
    mass = M / scale ** 2   # M is assembled on u times the power of two scale
    for k, n_k in enumerate(ns):
        # each slice of the stack as a pencil of its own, bit for bit
        lam_k, v_k = jacobi._galerkin(basis, n_k, m_max)
        assert np.array_equal(lam[k], lam_k) and np.array_equal(coef[k], v_k)
        w_ref, v_ref = scipy.linalg.eigh(A + n_k ** 2 * B, mass, subset_by_index=[0, m_max - 1])
        # scipy factors the mass matrix, whose condition number reaches 2.6e9 at
        # K = 64; the right-definite solve factors the stiffness.  For u = 1 + r^2,
        # n = 10, K = 64 it is within 1.1e-15 of a 40-digit solve of the same pencil
        # and scipy within 3.9e-12; over these cases the two differ by 1.5e-11
        np.testing.assert_allclose(lam_k ** 2, w_ref, rtol=3e-11)
        np.testing.assert_allclose(v_k @ mass @ v_k.T, np.eye(m_max), atol=1e-12)
        # the same vectors up to sign
        np.testing.assert_allclose(np.abs(v_k @ mass @ v_ref), np.eye(m_max), atol=1e-9)
