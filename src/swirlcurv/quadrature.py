"""Composite Gauss-Legendre rule, the one quadrature for every radial integral.

``PANELS`` uniform panels on [a, b], split at spline knots, carry ``NODES``
Gauss-Legendre nodes each; the integrand sees every node at once, ascending,
and may be complex.  Panels are bisected until the P- and 2P-panel values
agree; ``AccuracyError`` is raised past ``MAX_PANELS`` or on a non-finite sum.
Gauss nodes never touch a panel end, so a removable 1/r at the axis needs no
special case."""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError

__all__ = ["quad_real", "gauss_nodes", "panel_edges",
           "DEFAULT_EPSABS", "DEFAULT_EPSREL"]

DEFAULT_EPSABS = 1e-12
DEFAULT_EPSREL = 1e-10
NODES, PANELS, MAX_PANELS = 10, 256, 8192
_X, _W = np.polynomial.legendre.leggauss(NODES)


def panel_edges(a, b, points=()):
    """Uniform panels on [a, b] split at ``points``, without round-off slivers."""
    pts = np.asarray(points, dtype=float)
    edges = np.unique(np.concatenate([np.linspace(a, b, PANELS + 1),
                                      pts[(pts > a) & (pts < b)]]))
    edges = edges[np.diff(edges, prepend=-np.inf) > 1e-12 * (b - a)]
    edges[-1] = b
    return edges


def gauss_nodes(edges):
    """Nodes and weights of the panels between ``edges``, shape (panels, NODES)."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (_X + 1.0), half * _W


def quad_real(fn, a, b, epsabs=DEFAULT_EPSABS, epsrel=DEFAULT_EPSREL, points=()):
    """Integral over [a, b] of ``fn``, which maps the 1-d ascending array of
    all nodes of a panel set to real or complex values.  The nodes come
    panel-major from a to b: ``x.reshape(-1, NODES)[k]`` are the Gauss nodes
    of panel k, on which the closed curvature route collocates."""
    def total(edges):
        x, w = gauss_nodes(edges)
        out = np.sum(w.ravel() * fn(x.ravel()))
        if not np.isfinite(out):   # refining cannot mend it
            raise AccuracyError(f"quadrature sum {out} on {edges.size - 1} panels")
        return out

    edges = panel_edges(a, b, points)
    value = total(edges)
    while True:
        edges = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
        finer = total(edges)
        err = float(abs(finer - value))
        if err <= max(epsabs, epsrel * float(abs(finer))):
            return finer.item()
        if edges.size > MAX_PANELS:
            raise AccuracyError(
                f"quadrature error estimate {err:.3e} with {edges.size - 1} panels "
                f"exceeds tolerance for value {abs(finer):.6e}",
                value=finer, error_estimate=err)
        value = finer
