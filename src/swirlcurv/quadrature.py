"""Composite Gauss-Legendre rule, the one quadrature for every radial integral.

``PANELS`` uniform panels on [a, b], split at spline knots, carry ``NODES``
Gauss-Legendre nodes each.  Panels are bisected until the P- and 2P-panel
values agree to ``EPSABS`` or ``EPSREL``, one tolerance for every integral;
the integrand, maybe complex or m rows, sees both sets of the first check in
one call, then each finer set.  The rule of each integrand call is built in
one step: one ``gauss_nodes`` call gives all its sets' nodes and weights, and
each set's values are a slice of the integrand's array.  A row keeps its
value from the first level at which it agrees, as it would alone, and the
panels are bisected until every row has.  ``AccuracyError`` is raised past
``MAX_PANELS`` or on a non-finite sum, its ``row`` the first row still open
or the first non-finite one (0 for a scalar integrand).  Gauss nodes never
touch a panel end, so a removable 1/r at the axis needs no special case.  Why
32 panels: the first check's 640 nodes lie closer (1.6e-3 at mid-radius)
than the 256-point grid on which the criteria judge u (6e-3); a narrower
feature can be missed by both levels (README, Numerical method)."""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError

__all__ = ["quad_real", "gauss_nodes", "panel_edges"]

EPSABS, EPSREL = 1e-12, 1e-10
NODES, PANELS, MAX_PANELS = 10, 32, 8192
_X, _W = np.polynomial.legendre.leggauss(NODES)


def panel_edges(a, b, points=(), panels=PANELS):
    """``panels`` uniform panels on [a, b], a < b, split at ``points``, without slivers."""
    edges, pts = np.linspace(a, b, panels + 1), np.asarray(points, dtype=float)
    pts = pts[(pts > a) & (pts < b)]
    if pts.size:   # else the uniform edges ascend, hold no sliver and end at b
        edges = np.unique(np.concatenate([edges, pts]))
        edges = edges[np.diff(edges, prepend=-np.inf) > 1e-12 * (b - a)]
        edges[-1] = b
    return edges


def gauss_nodes(*edge_sets):
    """Nodes and weights of the panels between each set of edges in turn, shape (panels, NODES)."""
    lo = np.concatenate([edges[:-1] for edges in edge_sets])[:, None]
    half = 0.5 * (np.concatenate([edges[1:] for edges in edge_sets])[:, None] - lo)
    return lo + half * (_X + 1.0), half * _W


def _bisect(edges):
    """``edges`` with the midpoint of each panel inserted."""
    out = np.empty(2 * edges.size - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _total(w, values, edges):
    """The sum of ``values`` with weights ``w`` on the panels between ``edges``."""
    total = np.sum(w * values, axis=-1)
    if not np.isfinite(total).all():   # refining cannot mend it
        row = int(np.flatnonzero(~np.isfinite(total))[0])
        raise AccuracyError(f"quadrature sum {total.ravel()[row]} on {edges.size - 1} panels",
                            row=row)
    return total


def quad_real(fn, a, b, points=()):
    """Integral over [a, b] of ``fn``, which maps a 1-d array of nodes to real or
    complex values: a scalar for 1-d values, an (m,) array for (m, nodes)
    values, each row equal to a 1-d call on its own values.  The first call
    holds the nodes of the P-panel set, then of the 2P-panel set, each
    panel-major from a to b (``x.reshape(-1, NODES)[k]`` are the Gauss nodes of
    the call's k-th panel, on which the closed curvature route collocates);
    every later call holds one set.  A value on one set may depend only on
    that set's nodes, so each set's sum is the one it would have alone."""
    coarse = panel_edges(a, b, points)
    edges = _bisect(coarse)
    x, w = gauss_nodes(coarse, edges)
    values, w = fn(x.ravel()), w.ravel()
    cut = w.size // 3   # the P-panel set's nodes; the 2P-panel set's follow
    value = _total(w[:cut], values[..., :cut], coarse)
    finer = _total(w[cut:], values[..., cut:], edges)
    del values   # not held while the integrand runs on finer sets
    result, done = value, np.zeros(value.shape, dtype=bool)
    while True:
        err = np.abs(finer - value)
        result = np.where(done, result, finer)
        done |= err <= np.maximum(EPSABS, EPSREL * np.abs(finer))
        if done.all():
            return result if result.ndim else result.item()
        if edges.size > MAX_PANELS:
            row = int(np.flatnonzero(~done)[0])
            err, finer = err.ravel()[row], finer.ravel()[row]
            raise AccuracyError(
                f"quadrature error estimate {err:.3e} with {edges.size - 1} panels "
                f"exceeds tolerance for value {abs(finer):.6e}",
                value=finer, error_estimate=float(err), row=row)
        value, edges = finer, _bisect(edges)
        x, w = gauss_nodes(edges)
        finer = _total(w.ravel(), fn(x.ravel()), edges)
