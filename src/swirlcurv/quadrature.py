"""Composite Gauss-Legendre rule, the one quadrature for every radial integral.

``PANELS`` uniform panels on [a, b], split at spline knots, carry ``NODES``
Gauss-Legendre nodes each.  Panels are bisected until the P- and 2P-panel
values agree to ``EPSABS`` or ``EPSREL``, one tolerance for every integral;
the integrand, maybe complex or m rows, sees both sets of the first check in
one call, then each finer set.  A row keeps its value from the first level at
which it agrees, as it would alone, and the panels are bisected until every
row has.  ``AccuracyError`` is raised past ``MAX_PANELS`` or on a non-finite
sum, its ``row`` the first row still open or the first non-finite one (0 for a
scalar integrand).  Gauss nodes never touch a panel end, so a removable 1/r at
the axis needs no special case.  Why 32 panels: the first check's 640 nodes
lie closer (1.6e-3 at mid-radius) than the 256-point grid on which the
criteria judge u (6e-3); a narrower feature can be missed by both levels
(README, Numerical method)."""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError

__all__ = ["quad_real", "gauss_nodes", "panel_edges"]

EPSABS, EPSREL = 1e-12, 1e-10
NODES, PANELS, MAX_PANELS = 10, 32, 8192
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


def _bisect(edges):
    """``edges`` with the midpoint of each panel inserted."""
    return np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))


def quad_real(fn, a, b, points=()):
    """Integral over [a, b] of ``fn``, which maps a 1-d array of nodes to real or
    complex values: a scalar for 1-d values, an (m,) array for (m, nodes)
    values, each row equal to a 1-d call on its own values.  The first call
    holds the nodes of the P-panel set, then of the 2P-panel set, each
    panel-major from a to b (``x.reshape(-1, NODES)[k]`` are the Gauss nodes of
    the call's k-th panel, on which the closed curvature route collocates);
    every later call holds one set.  A value on one set may depend only on
    that set's nodes, so each set's sum is the one it would have alone."""
    def totals(*sets):
        """The sum on each panel set of ``sets``, from one call of ``fn``."""
        rules = [gauss_nodes(edges) for edges in sets]
        values = fn(np.concatenate([x.ravel() for x, _ in rules]))
        ends = np.cumsum([w.size for _, w in rules])[:-1]
        out = []
        for edges, (_, w), part in zip(sets, rules, np.split(values, ends, axis=-1)):
            total = np.sum(w.ravel() * part, axis=-1)
            bad = np.flatnonzero(~np.isfinite(total))
            if bad.size:   # refining cannot mend it
                raise AccuracyError(f"quadrature sum {total.ravel()[bad[0]]} on "
                                    f"{edges.size - 1} panels", row=int(bad[0]))
            out.append(total)
        return out

    coarse = panel_edges(a, b, points)
    edges = _bisect(coarse)
    value, finer = totals(coarse, edges)
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
        (finer,) = totals(edges)
