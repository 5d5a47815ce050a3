"""Composite Gauss-Legendre rule, the one quadrature for every radial integral.

``PANELS`` uniform panels on [a, b], split at spline knots, carry ``NODES``
Gauss-Legendre nodes each.  Panels are bisected until the P- and 2P-panel
values agree to ``EPSABS`` or ``EPSREL``, one tolerance for every integral;
the integrand, maybe complex or m rows, sees both sets of the first check in
one call, then each finer set.  The rule of each integrand call is built in
one step: one ``gauss_nodes`` call gives all its sets' nodes and weights, and
each set's values are a slice of the integrand's array.  A row keeps its
value from the first level at which it agrees, as it would alone, and the
panels are bisected until every row has.  A row that has stopped is never
evaluated again: ``quad_real`` writes the rows still open into the caller's
boolean ``rows`` array before each integrand call, and the integrand returns
those rows only (one that returns every row has the open ones taken).  It is a
keyword, not a second argument of the integrand, so a wrapper that counts
calls as ``fn(x)`` and forwards the keywords sees no change.
``AccuracyError`` is raised past ``MAX_PANELS`` or on a non-finite sum, its
``row`` the first row still open or the first non-finite one, an index into
the full table (0 for a scalar integrand).  Gauss nodes never touch a panel
end, so a removable 1/r at the axis needs no special case.  Why 32 panels:
the first check's 640 nodes lie closer (1.6e-3 at mid-radius) than the
256-point grid on which the criteria judge u (6e-3); a narrower feature can
be missed by both levels (README, Numerical method)."""

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


def _total(w, values, edges, todo):
    """The sums of ``values``' rows, the table's rows ``todo``, with weights ``w`` on
    the panels between ``edges``."""
    values = values.reshape(-1, values.shape[-1])
    if len(values) > todo.size:   # an integrand that returns every row
        values = values[todo]
    total = np.sum(w * values, axis=-1)
    if not np.isfinite(total).all():   # refining cannot mend it
        bad = np.flatnonzero(~np.isfinite(total))[0]
        raise AccuracyError(f"quadrature sum {total[bad]} on {edges.size - 1} panels",
                            row=int(todo[bad]))
    return total


def quad_real(fn, a, b, points=(), *, rows=None):
    """Integral over [a, b] of ``fn``, which maps a 1-d array of nodes to real or
    complex values: a scalar for 1-d values, an (m,) array for (m, nodes)
    values, each row equal to a 1-d call on its own values.  The first call
    holds the nodes of the P-panel set, then of the 2P-panel set, each
    panel-major from a to b (``x.reshape(-1, NODES)[k]`` are the Gauss nodes of
    the call's k-th panel, on which the closed curvature route collocates);
    every later call holds one set.  A value on one set may depend only on
    that set's nodes, so each set's sum is the one it would have alone.

    ``rows``, a boolean array of m entries owned by the caller, is all True
    before the first call and marks the rows still open before each later
    one; ``fn`` then returns those rows only, in row order."""
    coarse = panel_edges(a, b, points)
    edges = _bisect(coarse)
    x, w = gauss_nodes(coarse, edges)
    if rows is not None:
        rows[...] = True
    values, w = fn(x.ravel()), w.ravel()
    shape = values.shape[:-1]
    cut = w.size // 3   # the P-panel set's nodes; the 2P-panel set's follow
    todo = np.arange(values[..., 0].size)   # the open rows
    value = _total(w[:cut], values[..., :cut], coarse, todo)
    finer = _total(w[cut:], values[..., cut:], edges, todo)
    del values   # not held while the integrand runs on finer sets
    result = finer   # each row's value at the level where it stops
    while True:
        err = np.abs(finer - value)
        open_ = err > np.maximum(EPSABS, EPSREL * np.abs(finer))
        if not open_.any():
            return result if shape else result.item()
        if rows is not None:
            rows[todo[~open_]] = False
        todo, value, err = todo[open_], finer[open_], err[open_]
        if edges.size > MAX_PANELS:
            raise AccuracyError(
                f"quadrature error estimate {err[0]:.3e} with {edges.size - 1} panels "
                f"exceeds tolerance for value {abs(value[0]):.6e}",
                value=value[0], error_estimate=float(err[0]), row=int(todo[0]))
        edges = _bisect(edges)
        x, w = gauss_nodes(edges)
        finer = _total(w.ravel(), fn(x.ravel()), edges, todo)
        result[todo] = finer
