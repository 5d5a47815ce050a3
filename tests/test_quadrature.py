import numpy as np
import pytest

from swirlcurv import AccuracyError
from swirlcurv.quadrature import MAX_PANELS, NODES, gauss_nodes, panel_edges, quad_real


def test_polynomials_and_complex_values_are_exact():
    assert quad_real(lambda x: x ** 19, 0.0, 1.0) == pytest.approx(1.0 / 20.0, rel=1e-15)
    value = quad_real(lambda x: np.exp(1j * x), 0.0, np.pi)
    assert value == pytest.approx(2j, abs=1e-15)


def test_nodes_ascend_and_stay_inside_panels():
    edges = panel_edges(0.0, 1.0, points=[1.0 / 3.0, 0.5 + 1e-15, 2.0])
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert 1.0 / 3.0 in edges
    assert np.all(np.diff(edges) > 1e-12)   # no sliver beside the uniform edge at 0.5
    x, w = gauss_nodes(edges)
    assert np.all(np.diff(x.ravel()) > 0.0) and x.min() > 0.0 and x.max() < 1.0
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


def test_integrand_sees_the_nodes_panel_major():
    # the closed curvature route reshapes the nodes to (panels, NODES)
    seen = []
    quad_real(lambda x: seen.append(x) or np.exp(x), 0.0, 1.0, points=[1.0 / 3.0])
    edges = panel_edges(0.0, 1.0, points=[1.0 / 3.0])
    assert len(seen) >= 2
    for x in seen:
        assert x.shape == ((edges.size - 1) * NODES,)
        np.testing.assert_array_equal(x.reshape(-1, NODES), gauss_nodes(edges)[0])
        edges = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))


def test_knot_breakpoints_resolve_a_kink():
    kink = 1.0 / 3.0
    exact = (kink ** 2 + (1.0 - kink) ** 2) / 2.0
    assert quad_real(lambda x: np.abs(x - kink), 0.0, 1.0, points=[kink]) == \
        pytest.approx(exact, rel=1e-15)


def test_unresolved_integrand_raises_with_estimate():
    calls = []

    def singular(x):
        calls.append(x.size)
        return x ** -0.5

    with pytest.raises(AccuracyError) as info:
        quad_real(singular, 0.0, 1.0)
    assert info.value.value == pytest.approx(2.0, rel=1e-2)
    assert 0.0 < info.value.error_estimate < 1e-1
    assert calls[-1] == 10 * MAX_PANELS
