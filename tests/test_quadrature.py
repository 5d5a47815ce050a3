import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swirlcurv import AccuracyError, curvature
from swirlcurv.quadrature import (MAX_PANELS, NODES, PANELS, _W, _X, _bisect, gauss_nodes,
                                  panel_edges, quad_real)

from _helpers import standard_mode, u_quadratic


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


def test_edges_without_inner_points_are_the_uniform_ones():
    np.testing.assert_array_equal(panel_edges(0.0, 1.0), np.linspace(0.0, 1.0, PANELS + 1))
    np.testing.assert_array_equal(panel_edges(0.0, 1.0, [0.0, 1.0, -2.0, 3.0]),
                                  np.linspace(0.0, 1.0, PANELS + 1))


# the rule as each set was built on its own, by np.unique, np.insert and one
# gauss_nodes call per set: the one-step construction must equal it bit for bit
def _edges_oracle(a, b, points, panels):
    pts = np.asarray(points, dtype=float)
    edges = np.unique(np.concatenate([np.linspace(a, b, panels + 1),
                                      pts[(pts > a) & (pts < b)]]))
    edges = edges[np.diff(edges, prepend=-np.inf) > 1e-12 * (b - a)]
    edges[-1] = b
    return edges


def _bisect_oracle(edges):
    return np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))


def _nodes_oracle(edges):
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (_X + 1.0), half * _W


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def _knot_sets(draw):
    """An interval, a panel count and knots on, near, inside and outside it,
    some repeated."""
    a, b = draw(st.sampled_from([(0.0, 1.0), (0.0, np.pi), (-1.0, 2.5)]))
    panels = draw(st.sampled_from([1, 2, 7, 32, 192]))
    uniform = np.linspace(a, b, panels + 1)
    edge = st.sampled_from(uniform.tolist())
    knot = st.one_of(
        edge,
        st.builds(lambda e, d: e + d, edge, st.floats(-1e-12, 1e-12)),
        st.floats(a, b),
        st.floats(a - 1.0, a), st.floats(b, b + 1.0))
    knots = draw(st.lists(knot, max_size=12))
    knots += draw(st.lists(st.sampled_from(knots), max_size=4)) if knots else []
    return a, b, draw(st.permutations(knots)), panels


@settings(max_examples=300, deadline=None)
@given(_knot_sets())
def test_one_step_rule_is_the_per_set_rule(case):
    a, b, knots, panels = case
    coarse = panel_edges(a, b, knots, panels)
    assert _same_bits(coarse, _edges_oracle(a, b, knots, panels))
    finer = _bisect(coarse)
    assert _same_bits(finer, _bisect_oracle(coarse))
    finest = _bisect(finer)
    assert _same_bits(finest, _bisect_oracle(finer))
    for sets in ([coarse], [coarse, finer], [finer, finest, coarse]):
        x, w = gauss_nodes(*sets)
        rules = [_nodes_oracle(edges) for edges in sets]
        assert _same_bits(x, np.concatenate([x for x, _ in rules]))
        assert _same_bits(w, np.concatenate([w for _, w in rules]))


def test_integrand_sees_the_nodes_panel_major():
    # the closed curvature route reshapes the nodes to (panels, NODES); the first
    # call holds the P- and the 2P-panel set of the first check, in that order,
    # and every later call the set of one finer level (e^x sin^2(300 pi x) stops
    # on 528 panels: 33 split at 1/3, bisected four times)
    for fn, calls in ((np.exp, 1), (lambda x: np.exp(x) * np.sin(300 * np.pi * x) ** 2, 4)):
        seen = []
        quad_real(lambda x: seen.append(x) or fn(x), 0.0, 1.0, points=[1.0 / 3.0])
        assert len(seen) == calls
        levels = [panel_edges(0.0, 1.0, points=[1.0 / 3.0])]
        while len(levels) <= calls:
            edges = levels[-1]
            levels.append(np.insert(edges, np.arange(1, edges.size),
                                    0.5 * (edges[:-1] + edges[1:])))
        for x, sets in zip(seen, [levels[:2]] + [[edges] for edges in levels[2:]]):
            assert x.shape == (sum(edges.size - 1 for edges in sets) * NODES,)
            np.testing.assert_array_equal(
                x.reshape(-1, NODES), np.concatenate([gauss_nodes(edges)[0] for edges in sets]))


def test_values_are_released_before_the_next_call():
    # a refining call holds one level's values at a time, so its peak memory
    # is that of its largest call, not of the first check's and the next's
    refs = []

    def fn(x):
        assert all(ref() is None for ref in refs)
        values = np.stack([np.exp(x) * np.sin(300 * np.pi * x) ** 2, x])
        refs.append(weakref.ref(values))
        return values

    quad_real(fn, 0.0, 1.0)
    assert len(refs) == 3


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


@pytest.mark.parametrize("bad, rows", [
    pytest.param(np.nan, False, id="nan"), pytest.param(np.inf, False, id="inf"),
    pytest.param(np.nan, True, id="nan-rows"), pytest.param(np.inf, True, id="inf-rows"),
])
def test_non_finite_sum_stops_at_once(bad, rows):
    # refining a NaN or infinite sum cannot converge, so the first one raises
    calls = []

    def broken(x):
        calls.append(x.size)
        values = np.where(x > 0.5, bad, x)
        return np.stack([x, values]) if rows else values

    with pytest.raises(AccuracyError) as info:
        quad_real(broken, 0.0, 1.0)
    assert len(calls) <= 2
    assert info.value.row == (1 if rows else 0)


# integrands that stop at different levels: e^x sin^2(k pi x) for k = 1, 150
# and 300 stops on 64, 128 and 256 panels (plain sin^2(k pi x) stopped on 64
# for each of k = 1, 61 and 300); one row is complex
ROWS = {
    "sin2_1": lambda x: np.exp(x) * np.sin(np.pi * x) ** 2,
    "sin2_150": lambda x: np.exp(x) * np.sin(150 * np.pi * x) ** 2,
    "sin2_300": lambda x: np.exp(x) * np.sin(300 * np.pi * x) ** 2,
    "kink": lambda x: np.abs(x - 1.0 / 3.0),
    "x19": lambda x: x ** 19,
    "exp_ix": lambda x: np.exp(1j * 7.0 * x),
}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(sorted(ROWS)), min_size=1, max_size=6))
def test_each_row_equals_its_own_call(names):
    def rows(x):
        return np.stack([ROWS[name](x) for name in names])

    values = quad_real(rows, 0.0, 1.0, points=[1.0 / 3.0])
    assert values.shape == (len(names),)
    for i in range(len(names)):
        # the row's values as the array holds them: a real row of a complex
        # array is summed in complex arithmetic, which may differ in the last bit
        assert values[i] == quad_real(lambda x: rows(x)[i], 0.0, 1.0, points=[1.0 / 3.0])


def test_unresolved_row_is_named_while_the_others_converge():
    with pytest.raises(AccuracyError) as alone:
        quad_real(lambda x: x ** -0.5, 0.0, 1.0)
    with pytest.raises(AccuracyError) as info:
        quad_real(lambda x: np.stack([x ** 2, x ** -0.5, x ** -0.6]), 0.0, 1.0)
    assert info.value.row == 1
    assert info.value.value == alone.value.value
    assert info.value.error_estimate == alone.value.error_estimate


def _masked(fns, live, calls):
    """An integrand of the rows ``fns`` that returns the rows that ``live`` marks
    open, in row order, and records a copy of ``live`` and the number of rows it
    returned at each call."""
    def fn(x):
        values = np.stack([f(x) for f, open_ in zip(fns, live) if open_])
        calls.append((live.tolist(), len(values)))
        return values
    return fn


def test_integrand_returns_only_the_open_rows():
    # the rows stop at the first, second and third call; a stopped row is left
    # out of every later call, and each value is its one-row call's, bit for bit
    names = ["sin2_300", "sin2_1", "sin2_150"]
    live, calls = np.zeros(3, dtype=bool), []
    values = quad_real(_masked([ROWS[name] for name in names], live, calls), 0.0, 1.0,
                       rows=live)
    assert [mask for mask, _ in calls] == [[True, True, True], [True, False, True],
                                           [True, False, False]]
    assert [size for _, size in calls] == [sum(mask) for mask, _ in calls]
    for value, name in zip(values, names):
        assert value == quad_real(ROWS[name], 0.0, 1.0)
    slowest = []
    quad_real(lambda x: slowest.append(x.size) or ROWS["sin2_300"](x), 0.0, 1.0)
    assert len(calls) == len(slowest)


def test_non_finite_sum_of_a_later_call_names_its_full_table_row():
    # x stops at the first check, so the second call holds rows 1 and 2 only;
    # row 1 is inf at one node of that call's 128-panel set
    where = gauss_nodes(_bisect(_bisect(panel_edges(0.0, 1.0))))[0][5, 3]
    fns = [lambda x: x, lambda x: np.where(x == where, np.inf, ROWS["sin2_300"](x)),
           ROWS["sin2_150"]]
    live, calls = np.zeros(3, dtype=bool), []
    with pytest.raises(AccuracyError, match="^quadrature sum inf on 128 panels") as info:
        quad_real(_masked(fns, live, calls), 0.0, 1.0, rows=live)
    assert calls == [([True, True, True], 3), ([False, True, True], 2)]
    assert info.value.row == 1


def _node_counts(monkeypatch):
    """The node count of every integrand call made through ``curvature.quad_real``."""
    counts = []
    monkeypatch.setattr(curvature, "quad_real", lambda fn, *args, **kwargs: quad_real(
        lambda x: counts.append(x.size) or fn(x), *args, **kwargs))
    return counts


@pytest.mark.parametrize("n", [1, 200, 10_000])
@pytest.mark.parametrize("route", ["curvature_mode_closed", "curvature_mode_oracle"])
def test_curvature_routes_converge_at_the_first_check(monkeypatch, route, n):
    counts = _node_counts(monkeypatch)
    getattr(curvature, route)(u_quadratic(), standard_mode(n))
    assert counts == [960]   # the 32- and 64-panel sets in one call


def test_oscillation_study_converges_at_the_first_check(monkeypatch):
    counts = _node_counts(monkeypatch)
    curvature.oscillation_study(u_quadratic(), 1, 1)
    assert counts == [960]   # numerators and denominators, both panel sets, one call


def test_resolution_floor_gaussian():
    # a feature this narrow is still sampled by the first check; one a few
    # times narrower can be missed by both levels (README, Numerical method)
    c, sigma = 0.5 + 1.0 / 777, 3e-4
    value = quad_real(lambda x: np.exp(-0.5 * ((x - c) / sigma) ** 2), 0.0, 1.0)
    assert value == pytest.approx(sigma * np.sqrt(2.0 * np.pi), rel=1e-14)


def test_readme_states_the_rule_constants():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = " ".join(text.split("## Numerical method")[1].split("\n## ")[0].split())
    assert re.findall(r"(\d+) nodes on each of (\d+) uniform panels", section) == \
        [(str(NODES), str(PANELS))]
    assert re.findall(r"after (\d+) panels", section) == [str(MAX_PANELS)]
