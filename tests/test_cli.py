import ast
import collections
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import swirlcurv.curvature as curvature
import swirlcurv.jacobi as jacobi
import swirlcurv.modes as modes
from swirlcurv import assemble_jacobi, profile, sl_spectrum
from swirlcurv.cli import main
from swirlcurv.config import parse_config
from swirlcurv.quadrature import MAX_PANELS
from swirlcurv.radial import ComplexRadialFunction

from _helpers import G_BASE, counting, workload_config

GOOD_PROFILE = {"expr": "1 + r^2"}
MODES = [{"n": 1, "g": {"poly": [0, 0, 1, -1]}, "f": {"poly": [0, 1, -1]}},
         {"n": 3, "g": {"poly": [0, 0, 2, -2]}, "f": {"poly": [0.0]}}]


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_profile_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE})
    assert main(["check-profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "criteria.json" in out
    report = json.loads((tmp_path / "criteria.json").read_text())
    assert report["eta_strictly_positive"] is True
    assert report["witness_points"] == []


def test_check_profile_reports_witnesses(tmp_path):
    cfg = write_cfg(tmp_path, {"profile": {"expr": "2 - r^2"}})
    assert main(["check-profile", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    report = json.loads((tmp_path / "criteria.json").read_text())
    assert report["eta_strictly_positive"] is False
    assert any(abs(w["r"] - math.sqrt(0.4)) < 1e-6 for w in report["witness_points"])


def test_curvature_command_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "modes": MODES})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["curvature", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["curvature", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    text = (out1 / "curvature.csv").read_text()
    assert text == (out2 / "curvature.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,kbar_closed,kbar_oracle,discrepancy,k_normalized"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "3"]  # sorted by n
    for r in rows:
        assert float(r[3]) < 1e-6  # closed and oracle agree
        assert "e" in r[1]  # scientific notation with full precision


def test_spectrum_command(tmp_path):
    cfg = write_cfg(tmp_path, {"profile": {"poly": [1.0]},
                               "params": {"m_max": 2, "n_list": [1, 2]}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "n,m,lambda,t_star,error_estimate"
    assert len(lines) == 5
    n, m, lam, t_star, est = lines[1].split(",")
    assert (n, m) == ("1", "1")
    assert float(t_star) == pytest.approx(2 * math.pi * float(lam), rel=1e-12)
    assert float(est) < 1e-6


@pytest.mark.parametrize("command", ["spectrum", "jacobi", "limit-study"])
@pytest.mark.parametrize("spec", [{"expr": "2 - r^2"}, {"poly": [1.0, 0.0, -3.0]},
                                  {"poly": [0, 1]}], ids=["2-r^2", "1-3r^2", "r"])
def test_profiles_whose_u_omega_is_not_positive_are_solved(tmp_path, capsys, command, spec):
    # u omega is 0 at the wall, negative on (0.408, 0.577), 0 on the axis: the
    # weight of the pencil may change sign, and every command still exits 0
    cfg = write_cfg(tmp_path, {"profile": spec, "params": {"n": 4, "n_list": [1, 4, 16]}})
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_jacobi_command(tmp_path):
    cfg = write_cfg(tmp_path, {"profile": {"poly": [1.0]},
                               "params": {"n": 1, "m": 1}})
    assert main(["jacobi", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "jacobi_residuals.json").read_text())
    for key in ("residual_swirl_transport", "residual_stream_transport",
                "residual_second_order", "residual_flow_components"):
        assert report[key] < 1e-4
    assert (tmp_path / "jacobi_h_t0.csv").exists()
    assert (tmp_path / "jacobi_f_t2.csv").exists()


@pytest.mark.parametrize("phase", ["cos", "sin"])
@pytest.mark.parametrize("n", [2, -3])
def test_jacobi_snapshots_match_write_csv(tmp_path, phase, n):
    # the snapshot cells come from one vectorized kernel; the reference is each
    # value of sol.fields formatted alone by Python's %
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE,
                               "params": {"n": n, "m": 2, "phase": phase}})
    assert main(["jacobi", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    p = parse_config(Path(cfg)).profile
    sol = assemble_jacobi(p, sl_spectrum(p, n, 2), 2, phase=phase)
    rr, zz = np.meshgrid(np.linspace(1.0 / 64, 1.0, 64), 2.0 * np.pi * np.arange(16) / 16,
                         indexing="ij")
    for idx, t in enumerate(sol.times):
        for name in ("h", "j", "g", "f"):
            table = np.stack([rr, zz, sol.fields(t, rr, zz)[name]], axis=-1)
            text = f"r,z,{name}\n" + "".join("%.16e,%.16e,%.16e\n" % tuple(row)
                                             for row in table.reshape(-1, 3).tolist())
            assert (tmp_path / f"jacobi_{name}_t{idx}.csv").read_bytes() == text.encode()


@pytest.mark.parametrize("spec, params", [
    ({"poly": [2.0, 0.0, -1.0]}, {}),   # u omega = 0 at r = 1: the solve would succeed
    ({"poly": [1.0]}, {"m": 100}),       # 100 eigenvalues would not settle
], ids=["u-omega", "unsettled"])
def test_jacobi_checks_the_phase_before_any_solve(tmp_path, capsys, monkeypatch, spec, params):
    calls = []
    monkeypatch.setattr(jacobi, "_galerkin", lambda *args, **kw: calls.append(args))
    cfg = write_cfg(tmp_path, {"profile": spec, "params": dict(params, phase="tan")})
    assert main(["jacobi", "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"error": "ValidationError",
                                "message": "phase must be 'cos' or 'sin', got 'tan'"}
    assert calls == []


def test_jacobi_refuses_a_field_that_fails_its_equations(tmp_path, capsys):
    # the 12th eigenfunction at n = 128 is not resolved at the spectrum's last basis size
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "params": {"n": 128, "m": 12}})
    assert main(["jacobi", "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "AccuracyError"
    assert payload["message"].startswith("n = 128, m = 12: the Jacobi field fails its equations")
    assert "residual_second_order = 1.000e+00" in payload["message"]
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@settings(max_examples=25, deadline=None)
@example([1.0, 0.0, 1.0], 128, 12)   # refused: residuals of 1.0
@example([1.0], 2, 2)                # the workload's run, residuals near 1e-15
@given(st.lists(st.floats(-0.5, 1.0), max_size=3).map(lambda tail: [1.0] + tail),
       st.integers(-256, 256).filter(bool), st.integers(1, 12))
def test_jacobi_publishes_only_fields_that_pass_their_equations(coeffs, n, m):
    config = {"profile": {"poly": coeffs}, "params": {"n": n, "m": m}}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main(["jacobi", "--config", write_cfg(Path(tmp), config), "--out", tmp, "--quiet"])
        names = {path.name for path in Path(tmp).iterdir()}
        report = (json.loads(Path(tmp, "jacobi_residuals.json").read_text())
                  if "jacobi_residuals.json" in names else None)
    if code == 0:
        residuals = [value for key, value in report.items() if key.startswith("residual_")]
        assert len(residuals) == 4 and max(residuals) <= jacobi.RESIDUAL_TOL
    else:   # the spectrum or the field is refused
        assert code == 1 and names == {"cfg.json"}
        message = json.loads(err.getvalue())["message"]
        assert f"n = {n}" in message and (f"m = {m}:" in message or f"{m} eigenvalues" in message)


def test_oscillation_command(tmp_path):
    cfg = write_cfg(tmp_path, {"profile": {"poly": [1.0]},
                               "params": {"n": 1, "k_max": 6}})
    assert main(["oscillation-study", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    lines = (tmp_path / "oscillation.csv").read_text().strip().splitlines()
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(vals) == 6
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_k_max_at_the_panel_budget_fails_in_one_quadrature_call(tmp_path, capsys, monkeypatch):
    # the largest block, k = 8177 ... 8192, runs first, and no k of it is resolved
    calls = counting(monkeypatch, curvature, "quad_real")
    cfg = write_cfg(tmp_path, {"profile": {"poly": [1.0, 0.0, 1.0]},
                               "params": {"k_max": MAX_PANELS}})
    assert main(["oscillation-study", "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["message"].startswith("k = 8177: quadrature error estimate")
    assert len(calls) == 1


def test_k_max_past_the_panel_budget_is_refused_before_any_quadrature(
        tmp_path, capsys, monkeypatch):
    # sin^2(k pi r) needs more than MAX_PANELS panels from k ~ 7850 on
    calls = []
    for module in (curvature, modes):
        monkeypatch.setattr(module, "quad_real", lambda *args, **kw: calls.append(args))
    cfg = write_cfg(tmp_path, {"profile": ONE, "params": {"k_max": MAX_PANELS + 1}})
    assert main(["oscillation-study", "--config", cfg, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"
    assert calls == []


def test_nan_tokens_are_the_documented_ones(tmp_path):
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert "`limit-study` writes `nan` as the first row's `diff`" in readme
    assert "`curvature` writes `nan` as `k_normalized`" in readme
    cfg = write_cfg(tmp_path, {"profile": ONE, "params": {"n_list": [4, 8]}})
    assert main(["limit-study", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, first, second = (tmp_path / "limit.csv").read_text().splitlines()
    assert first.split(",")[2] == "nan" and "nan" not in second
    # g = r(1 - r): g'(0) = 1, so the mode's energy diverges at the axis
    cfg = write_cfg(tmp_path, {"profile": ONE, "modes": [{"n": 1, "g": {"poly": [0, 1, -1]}}]})
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, row = (tmp_path / "curvature.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["k_normalized"] == "nan"
    assert row.split(",").count("nan") == 1


def test_limit_command(tmp_path):
    cfg = write_cfg(tmp_path, {"profile": {"poly": [1.0]},
                               "params": {"m": 1, "n_list": [4, 8, 16]}})
    assert main(["limit-study", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == 0
    lines = (tmp_path / "limit.csv").read_text().strip().splitlines()
    assert lines[0] == "n,lambda_over_n,diff"
    first_diff = lines[1].split(",")[2]
    assert first_diff == "nan"
    ratios = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(ratios[-1] - 0.5) < 0.02


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-profile", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "config-error"

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"modes": []}))
    assert main(["check-profile", "--config", str(missing)]) == 1

    bad_expr = write_cfg(tmp_path, {"profile": {"expr": "2 - r^"}}, "bad_expr.json")
    assert main(["check-profile", "--config", bad_expr, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_created_is_an_output_error(tmp_path, capsys, out):
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE})
    (tmp_path / "file").write_text("")
    assert main(["check-profile", "--config", cfg, "--out", str(tmp_path / out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "output-error"
    assert str(tmp_path / out) in payload["message"]
    assert (tmp_path / "file").read_text() == ""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert "exits 1 with an `output-error` line naming the path" in readme


def case(command, payload, id, message=""):
    """A config that ``command`` refuses with a ValidationError whose message has ``message``."""
    return pytest.param(command, payload, message, id=id)


ONE = {"poly": [1.0]}


def table(r, values):
    return {"table": {"r": r, "values": values}}


@pytest.mark.parametrize("command,payload,message", [
    case("check-profile", {"profile": {"table": {"values": [1.0] * 9}}},  # table without "r"
         "payload0", "'table' needs keys 'r' and 'values', got ['values']"),
    case("check-profile", {"profile": {"poly": []}}, "payload1"),         # empty coefficients
    case("check-profile", {"profile": GOOD_PROFILE, "modes": [{"n": "x"}]},  # non-integer n
         "payload2"),
    case("check-profile", {"profile": GOOD_PROFILE, "modes": 5}, "payload3",  # not a list
         "'modes' must be a list, got 5"),
    case("check-profile", 5, "5", "config must be an object, got 5"),   # not an object
    case("check-profile", {"profile": GOOD_PROFILE, "modes": "ab"}, "modes-text",
         "'modes' must be a list, got 'ab'"),
    case("check-profile", {"profile": GOOD_PROFILE, "modes": [1]}, "mode-not-an-object",
         "'modes' entry must be an object, got 1"),
    case("spectrum", {"profile": ONE, "params": [1]}, "params-not-an-object",
         "'params' must be an object, got [1]"),
    case("check-profile", {"profile": {"table": [[0, 1], [1, 1]]}}, "table-not-an-object",
         "'table' must be an object, got [[0, 1], [1, 1]]"),
    case("check-profile", {"profile": {"table": {"r": [0, 0.3, 0.6, 1]}}}, "table-without-values",
         "'table' needs keys 'r' and 'values', got ['r']"),
    case("check-profile", {"profile": {"expr": "sqrt(r-2)"}}, "payload5"),  # NaN everywhere
    case("check-profile", {"profile": {"expr": "log(r)"}}, "payload6"),  # -inf at the axis
    case("check-profile", {"profile": GOOD_PROFILE,                      # g(1) != 0
                           "modes": [{"n": 1, "g": {"poly": [0, 0, 1]}}]}, "payload7"),
    # f' = nan at r = 1/2, a point of the mode's sample off the 256-point grid
    case("check-profile", {"profile": GOOD_PROFILE, "modes": [
        {"n": 1, "g": {"poly": G_BASE}, "f": {"expr": "r*(1-r)*sqrt(sqrt((r-0.5)^2))"}}]},
         "slope-not-finite-at-r-one-half", "is not finite on [0, 1]"),
    case("check-profile", {"profile": {"expr": 5}}, "expr-not-text"),
    case("spectrum", {"profile": ONE, "params": {"m_max": "x"}}, "text-m_max"),
    case("spectrum", {"profile": ONE, "params": {"n_list": 5}}, "n_list-not-list"),
    case("spectrum", {"profile": ONE, "params": {"m_max": 1e400}}, "infinite-m_max"),  # inf
    case("curvature", {"profile": GOOD_PROFILE, "modes": [dict(MODES[0], n=1.5)]},
         "fractional-n"),
    case("curvature", {"profile": GOOD_PROFILE, "modes": [MODES[0], MODES[0]]},
         "duplicate-n"),
    case("spectrum", {"profile": ONE, "params": {"n_list": [1, 1]}}, "repeated-n_list"),
    case("limit-study", {"profile": ONE, "params": {"n_list": [4, 4]}}, "repeated-limit-n"),
    case("limit-study", {"profile": ONE, "params": {"n_list": []}}, "empty-limit-n_list"),
    case("oscillation-study", {"profile": ONE, "params": {"k_max": 0}}, "k_max-0"),
    case("oscillation-study", {"profile": ONE, "params": {"k_max": -5}}, "negative-k_max"),
    case("check-profile", {"profile": table([0, 0.5, 0.5, 1], [1, 1, 1, 1])}, "repeated-table-r",
         "strictly increasing"),
    case("check-profile", {"profile": table([0, 0.75, 0.5, 1], [1, 1, 1, 1])},
         "descending-table-r", "strictly increasing"),
    case("check-profile", {"profile": table([0, 0.5, 1, 0.2], [1, 1, 1, 1])},
         "unsorted-table-r", "strictly increasing"),   # not "must span [0, 1]"
    case("check-profile", {"profile": table([0, 0.25, 0.5, 1], [1, math.nan, 1, 1])},
         "nan-table-value", "not a finite number"),
    case("check-profile", {"profile": table([0, 0.5, 1], [1, 1, 1])}, "three-table-nodes",
         "at least 4 nodes"),
    case("check-profile", {"profile": table([0, 0.3, 0.6, 0.9], [1, 1, 1, 1])},
         "table-short-of-the-wall", "must span [0, 1]"),
    # |n| > 1e12, up to wavenumbers whose square is no float, names its key
    case("curvature", {"profile": GOOD_PROFILE, "modes": [dict(MODES[0], n=10 ** 200)]},
         "huge-mode-n"),
    case("spectrum", {"profile": ONE, "params": {"n_list": [1, -10 ** 200]}}, "huge-n_list"),
    case("jacobi", {"profile": ONE, "params": {"n": 10 ** 200}}, "huge-jacobi-n"),
    case("oscillation-study", {"profile": ONE, "params": {"n": 10 ** 200}}, "huge-n"),
    case("curvature", {"profile": GOOD_PROFILE, "modes": [dict(MODES[0], n=10 ** 12 + 1)]},
         "mode-n-past-bound"),
])
def test_malformed_config_is_a_validation_error(tmp_path, capsys, command, payload, message):
    cfg = write_cfg(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"
    assert message in json.loads(lines[0])["message"]
    assert "np." not in lines[0]  # plain numbers, not numpy reprs
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]  # no artifact written


@pytest.mark.parametrize("spec, field", [
    pytest.param({"poly": ["1", 0, "1e0"]}, "poly", id="text-poly"),
    pytest.param({"poly": [True, 0, 1]}, "poly", id="bool-poly"),
    pytest.param(table(["0", ".3", ".6", "1"], [1, 1, 1, 1]), "table 'r'", id="text-table-r"),
    pytest.param(table([0, .3, .6, 1], [1, None, 1, 1]), "table 'values'", id="null-table-value"),
    pytest.param({"poly": [10 ** 400, 0, 1]}, "poly", id="integer-past-the-float-range"),
    pytest.param({"poly": [1, 0, math.inf]}, "poly", id="infinite-poly"),
])
def test_radial_data_must_be_json_numbers(tmp_path, capsys, spec, field):
    cfg = write_cfg(tmp_path, {"profile": spec})
    assert main(["check-profile", "--config", cfg, "--out", str(tmp_path)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValidationError"
    assert error["message"].startswith(f"{field} entry ")


@pytest.mark.parametrize("r", [[-1e-13, 0.3, 0.6, 1.0], [-0.5, 0.3, 0.6, 1.5]],
                         ids=["sliver-past-the-axis", "nodes-past-both-ends"])
@pytest.mark.parametrize("command", ["spectrum", "jacobi", "limit-study"])
def test_table_nodes_outside_the_unit_interval_split_no_panel(tmp_path, capsys, command, r):
    # the spectrum's Gauss nodes stay in (0, 1), where u * omega is checked.  The
    # Jacobi field is solved too, but on a 4-node spline its residuals are 1.1e-4
    # (the eigenfunction is only C^3 at the knots), so jacobi refuses to publish it
    profile = table(r, [1 + x * x for x in r])
    cfg = write_cfg(tmp_path, {"profile": profile, "params": {"n_list": [1, 2]}})
    code = main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    if command == "jacobi":
        assert code == 1
        assert json.loads(err)["message"].startswith(
            "n = 1, m = 1: the Jacobi field fails its equations, residual_stream_transport")
    else:
        assert code == 0 and err == ""


@pytest.mark.parametrize("command, key", [("jacobi", "m"), ("limit-study", "m"),
                                          ("spectrum", "m_max")])
def test_mode_count_below_one_names_its_param(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path, {"profile": ONE, "params": {key: 0}})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["message"] == f"param {key!r} is 0, not an integer in 1 ... 1e+12"


@pytest.mark.parametrize("n", [10 ** 12, -10 ** 12])
def test_curvature_at_the_wavenumber_bound(tmp_path, n):
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "modes": [dict(MODES[0], n=n)]})
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, row = (tmp_path / "curvature.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["discrepancy"] == "0.0000000000000000e+00"


def test_curvature_table_call_counts(tmp_path, monkeypatch):
    # polynomial data: one quadrature call for the whole table and one for the swirl
    # energy; n = 1 and 2 share a pressure knot vector, as do 200 and -200
    quads = counting(monkeypatch, curvature, "quad_real")
    counting(monkeypatch, modes, "quad_real", quads)
    basis = counting(monkeypatch, curvature, "bspline_basis")
    specs = [dict(MODES[0], n=n) for n in (1, 2, 40, 200, -200)]
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "modes": specs})
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert len(quads) == 1 + 1
    assert len(basis) == 3   # values and slopes of a knot vector from one recursion


def test_every_quadrature_call_of_a_table_calls_its_integrand_once(tmp_path, monkeypatch):
    # the benchmark's 8-mode table on u = 1 + r^2: each integral stops at the first
    # check, whose 32- and 64-panel sets are one integrand call on 960 nodes; the
    # table is one quadrature call and the swirl energy the other
    quad, calls = curvature.quad_real, []

    def traced(fn, *args, **kwargs):
        integrand = SimpleNamespace(fn=fn)
        calls.append(counting(monkeypatch, integrand, "fn"))
        return quad(integrand.fn, *args, **kwargs)

    monkeypatch.setattr(curvature, "quad_real", traced)
    monkeypatch.setattr(modes, "quad_real", traced)
    cfg = write_cfg(tmp_path, workload_config("curvature_table", "quad", "curvature"))
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert [[x.size for (x,) in integrand] for integrand in calls] == [[960], [960]]


def test_curvature_sets_up_each_mode_and_knot_set_once(tmp_path, monkeypatch):
    # polynomial data: g, g', f and f' of each mode are sampled once, when the config
    # is read, and nothing else of a mode is evaluated before the first quadrature
    # call; the radial integrals share one knot set (none), and the pressure has
    # three: the uniform panels (n = 1, 2), and the wall gradings of 40 and of +-200
    events = counting(monkeypatch, curvature, "quad_real")
    counting(monkeypatch, modes, "quad_real", events)
    counting(monkeypatch, ComplexRadialFunction, "_evaluate", events)
    edges = counting(monkeypatch, curvature, "panel_edges")
    basis = counting(monkeypatch, curvature, "bspline_basis")
    specs = [dict(MODES[0], n=n) for n in (1, 2, 40, 200, -200)]
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "modes": specs})
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    first = next(k for k, args in enumerate(events)
                 if not isinstance(args[0], ComplexRadialFunction))
    setup = collections.Counter((id(args[0]), args[1]) for args in events[:first])
    assert len(setup) == len(specs) * 4   # (g or f) x (value or slope)
    assert set(setup.values()) == {1}
    assert len(edges) == 1 + 3
    assert len(basis) == 3


def test_spectrum_beyond_the_basis_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"profile": ONE, "params": {"m_max": 100}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "AccuracyError"


def test_spectrum_failure_names_its_wavenumber(tmp_path, capsys):
    # n = 1 settles, n = 10^12 does not by K_MAX
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "params": {"n_list": [1, 10 ** 12]}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "AccuracyError" and "1000000000000" in error["message"]


def test_spectrum_scans_no_criteria(tmp_path, monkeypatch):
    # the spectrum needs no sign of u*omega: only check-profile scans the criteria
    scans = counting(monkeypatch, profile, "_scan")
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE,
                               "params": {"m_max": 1, "n_list": list(range(1, 11))}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert scans == []


@pytest.mark.parametrize("command,spec,params,sizes", [
    ("spectrum", ONE, {"m_max": 3, "n_list": list(range(1, 11))}, [16, 32]),
    ("limit-study", {"poly": [1.0, 0.0, 1.0]}, {}, [16, 32, 64]),
])
def test_spectrum_solves_one_stack_per_basis_size(tmp_path, monkeypatch, command, spec, params,
                                                  sizes):
    # every wavenumber starts at the same K, so the open ones of each basis size
    # are one eigensolve: at most BLOCK pencils A + n^2 B on one diagonalization
    calls = counting(monkeypatch, jacobi, "_galerkin")
    cfg = write_cfg(tmp_path, {"profile": spec, "params": params})
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert [basis[0].shape[-1] for basis, *_ in calls] == sizes
    assert all(0 < len(block) <= jacobi.BLOCK for _, block, _ in calls)


@pytest.mark.parametrize("command", ["spectrum", "limit-study"])
def test_zero_in_n_list_is_refused_before_any_solve(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(jacobi, "_galerkin", lambda *args, **kw: calls.append(args))
    cfg = write_cfg(tmp_path, {"profile": ONE, "params": {"n_list": [3, 0, 1]}})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys.readouterr().err) == "InvalidModeError"
    assert calls == []


@pytest.mark.parametrize("command", ["spectrum", "limit-study"])
def test_spectrum_failure_names_the_smallest_unsettled_wavenumber(tmp_path, capsys, command):
    # n = 1 settles; +-10^11 and 10^12 do not by K_MAX, and -10^11 is the smallest
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE,
                               "params": {"n_list": [10 ** 12, 1, 10 ** 11, -10 ** 11]}})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["message"].startswith("n = -100000000000: ")


def test_unresolved_spectrum_is_one_accuracy_error_line(tmp_path, capsys):
    # a narrow swirl: some of the 30 largest mu are <= 0 or spurious at every basis
    # size, which settles nothing, so the doubling ends in the K_MAX refusal
    cfg = write_cfg(tmp_path, {"profile": {"expr": "exp(-(r/0.05)^2)"},
                               "params": {"m_max": 30}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    error = json.loads(line)
    assert error.keys() == {"error", "message"} and error["error"] == "AccuracyError"
    # the last change is that of a spurious lambda, whose digits follow the BLAS
    # threading (4.4e+06 on one thread, 4.2e+06 on two)
    message = re.fullmatch(r"n = 1: 30 eigenvalues did not settle to 1e-08 by basis size 192 "
                           r"\(last change (\d\.\de[+-]\d\d)\)", error["message"])
    assert message and float(message[1]) > jacobi.TOL


def _spectrum_rows(config):
    """Exit status and the (lambda, t_star) columns of ``spectrum`` on ``config``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main(["spectrum", "--config", write_cfg(Path(tmp), config), "--out", tmp,
                     "--quiet"])
        rows = (np.loadtxt(Path(tmp, "spectrum.csv"), delimiter=",", skiprows=1, ndmin=2)
                if code == 0 else None)
    return code, err.getvalue(), rows


SCALE_CONFIG = {"profile": {"poly": [1.0, 0.0, 1.0]}, "params": {"m_max": 3, "n_list": [1, 7]}}


@settings(max_examples=30, deadline=None)
@example(1.0, -160, 1)
@example(1.0, -200, 1)
@example(9.99, -300, -1)
@example(1.0, 120, -1)
@given(st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 150), st.sampled_from([1, -1]))
def test_spectrum_is_scale_free(c, k, sign):
    # lambda(a u) = lambda(u) / |a|: the mass matrix is assembled on u scaled by a
    # power of two, so neither u omega nor its square under- or overflows
    a = sign * c * 10.0 ** k
    _, _, base = _spectrum_rows(SCALE_CONFIG)
    code, err, rows = _spectrum_rows(dict(SCALE_CONFIG, profile={"poly": [a, 0.0, a]}))
    assert (code, err) == (0, "")
    np.testing.assert_array_equal(rows[:, :2], base[:, :2])
    np.testing.assert_allclose(rows[:, 2:4] * abs(a), base[:, 2:4], rtol=1e-13, atol=0)


def test_cli_import_loads_no_scipy():
    code = ("import sys, swirlcurv.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    pytest.param(["curvature"], id="no-config"),
    pytest.param(["curvature", "--config", "cfg.json", "--grid", "64"], id="grid-flag-removed"),
])
def test_usage_error_exit_code(capsys, argv):
    # argparse's own exit 2 and usage text become exit 1 and one JSON line
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"


def test_unknown_command_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE})
    assert main(["frobnicate", "--config", cfg]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert "invalid choice: 'frobnicate'" in json.loads(lines[0])["message"]
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_missing_config_file_is_named(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["check-profile", "--config", str(missing), "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "config-error"
    assert "No such file" in payload["message"] and "missing.json" in payload["message"]


@pytest.mark.parametrize("text,error", [
    pytest.param('{"profile": ' + "[" * 100_000 + "]" * 100_000 + "}", "config-error",
                 id="nested-arrays"),
    # Python's parser refuses more than 200 nested parentheses
    pytest.param(json.dumps({"profile": {"expr": "(" * 3000 + "r" + ")" * 3000}}),
                 "ParseError", id="nested-parentheses"),
    pytest.param(json.dumps({"profile": {"expr": "+".join(["r"] * 1500)}}), "config-error",
                 id="deep-derivative"),   # a sum 1500 deep
    # Python's json refuses an integer of more than 4300 digits with a ValueError
    pytest.param('{"profile": {"poly": [' + "1" * 5000 + "]}}", "config-error",
                 id="integer-past-4300-digits"),
])
def test_deeply_nested_config_is_a_config_error(tmp_path, capsys, text, error):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["check-profile", "--config", str(path), "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def _one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("text", ["r^(1/0)", "r^(0^-1)", "r^(10^400)", "r^(sqrt(-1))"])
def test_exponent_that_is_not_finite_is_a_parse_error(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, {"profile": {"expr": "1 + " + text}})
    assert main(["check-profile", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys.readouterr().err) == "ParseError"


@pytest.mark.parametrize("text", ["1 + r^2 + sqrt(0)*r", "1 + r^2 + 0^0.5*r",
                                  "1 + r^2 + sqrt(0/2)*r", "1 + (.25*1e400)^-1*r"])
def test_constant_at_a_singular_point_of_its_slope_rule_is_read(tmp_path, capsys, text):
    # sqrt(0), 0^0.5 and (.25*1e400)^-1 are constants, which carry no slope: no
    # slope rule meets them at 0 or at inf
    cfg = write_cfg(tmp_path, {"profile": {"expr": text}})
    assert main(["check-profile", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("g, error", [
    # r = 1/2 is a point of the mode's one sample, whose non-finite value is refused
    pytest.param("r^2*(1-r)/(r-0.5)", "ValidationError", id="pole-on-the-scale-grid"),
    pytest.param("(1/0)^0*r^2*(1-r)", "FloatingPointError", id="division-by-zero-at-the-axis"),
])
def test_floating_point_error_while_reading_the_config(tmp_path, capsys, g, error):
    cfg = write_cfg(tmp_path, {"profile": GOOD_PROFILE, "modes": [{"n": 1, "g": {"expr": g}}]})
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert _one_error_line(capsys.readouterr().err) == error


SEED_EXPRESSIONS = ["1 + r^2", "2 - r^2", "exp(-r^2)*sin(3*r) + 2", "sqrt(1 + r)/(2 - r)",
                    "r^(1/2)*cos(pi*r) + 1.5"]
PIECES = ["r", "pi", "0", "1", ".5", "1e400", "(1/0)", "0^-1", "10^400", "sqrt(-1)", "^",
          "^-", "-", "+", "*", "/", "(", ")", "sin(", "log(", " ", "\n", "@", "**", "1if", "_"]


# admissible mode data: g(0) = g'(0) = g(1) = 0 and f(0) = 0
MODE_SEED_EXPRESSIONS = ["r^2*(1-r)", "r^2*(1-r)*exp(r)", "r^2*(1-r)*cos(r)", "r*sin(pi*r)",
                         "r*exp(-r)", "r*(1-r)", "sqrt(r)^5*(1-r)"]


@st.composite
def mutated_expressions(draw, seeds=SEED_EXPRESSIONS):
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        else:
            text = text[:i] + text[i + draw(st.integers(1, 3)):]
    return text


OPERANDS = ["r", "pi", "0", "1", ".5", "1e-300", "1e400", "(1/0)", "0^-1", "sqrt(-1)",
            "(r-0.5)", "log(r)", "sqrt(r)"]


@st.composite
def composed_expressions(draw, seeds):
    """Well-formed expressions around a seed, so that most get past the parser."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.sampled_from(OPERANDS))
        text = draw(st.sampled_from([f"({text}) {op} {b}" for op in "+-*/"]
                                    + [f"{fn}({text})" for fn in ("sin", "exp", "log", "sqrt")]
                                    + [f"({text})^{p}" for p in ("-1", "0", "0.5", "3", "1e3")]))
    return text


@settings(max_examples=150)
@example("1 + r^(1/0)")
@given(mutated_expressions() | composed_expressions(SEED_EXPRESSIONS))
def test_expression_boundary_gives_an_exit_code_and_one_json_line(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = write_cfg(Path(tmp), {"profile": {"expr": text}})
        code = main(["check-profile", "--config", cfg, "--out", tmp, "--quiet"])
    assert code in (0, 1)
    if code:
        _one_error_line(err.getvalue())
    else:
        assert err.getvalue() == ""


@settings(max_examples=150)
@example("g", "r^2*(1-r)/(r-0.5)")
@example("f_imag", "sqrt(r)")
@given(st.sampled_from(["g", "f", "g_imag", "f_imag"]),
       mutated_expressions(MODE_SEED_EXPRESSIONS) | composed_expressions(MODE_SEED_EXPRESSIONS))
def test_mode_expression_boundary_gives_an_exit_code_and_one_json_line(field, text):
    # the mode's g' and f' are read at the boundary: finiteness, the axis
    # conditions and the energy
    mode = {"n": 2, "g": {"expr": "r^2*(1-r)"}, "f": {"expr": "r*(1-r)"}, field: {"expr": text}}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = write_cfg(Path(tmp), {"profile": GOOD_PROFILE, "modes": [mode]})
        code = main(["curvature", "--config", cfg, "--out", tmp, "--quiet"])
    assert code in (0, 1)
    if code:
        _one_error_line(err.getvalue())
    else:
        assert err.getvalue() == ""


def _table_of(fn):
    r = np.linspace(0.0, 1.0, 9)
    return table(r.tolist(), fn(r).tolist())


# admissible poly and table specs of the profile (u = 1 + r^2) and of a mode's g and f
RADIAL_SEEDS = {"profile": [{"poly": [1, 0, 1]}, _table_of(lambda r: 1 + r * r)],
                "g": [{"poly": [0, 0, 1, -1]}, _table_of(lambda r: r * r * (1 - r))],
                "f": [{"poly": [0, 1, -1]}, _table_of(lambda r: r * (1 - r))]}
ENTRIES = (st.sampled_from(["1", True, None, [1.0], {}, math.nan, math.inf, -math.inf,
                            1e300, 10 ** 400, -0.5, 1.5, -1e-13, 1 + 1e-13])
           | st.floats(-2.0, 2.0) | st.integers(-3, 3))
COMMANDS = ["check-profile", "curvature", "spectrum", "jacobi", "oscillation-study",
            "limit-study"]


@st.composite
def mutated_radial_data(draw):
    """(field, spec): a poly or table spec of the profile or of a mode's g or f,
    with entries replaced, dropped or swapped, cut short, or of the wrong type."""
    field = draw(st.sampled_from(["profile", "g", "f", "g_imag", "f_imag"]))
    seed = draw(st.sampled_from(RADIAL_SEEDS[field.split("_")[0]]))
    spec = json.loads(json.dumps(seed))   # a copy
    parts = spec.get("table", spec)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(parts)))
        values = parts[key]
        i = draw(st.integers(0, max(len(values) - 1, 0)))
        action = draw(st.sampled_from(["set", "drop", "swap", "cut", "type"]))
        if action == "set" and values:
            values[i] = draw(ENTRIES)
        elif action == "drop" and values:
            del values[i]
        elif action == "swap" and values:
            values[i], values[-1] = values[-1], values[i]
        elif action == "cut":
            del values[draw(st.integers(0, 3)):]
        elif action == "type":
            parts[key] = draw(st.sampled_from([5, "1, 2", None, {}, values[:1]]))
            break
    return field, spec


@settings(max_examples=120, deadline=None)
@example(("profile", table([-1e-13, 0.3, 0.6, 1.0], [1.0, 1.09, 1.36, 2.0])), "spectrum")
@example(("profile", table([-0.5, 0.3, 0.6, 1.5], [1.25, 1.09, 1.36, 3.25])), "limit-study")
@example(("profile", {"poly": ["1", 0, "1e0"]}), "check-profile")
@example(("g", {"poly": [True, 0, 1, -1]}), "curvature")
@example(("f", table(["0", ".3", ".6", "1"], [0, 0.21, 0.24, 0])), "jacobi")
@example(("profile", {"poly": [10 ** 400, 0, 1]}), "oscillation-study")
@given(mutated_radial_data(), st.sampled_from(COMMANDS))
def test_radial_data_boundary_gives_an_exit_code_and_one_json_line(case, command):
    field, spec = case
    config = {"profile": RADIAL_SEEDS["profile"][0],
              "modes": [{"n": 2, "g": RADIAL_SEEDS["g"][0], "f": RADIAL_SEEDS["f"][0]}],
              "params": {"n_list": [1, 2], "k_max": 4}}
    if field == "profile":
        config["profile"] = spec
    else:
        config["modes"][0][field] = spec
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main([command, "--config", write_cfg(Path(tmp), config), "--out", tmp, "--quiet"])
        artifacts = [f.read_text() for f in Path(tmp).glob("*.json") if f.name != "cfg.json"]
    assert code in (0, 1)
    if code:
        assert _one_error_line(err.getvalue()) != "internal"
    else:
        assert err.getvalue() == ""
    assert not any("NaN" in text or "Infinity" in text for text in artifacts)


# JSON values of a param: integers within the config bound and just past it,
# bools, floats, strings (the phases among them) and short lists of these
PARAM_VALUES = st.recursive(
    st.integers(-10 ** 12, 10 ** 12) | st.sampled_from([10 ** 12 + 1, -10 ** 12 - 1])
    | st.booleans() | st.floats() | st.sampled_from(["cos", "sin", "1"]) | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3), max_leaves=4)
PARAMS = ["n", "m", "m_max", "n_list", "k_max", "phase"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMMANDS), st.dictionaries(st.sampled_from(PARAMS), PARAM_VALUES))
def test_params_give_an_exit_code_and_one_json_line(command, params):
    # an oscillation study to k_max takes 0.3 s at 512 and 28 s at MAX_PANELS: that
    # range is left to the k_max tests, to keep this one near a second
    k_max = params.get("k_max")
    assume(command != "oscillation-study" or type(k_max) is not int
           or not 512 < k_max <= MAX_PANELS)
    config = {"profile": GOOD_PROFILE, "modes": MODES, "params": params}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main([command, "--config", write_cfg(Path(tmp), config), "--out", tmp, "--quiet"])
        artifacts = [f.read_text() for f in Path(tmp).glob("*.json") if f.name != "cfg.json"]
    assert code in (0, 1)
    if code:
        assert _one_error_line(err.getvalue()) != "internal"
    else:
        assert err.getvalue() == ""
    assert not any("NaN" in text or "Infinity" in text for text in artifacts)


# JSON values of a mode's n: integers within the config bound (small ones among
# them) and just past it, bools, floats, strings and short lists
MODE_NUMBERS = (st.integers(-10 ** 12, 10 ** 12) | st.integers(-300, 300)
                | st.sampled_from([10 ** 12 + 1, -10 ** 12 - 1])
                | st.booleans() | st.floats() | st.text(max_size=4)
                | st.lists(st.integers(-3, 3), max_size=2))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["curvature", "check-profile"]), st.lists(MODE_NUMBERS, min_size=1,
                                                                  max_size=3))
def test_mode_numbers_give_an_exit_code_and_one_json_line(command, numbers):
    config = {"profile": GOOD_PROFILE, "modes": [dict(MODES[0], n=n) for n in numbers]}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main([command, "--config", write_cfg(Path(tmp), config), "--out", tmp, "--quiet"])
        artifacts = [f.read_text() for f in Path(tmp).glob("*.json") if f.name != "cfg.json"]
    assert code in (0, 1)
    if code:
        assert _one_error_line(err.getvalue()) != "internal"
    else:
        assert err.getvalue() == ""
    assert not any("NaN" in text or "Infinity" in text for text in artifacts)


@pytest.mark.parametrize("spec", [{"poly": [0]}, {"expr": "0^0.5*r"},
                                  table([0, .3, .6, 1], [0] * 4)], ids=["poly", "expr", "table"])
@pytest.mark.parametrize("command", COMMANDS)
def test_zero_swirl_is_refused(tmp_path, capsys, command, spec):
    # X = 0 spans no section: no curvature, spectrum or criterion is about it.
    # 0^0.5 is a constant, which carries no slope: u' is finite, and u = 0 is what
    # the message names
    cfg = write_cfg(tmp_path, {"profile": spec, "modes": MODES})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {
        "error": "ValidationError",
        "message": "u is 0 on [0, 1]: the swirl field X = 0 spans no section"}


@pytest.mark.parametrize("command", ["spectrum", "jacobi", "limit-study"])
def test_swirl_that_is_zero_on_half_the_interval_is_solved(tmp_path, capsys, command):
    # u = 0 on [1/2, 1], so the weight is 0 there.  The eigenvalues settle; the
    # kink of u at r = 1/2 is more than the Legendre basis resolves in the Jacobi
    # field, which the residual gate refuses with its one line
    cfg = write_cfg(tmp_path, {"profile": {"expr": "sqrt((r-0.5)^2) - (r - 0.5)"}})
    code = main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    if command == "jacobi":
        assert code == 1
        (line,) = err.strip().splitlines()
        assert json.loads(line)["message"].startswith(
            "n = 1, m = 1: the Jacobi field fails its equations")
    else:
        assert (code, err) == (0, "")


@pytest.mark.filterwarnings("error")
def test_overflow_is_one_json_line(tmp_path, capsys):
    # |g|^2 overflows for coefficients of 1e200: no warnings, no refinement on NaN
    big = {"n": 1, "g": {"poly": [0, 0, 1e200, -1e200]}, "f": {"poly": [0, 1, -1]}}
    cfg = write_cfg(tmp_path, {"profile": ONE, "modes": [big]})
    assert main(["curvature", "--config", cfg, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FloatingPointError"
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


def test_removed_sampling_keys_are_ignored(tmp_path):
    # the program fixes its own resolution; a config that still sets it runs as without
    for command, payload, removed in [
            ("curvature", {"profile": GOOD_PROFILE, "modes": MODES}, {"grid": 65537}),
            ("check-profile", {"profile": GOOD_PROFILE}, {"sample_count": 1}),
            ("jacobi", {"profile": ONE, "params": {"n": 1, "m": 1}},
             {"eval_grid": 0, "snapshot_grid": 0, "times": [math.nan]})]:
        params = payload.get("params", {})
        outputs = []
        for index, extra in enumerate([{}, removed]):
            cfg = write_cfg(tmp_path, dict(payload, params=dict(params, **extra)))
            out = tmp_path / f"{command}-{index}"
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1]


# Metamorphic relations, through main(): u -> -u changes no artifact, and n -> -n
# changes no value of a row, matched by |n| (rows sorted by n flip their order)
SYMMETRIC_PROFILES = {"1+r^2": {"poly": [1.0, 0.0, 1.0]}, "2-r^2": {"expr": "2 - r^2"}}
SYMMETRIC_MODES = [   # a table f, an expr g with an imaginary part, n = 0 and n = 200
    {"n": 1, "g": {"poly": [0, 0, 1, -1]},
     "f": table(np.linspace(0.0, 1.0, 9).tolist(),
                (np.linspace(0.0, 1.0, 9) * (1.0 - np.linspace(0.0, 1.0, 9))).tolist())},
    {"n": -2, "g": {"expr": "r^2*(1-r)*exp(r)"}, "g_imag": {"expr": "r^2*(1-r)*cos(3*r)"},
     "f": {"poly": [0, 1, -1]}},
    {"n": 0, "g": {"poly": [0, 0, 1]}, "f": {"poly": [0, 1, -1]}},
    {"n": 5, "g": {"poly": [0, 0, 2, -2]}, "f_imag": {"poly": [0, 0.5]}},
    {"n": 200, "g": {"poly": [0, 0, 1, -1]}, "f": {"poly": [0, 1, -1]}},
]
SYMMETRIC_COMMANDS = {"check-profile": {}, "curvature": {},
                      "spectrum": {"m_max": 3, "n_list": [1, -2, 5, 200]},
                      "limit-study": {"m": 2, "n_list": [4, -8, 16]}}


def _outcome(tmp_path, capsys, command, payload, name):
    """Exit status, stderr and every artifact of one run of ``command``."""
    out = tmp_path / name
    code = main([command, "--config", write_cfg(tmp_path, payload, f"{name}.json"),
                 "--out", str(out), "--quiet"])
    return code, capsys.readouterr().err, {f.name: f.read_bytes() for f in out.iterdir()}


def _negated(payload):
    """``payload`` with every wavenumber, of a mode or a param, negated."""
    params = {key: [-n for n in value] if key == "n_list" else value
              for key, value in payload["params"].items()}
    return dict(payload, modes=[dict(m, n=-m["n"]) for m in payload["modes"]], params=params)


def _rows_by_abs_n(files):
    """Each CSV's rows without their n, grouped by |n| in file order; other files whole."""
    groups = {}
    for name, data in files.items():
        if not name.endswith(".csv"):
            groups[name] = data
            continue
        header, *lines = data.decode().splitlines()
        for line in lines:
            n, rest = line.split(",", 1)
            groups.setdefault((name, header, abs(int(n))), []).append(rest)
    return groups


@pytest.mark.parametrize("command", sorted(SYMMETRIC_COMMANDS))
@pytest.mark.parametrize("profile", sorted(SYMMETRIC_PROFILES))
def test_negating_u_changes_no_artifact(tmp_path, capsys, command, profile):
    spec = SYMMETRIC_PROFILES[profile]
    negated = ({"poly": [-c for c in spec["poly"]]} if "poly" in spec
               else {"expr": f"-({spec['expr']})"})
    payload = {"profile": spec, "modes": SYMMETRIC_MODES, "params": SYMMETRIC_COMMANDS[command]}
    base = _outcome(tmp_path, capsys, command, payload, "u")
    assert base == _outcome(tmp_path, capsys, command, dict(payload, profile=negated), "minus-u")
    assert base[0] == 0 and base[2]


@pytest.mark.parametrize("command", sorted(SYMMETRIC_COMMANDS))
@pytest.mark.parametrize("profile", sorted(SYMMETRIC_PROFILES))
def test_negating_n_changes_no_value_of_a_row(tmp_path, capsys, command, profile):
    payload = {"profile": SYMMETRIC_PROFILES[profile], "modes": SYMMETRIC_MODES,
               "params": SYMMETRIC_COMMANDS[command]}
    code, err, files = _outcome(tmp_path, capsys, command, payload, "n")
    minus = _outcome(tmp_path, capsys, command, _negated(payload), "minus-n")
    assert (code, err, _rows_by_abs_n(files)) == (minus[0], minus[1], _rows_by_abs_n(minus[2]))
    assert code == 0 and files


# polynomial modes for the phase relation: n = 0, an imaginary g, an imaginary f,
# g'(0) != 0 (k_normalized nan) and n = 200
PHASE_MODES = [
    {"n": 1, "g": {"poly": [0, 0, 1, -1]}, "f": {"poly": [0, 1, -1]}},
    {"n": -2, "g": {"poly": [0, 0, 1, 0, -1]}, "g_imag": {"poly": [0, 0, 0.5, -0.5]},
     "f": {"poly": [0, 1, -1]}},
    {"n": 0, "g": {"poly": [0, 0, 1]}, "f": {"poly": [0, 1, -1]}},
    {"n": 3, "g": {"poly": [0, 1, -1]}, "f": {"poly": [0, 0, 1]}},
    {"n": 5, "g": {"poly": [0, 0, 2, -2]}, "f_imag": {"poly": [0, 0.5]}},
    {"n": 200, "g": {"poly": [0, 0, 1, -1]}, "f": {"poly": [0, 1, -1]}},
]


def _phased(spec, alpha):
    """The mode ``spec`` with e^(i alpha) applied to g and to f."""
    out = {"n": spec["n"]}
    for part in ("g", "f"):
        re = spec.get(part, {"poly": [0.0]})["poly"]
        im = spec.get(f"{part}_imag", {"poly": [0.0]})["poly"]
        c, s = math.cos(alpha), math.sin(alpha)
        out[part] = {"poly": np.polynomial.polynomial.polyadd(np.multiply(c, re),
                                                              np.multiply(-s, im)).tolist()}
        out[f"{part}_imag"] = {"poly": np.polynomial.polynomial.polyadd(
            np.multiply(s, re), np.multiply(c, im)).tolist()}
    return out


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("profile", sorted(SYMMETRIC_PROFILES))
def test_a_phase_on_the_mode_moves_no_curvature(tmp_path, capsys, profile, alpha):
    # Kbar reads |g|^2, |g'|^2, |f|^2 and |H_n|^2, and the energies |.|^2 alike:
    # e^(i alpha) (g, f) moves them by round-off only
    payload = {"profile": SYMMETRIC_PROFILES[profile], "modes": PHASE_MODES}
    phased = dict(payload, modes=[_phased(m, alpha) for m in PHASE_MODES])
    tables = []
    for name, data in (("base", payload), ("phased", phased)):
        code, err, files = _outcome(tmp_path, capsys, "curvature", data, name)
        assert (code, err) == (0, "")
        header, *lines = files["curvature.csv"].decode().splitlines()
        tables.append([[float(v) for v in line.split(",")] for line in lines])
    assert header == "n,kbar_closed,kbar_oracle,discrepancy,k_normalized"
    base, moved = (np.array(t) for t in tables)
    assert np.array_equal(base[:, 0], moved[:, 0])
    assert np.isnan(base[:, 4]).tolist() == [False, False, False, True, False, False]
    for column in (1, 2, 4):   # kbar_closed, kbar_oracle, k_normalized
        np.testing.assert_allclose(moved[:, column], base[:, column], rtol=1e-13, atol=0.0)


def _params_read_by_each_command():
    """(command, key) for every key a ``_cmd_*`` function of cli.py reads,
    through ``_param(cfg, key, ...)`` or ``cfg.params.get(key, ...)``."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src/swirlcurv/cli.py").read_text())
    table, = (node.value for node in tree.body
              if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "_COMMANDS")
    names = {v.id: k.value for k, v in zip(table.keys, table.values)}
    key_at = {"_param": 1, "cfg.params.get": 0}   # the key's argument position
    return {(names[fn.name], call.args[key_at[ast.unparse(call.func)]].value)
            for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in names
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and ast.unparse(call.func) in key_at}


def _params_in_readme():
    """(command, param) rows of the README's params table; a parenthesis
    qualifies the param before it and names none."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | param | default |") + 2
    pairs = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, params = line.split("|")[1:3]
        for key in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", params)):
            pairs.add((command.strip().strip("`"), key))
    return pairs


def test_readme_params_table_matches_the_cli():
    read = _params_read_by_each_command()
    assert ("jacobi", "phase") in read and ("spectrum", "n") in read
    assert _params_in_readme() == read
