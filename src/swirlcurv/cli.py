"""Command-line interface: profile checks, curvature tables, spectra, Jacobi fields.

Every command reads one JSON config (see :mod:`swirlcurv.config`) and writes
deterministic artifacts into the output directory: CSV numbers use fixed
17-significant-digit scientific notation and rows are ordered by (n, m).
Exit status: 0 success, 2 when a theorem hypothesis is violated by the
input, 1 for anything else; errors are reported as single-line JSON on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, check_number, parse_config
from .curvature import curvature_report, oscillation_study
from .errors import HypothesisViolationError, SwirlcurvError, ValidationError
from .jacobi import (assemble_jacobi, conjugate_times, jacobi_residuals,
                     lambda_over_n_study, sl_spectrum)
from .profile import classify_criteria

__all__ = ["main", "run_command"]

_FMT = "%.16e"  # 17 significant digits, reproducible diffs


def _write_csv(path: Path, header, rows):
    """``rows``: tuples or a 2-D float array.  A column whose first value is an
    integer is written as one, every other value with ``_FMT``."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    line = ",".join("%d" if isinstance(v, (int, np.integer)) else _FMT
                    for v in (rows[0] if rows else ())) + "\n"
    path.write_text(",".join(header) + "\n"
                    + line * len(rows) % tuple(v for row in rows for v in row))


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _param(cfg: RunConfig, key: str, default, kind=int, minimum=None):
    """``cfg.params[key]``, or ``default`` when absent, each value checked by
    ``check_number`` and against ``minimum``; a list default takes a list, and
    an integer list may not repeat a value."""
    value = cfg.params.get(key, default)
    many = isinstance(default, list)
    if many and not isinstance(value, list):
        raise ValidationError(f"param {key!r} must be a list, got {value!r}")
    values = [check_number(v, kind, f"param {key!r}") for v in (value if many else [value])]
    if minimum is not None and any(v < minimum for v in values):
        raise ValidationError(f"param {key!r} must be >= {minimum}, got {value!r}")
    if kind is int and len(set(values)) < len(values):
        raise ValidationError(f"param {key!r} repeats a value: {value!r}")
    return values if many else values[0]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check_profile(cfg: RunConfig, out: Path, grid):
    report = classify_criteria(cfg.profile, _param(cfg, "sample_count", 256))
    payload = asdict(report)
    _write_json(out / "criteria.json", payload)
    return ["criteria.json"]


def _cmd_curvature(cfg: RunConfig, out: Path, grid):
    oracle_grid = grid or _param(cfg, "grid", 2048)
    rows = []
    for m in sorted(cfg.modes, key=lambda mm: mm.n):
        res = curvature_report(cfg.profile, m, oracle_grid)
        rows.append((res.n, res.kbar_closed, res.kbar_oracle, res.discrepancy,
                     res.k_normalized))
    _write_csv(out / "curvature.csv",
               ["n", "kbar_closed", "kbar_oracle", "discrepancy", "k_normalized"], rows)
    return ["curvature.csv"]


def _cmd_spectrum(cfg: RunConfig, out: Path, grid):
    m_max = _param(cfg, "m_max", 3)
    n_list = _param(cfg, "n_list", []) or [_param(cfg, "n", 1)]
    rows = []
    for n in sorted(n_list):
        s = sl_spectrum(cfg.profile, n, m_max)
        for (m, t_star), lam, est in zip(conjugate_times(s), s.eigenvalues,
                                         s.error_estimates):
            rows.append((n, m, float(lam), t_star, float(est)))
    _write_csv(out / "spectrum.csv",
               ["n", "m", "lambda", "t_star", "error_estimate"], rows)
    return ["spectrum.csv"]


def _cmd_jacobi(cfg: RunConfig, out: Path, grid):
    n = _param(cfg, "n", 1)
    m = _param(cfg, "m", 1)
    eval_grid = _param(cfg, "eval_grid", 256, minimum=1)
    snap = _param(cfg, "snapshot_grid", 64, minimum=1)
    phase = cfg.params.get("phase", "cos")
    s = sl_spectrum(cfg.profile, n, m)
    sol = assemble_jacobi(cfg.profile, s, m, phase=phase)
    times = _param(cfg, "times", [0.25 * sol.t_star, 0.5 * sol.t_star, 0.75 * sol.t_star],
                   float)
    report = jacobi_residuals(cfg.profile, sol, grid=eval_grid, times=times)
    _write_json(out / "jacobi_residuals.json", {
        "n": n, "m": m, "lambda": float(sol.lam), "t_star": sol.t_star, "phase": phase,
        "residual_swirl_transport": report.swirl_transport,
        "residual_stream_transport": report.stream_transport,
        "residual_second_order": report.second_order,
        "residual_flow_components": report.flow_components,
        "times": times,
    })
    artifacts = ["jacobi_residuals.json"]

    r = np.linspace(1.0 / snap, 1.0, snap)
    z = 2.0 * np.pi * np.arange(16) / 16
    rr, zz = np.meshgrid(r, z, indexing="ij")
    for idx, t in enumerate(times):
        for name in ("h", "j", "g", "f"):
            vals = getattr(sol, name)(t, rr[:, :1], zz[:1, :])
            table = np.stack([rr, zz, np.broadcast_to(vals, rr.shape)], axis=-1)
            fname = f"jacobi_{name}_t{idx}.csv"
            _write_csv(out / fname, ["r", "z", name], table.reshape(-1, 3))
            artifacts.append(fname)
    return artifacts


def _cmd_oscillation(cfg: RunConfig, out: Path, grid):
    n = _param(cfg, "n", 1)
    k_max = _param(cfg, "k_max", 32)
    rows = oscillation_study(cfg.profile, n, range(1, k_max + 1))
    _write_csv(out / "oscillation.csv", ["k", "k_normalized"], rows)
    return ["oscillation.csv"]


def _cmd_limit(cfg: RunConfig, out: Path, grid):
    m = _param(cfg, "m", 1)
    n_list = _param(cfg, "n_list", [4, 8, 16, 32, 64])
    pairs = lambda_over_n_study(cfg.profile, m, n_list)
    ratios = [ratio for _, ratio in pairs]
    diffs = [float("nan")] + [b - a for a, b in zip(ratios, ratios[1:])]
    rows = [(n, ratio, diff) for (n, ratio), diff in zip(pairs, diffs)]
    _write_csv(out / "limit.csv", ["n", "lambda_over_n", "diff"], rows)
    return ["limit.csv"]


_COMMANDS = {
    "check-profile": _cmd_check_profile,
    "curvature": _cmd_curvature,
    "spectrum": _cmd_spectrum,
    "jacobi": _cmd_jacobi,
    "oscillation-study": _cmd_oscillation,
    "limit-study": _cmd_limit,
}


def run_command(command: str, cfg: RunConfig, out_dir, grid=None, quiet=False) -> int:
    """Run one subcommand; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        artifacts = _COMMANDS[command](cfg, out, grid)
    except HypothesisViolationError as exc:
        print(json.dumps({"error": "hypothesis-violation", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except SwirlcurvError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    if not quiet:
        for name in artifacts:
            print(out / name)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swirlcurv",
        description="Curvature and conjugate points of axisymmetric swirl flows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory for artifacts")
    parser.add_argument("--grid", type=int, default=None,
                        help="override the curvature oracle's finite-difference grid")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except SwirlcurvError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config-error", "message": str(exc)}), file=sys.stderr)
        return 1
    try:
        return run_command(args.command, cfg, args.out, args.grid, args.quiet)
    except Exception as exc:  # internal error: report, never traceback-spray
        print(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
