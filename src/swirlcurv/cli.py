"""Command-line interface: profile checks, curvature tables, spectra, Jacobi fields.

Every command reads one JSON config (see :mod:`swirlcurv.config`) and writes
deterministic artifacts into the output directory: CSV numbers use fixed
17-significant-digit scientific notation and rows are ordered by (n, m).
Exit status: 0 success, 2 when a theorem hypothesis is violated by the
input, 1 for anything else (a config nested too deeply to read is a
``config-error``); errors are reported as single-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from .config import MAX_INT, RunConfig, check_integer, parse_config
from .curvature import curvature_table, oscillation_study
from .errors import HypothesisViolationError, SwirlcurvError, ValidationError
from .jacobi import (assemble_jacobi, check_phase, conjugate_times, jacobi_residuals,
                     lambda_over_n_study, sl_spectra, sl_spectrum)
from .profile import classify_criteria
from .quadrature import MAX_PANELS

__all__ = ["main"]

_FMT = "%.16e"  # 17 significant digits, reproducible diffs
# overflow and NaN stop a command, and the reading of its config; underflow
# flushes to 0 (curvature._carry)
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}


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


def _report(error: str, message: str, status: int = 1) -> int:
    """Write the single JSON error line on stderr; returns the exit status."""
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return status


def _param(cfg: RunConfig, key: str, default, least: int = -MAX_INT):
    """``cfg.params[key]``, or ``default`` when absent, each value checked by
    ``check_integer`` from ``least`` on; a list default takes a list without repeats."""
    value = cfg.params.get(key, default)
    many = isinstance(default, list)
    if many and not isinstance(value, list):
        raise ValidationError(f"param {key!r} must be a list, got {value!r}")
    values = [check_integer(v, f"param {key!r}", least) for v in (value if many else [value])]
    if len(set(values)) < len(values):
        raise ValidationError(f"param {key!r} repeats a value: {value!r}")
    return values if many else values[0]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check_profile(cfg: RunConfig, out: Path):
    _write_json(out / "criteria.json", asdict(classify_criteria(cfg.profile)))
    return ["criteria.json"]


def _cmd_curvature(cfg: RunConfig, out: Path):
    rows = [astuple(res) for res in curvature_table(cfg.profile, cfg.modes)]
    _write_csv(out / "curvature.csv",
               ["n", "kbar_closed", "kbar_oracle", "discrepancy", "k_normalized"], rows)
    return ["curvature.csv"]


def _cmd_spectrum(cfg: RunConfig, out: Path):
    m_max = _param(cfg, "m_max", 3, least=1)
    n_list = _param(cfg, "n_list", []) or [_param(cfg, "n", 1)]
    rows = [(s.n, m, float(lam), t_star, float(est))
            for s in sl_spectra(cfg.profile, sorted(n_list), m_max)
            for (m, t_star), lam, est in zip(conjugate_times(s), s.eigenvalues,
                                             s.error_estimates)]
    _write_csv(out / "spectrum.csv",
               ["n", "m", "lambda", "t_star", "error_estimate"], rows)
    return ["spectrum.csv"]


def _cmd_jacobi(cfg: RunConfig, out: Path):
    n = _param(cfg, "n", 1)
    m = _param(cfg, "m", 1, least=1)
    phase = check_phase(cfg.params.get("phase", "cos"))
    s = sl_spectrum(cfg.profile, n, m)
    sol = assemble_jacobi(cfg.profile, s, m, phase=phase)
    report = jacobi_residuals(cfg.profile, sol)
    _write_json(out / "jacobi_residuals.json", {
        "n": n, "m": m, "lambda": float(sol.lam), "t_star": sol.t_star, "phase": phase,
        "residual_swirl_transport": report.swirl_transport,
        "residual_stream_transport": report.stream_transport,
        "residual_second_order": report.second_order,
        "residual_flow_components": report.flow_components,
        "times": sol.times,
    })
    artifacts = ["jacobi_residuals.json"]

    r = np.linspace(1.0 / 64, 1.0, 64)   # 64 x 16 snapshot points per field and time
    z = 2.0 * np.pi * np.arange(16) / 16
    # the rows of every snapshot, as _write_csv writes them: each r and z formatted
    # once, and a slot for the field's value
    rows = "".join(f"{a},{b},{_FMT}\n" for a, b in itertools.product(
        *([_FMT % v for v in x.tolist()] for x in (r, z))))
    fields = sol.fields(np.array(sol.times)[:, None, None], r[:, None], z[None, :])
    for idx in range(len(sol.times)):
        for name in ("h", "j", "g", "f"):
            vals = fields[name][idx]
            fname = f"jacobi_{name}_t{idx}.csv"
            (out / fname).write_text(f"r,z,{name}\n" + rows % tuple(vals.ravel().tolist()))
            artifacts.append(fname)
    return artifacts


def _cmd_oscillation(cfg: RunConfig, out: Path):
    n = _param(cfg, "n", 1)
    k_max = _param(cfg, "k_max", 32)
    # past k ~ 7850 sin^2(k pi r) needs more than MAX_PANELS panels; the study runs
    # its largest k first, so a k_max up to MAX_PANELS fails in its first call
    if not 1 <= k_max <= MAX_PANELS:
        raise ValidationError(f"param 'k_max' must be in 1 ... {MAX_PANELS}, got {k_max}")
    rows = oscillation_study(cfg.profile, n, range(1, k_max + 1))
    _write_csv(out / "oscillation.csv", ["k", "k_normalized"], rows)
    return ["oscillation.csv"]


def _cmd_limit(cfg: RunConfig, out: Path):
    m = _param(cfg, "m", 1, least=1)
    n_list = _param(cfg, "n_list", [4, 8, 16, 32, 64])
    if not n_list:
        raise ValidationError("param 'n_list' must not be empty")
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print its usage text and exit 2, the hypothesis-violation code
        raise ValidationError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="swirlcurv",
        description="Curvature and conjugate points of axisymmetric swirl flows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory for artifacts")
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
        with np.errstate(**_RAISE):
            cfg = parse_config(Path(args.config))
    except (SwirlcurvError, FloatingPointError) as exc:
        return _report(type(exc).__name__, str(exc))
    except (OSError, ValueError, RecursionError) as exc:
        # malformed JSON, an integer past 4300 digits, or nesting past the recursion limit
        return _report("config-error", str(exc))
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(**_RAISE):
            artifacts = _COMMANDS[args.command](cfg, out)
        if not args.quiet:
            for name in artifacts:
                print(out / name)
    except HypothesisViolationError as exc:
        return _report("hypothesis-violation", str(exc), 2)
    except (SwirlcurvError, FloatingPointError) as exc:
        return _report(type(exc).__name__, str(exc))
    except Exception as exc:  # internal error: report, never traceback-spray
        return _report("internal", f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
