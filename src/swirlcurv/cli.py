"""Command-line interface: profile checks, curvature tables, spectra, Jacobi fields.

Every command reads one JSON config (see :mod:`swirlcurv.config`) and writes
deterministic artifacts into the output directory: CSV numbers use fixed
17-significant-digit scientific notation and rows are ordered by (n, m).
Exit status: 0 success, 1 for any error (a config nested too deeply to read
is a ``config-error``); errors are reported as single-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from .config import MAX_INT, RunConfig, check_integer, parse_config
from .curvature import curvature_table, oscillation_study
from .errors import AccuracyError, SwirlcurvError, ValidationError
from .jacobi import (RESIDUAL_TOL, assemble_jacobi, check_phase, conjugate_times,
                     jacobi_residuals, sl_spectra, sl_spectrum)
from .profile import classify_criteria
from .quadrature import MAX_PANELS

__all__ = ["main"]

_FMT = "%.16e"  # 17 significant digits, reproducible diffs
# overflow and NaN stop a command, and the reading of its config; underflow
# flushes to 0 (curvature._carry)
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}
# long double's machine epsilon, which bounds the relative error of two correctly
# rounded long-double operations; where long double is a double it certifies no
# rounding, and every value takes _fallback
_EPS = float(np.finfo(np.longdouble).eps)
_PAIRS = np.array([b"%02d" % k for k in range(100)]).view("<u2")   # "00" ... "99"


def _pow10(k):
    """10**k in long double, correctly rounded from its decimal string, for an
    integer array k (which ``_nearest`` sets to 16 for a value it does not round)."""
    lo = int(k.min(initial=16))
    return np.array(["1e%d" % j for j in range(lo, int(k.max(initial=16)) + 1)],
                    dtype=np.longdouble)[k - lo]


def _fallback(values):
    """``_FMT % v`` of each value, as (len, 24) NUL-padded bytes."""
    cells = np.array([_FMT % v for v in values.tolist()], dtype="S24")
    return cells.view(np.uint8).reshape(-1, 24)


def _nearest(v):
    """(N, e, certified) for each value of ``v``, as ``_format`` describes them;
    N and e are 0 where the rounding is not certified."""
    a = np.abs(v)
    fast = (a >= 1e-290) & (a < 1e290)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int16)
    y = _pow10(16 - e)
    y *= a
    n = y.astype(np.int64)
    tol = 1.01 * _EPS * y.astype(float)
    y -= n
    frac = y.astype(float)
    n += frac > 0.5
    ok = fast & (np.abs(frac - 0.5) > tol) & (n > 10 ** 16) & (n < 10 ** 17)
    return np.where(ok, n, 0), np.where(ok, e, 0), ok


def _format(x):
    """``_FMT % v`` for every value of the float array ``x``, as NUL-padded bytes
    of shape ``x.shape + (24,)``.

    For 1e-290 <= |v| < 1e290 the 17 digits are the integer N nearest to
    y = |v| 10**(16 - e), taken in long double with e = floor(log10 |v|).  Two
    correctly rounded operations put y within _EPS y of the exact product, so N is
    the correctly rounded one when y is farther than 1.01 _EPS y from a tie.
    10**16 < N < 10**17 catches an e that log10 rounded across a power of ten
    (N = 10**16 is left out: it would be wrong were e one too large).  Zeros are
    written directly; every other value (nan, inf, out of range, or a rounding not
    certified) takes ``_fallback``."""
    v = np.asarray(x, dtype=float).ravel()
    n, e, ok = _nearest(v)
    out = np.zeros((v.size, 24), np.uint8)
    cells = out.view("<u2")   # sign D0 | . D1 | D2 D3 | ... | D14 D15 | D16 e | +- h | t o
    n, digits = np.divmod(n, 10)
    cells[:, 9] = digits + (ord("0") + 256 * ord("e"))
    for j in range(8, 1, -1):
        np.divmod(n, 100, out=(n, digits))
        cells[:, j] = _PAIRS[digits]
    lead, first = np.divmod(n, 10)
    cells[:, 0] = 256 * (ord("0") + lead) + ord("-") * np.signbit(v)
    cells[:, 1] = 256 * (ord("0") + first) + ord(".")
    hundreds, tens = np.divmod(np.abs(e), 100)
    cells[:, 10] = (np.where(e < 0, ord("-"), ord("+"))
                    + 256 * np.where(hundreds > 0, ord("0") + hundreds, 0))
    cells[:, 11] = _PAIRS[tens]
    slow = np.flatnonzero(~ok & (v != 0))
    if slow.size:
        out[slow] = _fallback(v[slow])
    return out.reshape(np.shape(x) + (24,))


def _csv(header, columns) -> bytes:
    """The CSV text of ``columns``, each a (rows, 24) array of NUL-padded cells."""
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    parts = [part for col, sep in zip(columns, seps)
             for part in (col, np.full((len(col), 1), sep, np.uint8))]
    table = np.concatenate(parts, axis=1).tobytes()
    return (",".join(header) + "\n").encode() + table.translate(None, b"\0")


def _write_csv(path: Path, header, rows):
    """``rows``: tuples.  A column whose first value is an integer is written with
    ``%d``, every other value with ``_FMT``: one ``%`` over the repeated row format."""
    line = ",".join("%d" if isinstance(v, (int, np.integer)) else _FMT
                    for v in (rows[0] if rows else ())) + "\n"
    path.write_text(",".join(header) + "\n"
                    + line * len(rows) % tuple(v for row in rows for v in row))


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _report(error: str, message: str) -> int:
    """Write the single JSON error line on stderr; returns the exit status 1."""
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return 1


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
    residuals = jacobi_residuals(sol)
    failing = [f"{key} = {value:.3e}" for key, value in residuals.items()
               if not value <= RESIDUAL_TOL]   # a nan fails too
    if failing:
        raise AccuracyError(f"n = {n}, m = {m}: the Jacobi field fails its equations, "
                            f"{', '.join(failing)} > {RESIDUAL_TOL:g}")
    _write_json(out / "jacobi_residuals.json", {
        "n": n, "m": m, "lambda": float(sol.lam), "t_star": sol.t_star, "phase": phase,
        "times": sol.times, **residuals})
    artifacts = ["jacobi_residuals.json"]

    r = np.linspace(1.0 / 64, 1.0, 64)   # 64 x 16 snapshot points per field and time
    z = 2.0 * np.pi * np.arange(16) / 16
    names = ("h", "j", "g", "f")
    fields = sol.fields(np.array(sol.times)[:, None, None], r[:, None], z[None, :])
    values = _format(np.stack([fields[name] for name in names], axis=1))
    rz = _format(np.concatenate([r, z]))
    points = [np.broadcast_to(c, (64, 16, 24)).reshape(-1, 24)
              for c in (rz[:64, None], rz[None, 64:])]
    for idx, cells in enumerate(values):
        for name, col in zip(names, cells):
            fname = f"jacobi_{name}_t{idx}.csv"
            (out / fname).write_bytes(_csv(["r", "z", name], points + [col.reshape(-1, 24)]))
            artifacts.append(fname)
    return artifacts


def _cmd_oscillation(cfg: RunConfig, out: Path):
    n = _param(cfg, "n", 1)
    k_max = _param(cfg, "k_max", 32)
    # past k ~ 7850 sin^2(k pi r) needs more than MAX_PANELS panels; the study runs
    # its largest k first, so a k_max up to MAX_PANELS fails in its first call
    if not 1 <= k_max <= MAX_PANELS:
        raise ValidationError(f"param 'k_max' must be in 1 ... {MAX_PANELS}, got {k_max}")
    rows = oscillation_study(cfg.profile, n, k_max)
    _write_csv(out / "oscillation.csv", ["k", "k_normalized"], rows)
    return ["oscillation.csv"]


def _cmd_limit(cfg: RunConfig, out: Path):
    m = _param(cfg, "m", 1, least=1)
    n_list = _param(cfg, "n_list", [4, 8, 16, 32, 64])
    if not n_list:
        raise ValidationError("param 'n_list' must not be empty")
    spectra = sl_spectra(cfg.profile, n_list, m)
    ratios = [float(s.eigenvalues[m - 1] / abs(s.n)) for s in spectra]
    diffs = [float("nan")] + [b - a for a, b in zip(ratios, ratios[1:])]
    rows = [(s.n, ratio, diff) for s, ratio, diff in zip(spectra, ratios, diffs)]
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
        # argparse would print its usage text and exit 2; a usage error is one JSON line
        raise ValidationError(message)


_PARSER = _Parser(prog="swirlcurv",
                  description="Curvature and conjugate points of axisymmetric swirl flows")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to the JSON config")
_PARSER.add_argument("--out", default=".", help="output directory for artifacts")
_PARSER.add_argument("--quiet", action="store_true")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
    except (SwirlcurvError, FloatingPointError) as exc:
        return _report(type(exc).__name__, str(exc))
    except OSError as exc:   # --out or an artifact in it cannot be created
        return _report("output-error", str(exc))
    except Exception as exc:  # internal error: report, never traceback-spray
        return _report("internal", f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
