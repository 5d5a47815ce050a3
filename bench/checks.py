"""Reference checks for the artifacts of one invocation.

``check(command, key, config, out_dir, refs)`` returns a ``Check``: whether
every gate passed, the correct significant digits of each comparison with a
frozen reference (capped at ``MAX_DIGITS``), and a message per failed gate.
Gates follow the acceptance suite: closed vs oracle within 1e-6 (AC-1),
eigenvalues within 1e-6 (AC-5), Jacobi residuals below 1e-6 (AC-6).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_DIGITS = 12.0


@dataclass
class Check:
    digits: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def compare(self, what: str, value, ref, tol: float, scale=None) -> None:
        """Record the digits of ``value`` against ``ref`` and gate the relative error."""
        value, ref = float(value), float(ref)
        err = abs(value - ref) / (scale if scale is not None else max(abs(ref), 1e-300))
        if not math.isfinite(err):
            self.errors.append(f"{what}: {value!r} vs reference {ref!r}")
            return
        self.digits.append(MAX_DIGITS if err == 0.0 else min(MAX_DIGITS, -math.log10(err)))
        self.gate(err <= tol, f"{what}: {value!r} vs reference {ref!r} (error {err:.2e})")


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _check_profile(c: Check, key, config, out: Path, refs):
    got = json.loads((out / "criteria.json").read_text())
    ref = refs["check-profile"][key]
    for flag in ("eta_strictly_positive", "eta_nonnegative", "u_omega_positive"):
        c.gate(got[flag] is ref[flag], f"{flag} = {got[flag]}, expected {ref[flag]}")
    for name in ("eta_min", "u_omega_min"):
        c.compare(name, got[name], ref[name], 1e-9, scale=max(abs(ref[name]), 1.0))
    if "eta_root" in ref:
        roots = [w["r"] for w in got["witness_points"] if w["criterion"] == "eta"]
        nearest = min(roots, key=lambda r: abs(r - ref["eta_root"]), default=float("nan"))
        c.compare("eta root", nearest, ref["eta_root"], 1e-9)


def _has_table(mode: dict, part: str) -> bool:
    return any("table" in mode.get(k, {}) for k in (part, part + "_imag"))


def _check_curvature(c: Check, key, config, out: Path, refs):
    header, rows = read_csv(out / "curvature.csv")
    c.gate(header == ["n", "kbar_closed", "kbar_oracle", "discrepancy", "k_normalized"],
           f"curvature.csv header {header}")
    modes = sorted(config["modes"], key=lambda m: m["n"])
    c.gate(len(rows) == len(modes), f"{len(rows)} rows for {len(modes)} modes")
    ref = refs["curvature"].get(key, {})
    positive = key in refs["check-profile"] and refs["check-profile"][key]["eta_strictly_positive"]
    for mode, (n, kc, ko, disc, kn) in zip(modes, rows):
        c.gate(n == mode["n"], f"row n = {n}, expected {mode['n']}")
        c.gate(math.isfinite(kc) and math.isfinite(ko), f"n={n}: non-finite curvature")
        c.gate(disc <= 1e-6, f"n={n}: closed vs oracle discrepancy {disc:.2e} > 1e-6")
        c.gate(abs(disc - abs(kc - ko) / (1.0 + abs(kc))) <= 1e-12 * (1.0 + disc),
               f"n={n}: discrepancy column does not match the curvature columns")
        if positive:
            c.gate(kc > 0.0, f"n={n}: Kbar = {kc} <= 0 although eta > 0")
        if not _has_table(mode, "g"):
            # a spline g has g'(0) != 0, where the mode energy (and k_normalized) diverges
            c.gate(math.isfinite(kn) and kn * kc > 0.0, f"n={n}: k_normalized = {kn}")
        if str(int(n)) in ref:
            c.compare(f"Kbar n={n}", kc, ref[str(int(n))], 1e-8)


def _check_spectrum(c: Check, key, config, out: Path, refs):
    header, rows = read_csv(out / "spectrum.csv")
    params = config["params"]
    expect = [(n, m) for n in sorted(params["n_list"]) for m in range(1, params["m_max"] + 1)]
    c.gate(len(rows) == len(expect), f"{len(rows)} rows, expected {len(expect)}")
    for (n, m), (rn, rm, lam, t_star, est) in zip(expect, rows):
        c.gate((rn, rm) == (n, m), f"row ({rn}, {rm}), expected ({n}, {m})")
        c.compare(f"lambda n={n} m={m}", lam, refs["spectrum"][key][str(n)][m - 1], 1e-6)
        c.gate(abs(t_star - 2 * math.pi * lam / n) <= 1e-14 * t_star, f"t* n={n} m={m}")
        c.gate(0.0 <= est <= 1e-6, f"n={n} m={m}: error estimate {est:.2e}")


def _check_limit(c: Check, key, config, out: Path, refs):
    header, rows = read_csv(out / "limit.csv")
    n_list = config["params"]["n_list"]
    c.gate([int(n) for n in rows[:, 0]] == n_list, f"limit.csv n column {rows[:, 0]}")
    for i, (n, ratio, diff) in enumerate(rows):
        c.compare(f"lambda/n n={n}", ratio, refs["limit-study"][key][str(int(n))], 1e-6)
        want = float("nan") if i == 0 else ratio - rows[i - 1, 1]
        c.gate(np.isnan(diff) if i == 0 else abs(diff - want) <= 1e-15,
               f"n={n}: diff {diff}, expected {want}")


def _check_jacobi(c: Check, key, config, out: Path, refs):
    got = json.loads((out / "jacobi_residuals.json").read_text())
    ref = refs["jacobi"][key]
    params = config["params"]
    c.gate((got["n"], got["m"], got["phase"]) == (ref["n"], ref["m"], params["phase"]),
           f"jacobi n, m, phase = {got['n']}, {got['m']}, {got['phase']}")
    c.compare("jacobi lambda", got["lambda"], ref["lambda"], 1e-6)
    t_star = got["t_star"]
    c.gate(abs(t_star - 2 * math.pi * got["lambda"] / got["n"]) <= 1e-14 * t_star, "jacobi t*")
    c.gate(np.allclose(got["times"], [0.25 * t_star, 0.5 * t_star, 0.75 * t_star],
                       rtol=1e-14, atol=0.0), f"jacobi times {got['times']}")
    for name in ("swirl_transport", "stream_transport", "second_order", "flow_components"):
        value = got["residual_" + name]
        c.gate(0.0 <= value <= 1e-6, f"residual {name} = {value:.2e} > 1e-6")

    phi = np.asarray(ref["phi"])
    snap = phi.size
    r = np.repeat(np.linspace(1.0 / snap, 1.0, snap), 16)
    z = np.tile(2.0 * np.pi * np.arange(16) / 16, snap)
    n = got["n"]
    for idx, t in enumerate(got["times"]):
        theta = n * t / ref["lambda"]
        tfac = math.cos(theta) if params["phase"] == "cos" else math.sin(theta)
        for name in ("h", "j", "g", "f"):
            header, rows = read_csv(out / f"jacobi_{name}_t{idx}.csv")
            c.gate(header == ["r", "z", name] and rows.shape == (snap * 16, 3)
                   and np.all(np.isfinite(rows)), f"jacobi_{name}_t{idx}.csv malformed")
            if rows.shape != (snap * 16, 3):
                continue
            c.gate(np.array_equal(rows[:, 0], r) and np.allclose(rows[:, 1], z, rtol=0,
                                                                  atol=1e-15),
                   f"jacobi_{name}_t{idx}.csv grid")
            if name == "h":
                want = tfac * np.repeat(phi, 16) * np.cos(n * z)
                err = float(np.max(np.abs(rows[:, 2] - want)))
                c.compare(f"jacobi h t{idx}", err, 0.0, 1e-6, scale=float(np.max(np.abs(phi))))


def _check_oscillation(c: Check, key, config, out: Path, refs):
    header, rows = read_csv(out / "oscillation.csv")
    k_max = config["params"]["k_max"]
    c.gate([int(k) for k in rows[:, 0]] == list(range(1, k_max + 1)), "oscillation k column")
    ref = refs["oscillation-study"][key]
    for k, value in rows:
        c.compare(f"oscillation k={int(k)}", value, ref[int(k) - 1], 1e-8)


CHECKS = {
    "check-profile": _check_profile,
    "curvature": _check_curvature,
    "spectrum": _check_spectrum,
    "limit-study": _check_limit,
    "jacobi": _check_jacobi,
    "oscillation-study": _check_oscillation,
}


def check(command: str, key: str, config: dict, out_dir, refs: dict) -> Check:
    c = Check()
    try:
        CHECKS[command](c, key, config, Path(out_dir), refs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        c.errors.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return c
