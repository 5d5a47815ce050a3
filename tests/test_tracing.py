"""The benchmark tracer (``bench/tracing.py``) rebinds package names it looks up
by ``getattr``; renaming or deleting one of them must fail this test, not only
a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import swirlcurv.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
code = swirlcurv.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""


def _traced(tmp_path, command, config):
    """The metrics of one traced ``command`` run, which must exit 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    path = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, command, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stderr
    return result["metrics"]


def test_tracer_installs_and_traces_one_command(tmp_path):
    metrics = _traced(tmp_path, "jacobi", {"profile": {"poly": [1.0]},
                                           "params": {"n": 1, "m": 1}})
    assert metrics["jacobi.sl_spectrum.calls"] == 1
    assert metrics["jacobi.sl_spectrum.s"] > 0.0 and metrics["radial.calls"] > 0
    assert metrics["jacobi.jacobi_residuals.s"] > 0.0


def test_tracer_traces_the_quadrature_and_the_pressure_solve(tmp_path):
    # the tracer calls quad_real(fn, a, b, ...) positionally; a signature it
    # does not meet exits 1 here
    metrics = _traced(tmp_path, "curvature", {
        "profile": {"poly": [1.0, 0.0, 1.0]},
        "modes": [{"n": 3, "g": {"poly": [0, 0, 1, -1]}, "f": {"poly": [0, 1, -1]}}]})
    assert metrics["quadrature.calls"] > 0
    assert metrics["curvature.pressure_bvp_solve.grid_points"] > 0
