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


def test_tracer_installs_and_traces_one_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"poly": [1.0]},
                               "params": {"n": 1, "m": 1, "grid": 256, "eval_grid": 16,
                                          "snapshot_grid": 4}}))
    path = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, "jacobi", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["jacobi.sl_spectrum.calls"] == 1
    assert metrics["jacobi.eigensolves"] >= 2 and metrics["radial.calls"] > 0
    assert metrics["jacobi.jacobi_residuals.s"] > 0.0
