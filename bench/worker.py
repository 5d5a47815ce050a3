"""One fresh benchmark process: import swirlcurv, then run CLI passes.

    python3 bench/worker.py --import-only
    python3 bench/worker.py PLAN.json

It prints ``imported <path of swirlcurv>`` as soon as ``swirlcurv.cli`` is
imported, so the parent can time set-up and check which copy was imported.
With a plan it runs passes over the plan's invocations in a closed loop, one
client: each ``swirlcurv.cli.main(argv)`` starts when the previous returns,
after an untimed run of the fixed ``probe`` task.
Untraced passes run until ``seconds`` have passed (at least ``min_passes``);
with ``trace`` set, the process then installs the tracer and runs two traced
passes.  Artifacts are hashed after each pass, outside the timed region; only
the first pass's files are kept, for the reference checks.  The result goes
to the plan's ``result`` file as JSON.
"""

import swirlcurv.cli  # first statement: set-up time ends here

import sys

print("imported", swirlcurv.cli.__file__, flush=True)
if sys.argv[1:] == ["--import-only"]:
    sys.exit(0)

import gc
import hashlib
import json
import resource
import shutil
import time
from pathlib import Path

import tracing
from probe import probe


def artifacts(out: Path) -> dict:
    return {p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                     "bytes": p.stat().st_size}
            for p in sorted(out.iterdir())}


def run_pass(plan: dict, index: int, tracer=None) -> dict:
    base = Path(plan["out"]) / f"pass{index}"
    codes, times, probes, files = [], [], [], []
    if tracer is not None:
        tracer.reset()
    for i, inv in enumerate(plan["invocations"]):
        probes.append(probe())
        out = base / str(i)
        argv = [inv["command"], "--config", inv["config"], "--out", str(out), "--quiet"]
        start = time.perf_counter()
        code = swirlcurv.cli.main(argv)
        times.append(time.perf_counter() - start)
        codes.append(code)
    for i in range(len(plan["invocations"])):
        out = base / str(i)
        files.append(artifacts(out) if out.is_dir() else {})
    if index > 0:
        shutil.rmtree(base, ignore_errors=True)
    result = {"codes": codes, "times": times, "probes": probes, "artifacts": files}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.artifact_bytes"] = sum(
            a["bytes"] for inv in files for a in inv.values())
    gc.collect()
    return result


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    passes = []
    start = time.perf_counter()
    while len(passes) < plan["min_passes"] or time.perf_counter() - start < plan["seconds"]:
        passes.append(run_pass(plan, len(passes)))
    traced = []
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = [run_pass(plan, len(passes) + i, tracer) for i in range(2)]
    result = {
        "passes": passes,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
