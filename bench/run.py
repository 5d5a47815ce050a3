"""swirlcurv benchmark: CLI workloads, checked against references, with per-layer tracing.

    python3 bench/run.py --workload curvature_table --seed 1409 --seconds 25 --trace 0

Run from anywhere inside a checkout; it imports swirlcurv from the checkout's
``src/`` and nothing else.  Each run

1. writes the workload's JSON configs (``workloads.py``, seeded by ``--seed``);
2. times set-up: fresh worker processes that only import ``swirlcurv.cli``
   (one warm-up, then ``SETUP_SAMPLES``), each after a run of the probe task
   (``probe.py``);
3. starts one fresh worker that runs passes over the invocations in a closed
   loop with one client, single-threaded (BLAS pinned to 1 thread,
   ``SWIRLCURV_THREADS`` unset), for ``--seconds`` and at least three passes;
   with ``--trace 1`` it runs untraced for half the time, then two traced passes;
4. checks every artifact: the first pass against ``references.json``
   (``checks.py``), every later pass and the previous run of the same code
   and seed byte for byte (sha256);
5. prints the environment, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``): ``norm_wall_s``, ``setup_s``,
``peak_rss_mb`` (worker ``ru_maxrss``), ``ok_frac`` (share of
invocations that exit 0 and pass every check) and ``ref_digits`` (smallest
number of correct significant digits over the reference comparisons, capped
at 12).  The two times are rescaled by the speed of the machine while they
were taken: times ``PROBE_S`` over the mean time of the probe task,
which runs before every invocation and every set-up sample.  On a shared
machine raw times drift by tens of percent from minute to minute, and the
ratio cancels most of that drift.  ``norm_wall_s`` is the median over passes
of the rescaled pass time, ``setup_s`` the rescaled median set-up sample.
Raw times are printed and kept in the record.  Per-layer metrics
(``--trace 1``) come from ``tracing.py``.

Records go to ``.bench_results/<workload>-seed<seed>-trace<0|1>.json``; scratch files to
``.bench_run/``, removed at the end.  Exit status is 0 with a result, 1 when
the run cannot complete and 2 when the checkout has no swirlcurv sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
import workloads
from probe import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "swirlcurv"
SETUP_SAMPLES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0     # a run must end within 180 s
PROBE_S = 0.025         # nominal seconds of probe(), the unit of the rescaled times
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"peak_rss_mb": "MB", "ok_frac": "ratio", "ref_digits": "digits",
         "cli.artifact_bytes": "bytes"}


class BenchError(Exception):
    """The run could not complete; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SWIRLCURV_THREADS", None)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def start_worker(args: list, log: Path):
    """Start a worker; returns it and the seconds until it had imported swirlcurv.cli."""
    start = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    imported = line.split(" ", 1)[1].strip() if line.startswith("imported ") else None
    if imported is None or Path(imported).resolve() != (PACKAGE / "cli.py").resolve():
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not import {PACKAGE / 'cli.py'} (got {line.strip()!r}); "
                         f"see {log}: {log.read_text()[-2000:]}")
    return proc, setup


def finish(proc, deadline: float, log: Path) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {log.read_text()[-2000:]}")


def code_digest() -> str:
    h = hashlib.sha256()
    files = sorted(PACKAGE.rglob("*.py")) + sorted(BENCH.glob("*.py"))
    files.append(BENCH / "references.json")
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            model = next((ln.split(":", 1)[1].strip() for ln in info
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    env = worker_env()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "blas_threads": {var: env[var] for var in BLAS_VARS}}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio" if metric.endswith(("ratio", "frac")) else "count"


def median(values) -> float:
    return float(statistics.median(values))


def run(args, run_dir: Path, refs: dict) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    invocations = workloads.invocations(args.workload, args.seed, toy=args.toy)
    (run_dir / "cfg").mkdir(parents=True)
    log = run_dir / "worker.log"
    plan_invocations = []
    for i, (key, command, config) in enumerate(invocations):
        path = run_dir / "cfg" / f"{i}-{key}-{command}.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        plan_invocations.append({"command": command, "config": str(path)})

    setup, setup_probes = [], []
    if not args.trace:
        for _ in range(1 + SETUP_SAMPLES):      # the first start also compiles bytecode
            setup_probes.append(probe())
            proc, seconds = start_worker(["--import-only"], log)
            finish(proc, deadline, log)
            setup.append(seconds)

    plan = {"invocations": plan_invocations, "out": str(run_dir / "out"),
            "result": str(run_dir / "result.json"), "trace": bool(args.trace),
            "seconds": args.seconds / 2 if args.trace else args.seconds,
            "min_passes": 1 if args.trace or args.toy else MIN_PASSES}
    (run_dir / "plan.json").write_text(json.dumps(plan))
    proc, _ = start_worker([str(run_dir / "plan.json")], log)
    finish(proc, deadline, log)
    result = json.loads((run_dir / "result.json").read_text())

    # the first pass is checked against the references; every other pass, and the
    # previous run of the same code and seed, must reproduce its bytes
    first = result["passes"][0]
    verdicts = []
    for i, (key, command, config) in enumerate(invocations):
        c = checks.check(command, key, config, run_dir / "out" / "pass0" / str(i), refs)
        if first["codes"][i] != 0:
            c.errors.append(f"exit status {first['codes'][i]}")
        verdicts.append(c)

    record_path = ROOT / ".bench_results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json")
    digest = code_digest()
    previous = None
    if record_path.is_file():
        previous = json.loads(record_path.read_text())
        if previous.get("code") == digest:
            for c, before, now in zip(verdicts, previous["artifacts"], first["artifacts"]):
                c.gate(before == now, "artifacts differ from the previous run of this seed")
        else:
            previous = None

    all_passes = result["passes"] + result["traced"]
    attempted = failed = 0
    for p in all_passes:
        for i, c in enumerate(verdicts):
            attempted += 1
            ok = c.ok and p["codes"][i] == 0 and p["artifacts"][i] == first["artifacts"][i]
            failed += not ok
    errors = [f"{invocations[i][1]} {invocations[i][0]}: {e}"
              for i, c in enumerate(verdicts) for e in c.errors]
    if any(p["artifacts"] != first["artifacts"] for p in all_passes):
        errors.append("artifact bytes differ between passes")

    digits = [d for c in verdicts for d in c.digits]
    wall = [sum(p["times"]) for p in result["passes"]]
    if args.trace:
        layers = [p["layers"] for p in result["traced"]]
        # times are medians; counts must not vary, so the first pass gives them
        metrics = {name: value if isinstance(value, int) else median([lay[name] for lay in layers])
                   for name, value in layers[0].items()}
        for name in tracing.EXACT_COUNTS:
            if len({lay[name] for lay in layers}) != 1:
                errors.append(f"{name} differs between traced passes: "
                              f"{[lay[name] for lay in layers]}")
            before = (previous or {}).get("metrics", {}).get(name)
            if before is not None and before != metrics[name]:
                errors.append(f"{name} = {metrics[name]}, previous traced run {before}")
        traced_wall = median([sum(p["times"]) for p in result["traced"]])
        metrics["trace.overhead_frac"] = traced_wall / median(wall) - 1.0
    else:
        metrics = {
            "norm_wall_s": median([sum(p["times"]) * PROBE_S / statistics.mean(p["probes"])
                                   for p in result["passes"]]),
            "setup_s": median(setup[1:]) * PROBE_S / statistics.mean(setup_probes[1:]),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "ref_digits": min(digits) if digits else 0.0,
        }

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "code": digest, "environment": environment(),
              "artifacts": first["artifacts"], "pass_times": wall, "setup_samples": setup,
              "setup_probe_times": setup_probes,
              "invocation_times": [p["times"] for p in result["passes"]],
              "probe_times": [p["probes"] for p in result["passes"]],
              "metrics": metrics, "errors": errors}
    record_path.parent.mkdir(exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "errors": errors, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="a small subset of the workload, one untraced pass (smoke test)")
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"no swirlcurv sources at {PACKAGE}", file=sys.stderr)
        return 2

    refs = json.loads((BENCH / "references.json").read_text())
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        out = run(args, run_dir, refs)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = out["record"]
    print("environment:", json.dumps(record["environment"], sort_keys=True))
    print("pass times (s):", " ".join(f"{t:.4f}" for t in record["pass_times"]))
    print("set-up times (s):", " ".join(f"{t:.4f}" for t in record["setup_samples"]))
    for line in out["errors"][:20]:
        print("check failed:", line)
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
