"""The sha256 of every artifact of the benchmark's workloads, and the table of them.

    PYTHONPATH=src python tests/make_artifact_hashes.py

runs every invocation of the three workloads of ``bench/workloads.py`` at
seeds 1409 and 2718 through ``swirlcurv.cli.main`` in this process and writes
``tests/data/artifact_sha256.json``: one sha256 per (workload, seed,
invocation, artifact), and the numpy version the table was made under.
``test_artifact_hashes.py`` runs the same invocations and compares, so a
change that moves any byte of an artifact must regenerate the table and say
why; the script prints every key whose hash moved, appeared or vanished.  The bytes depend on numpy and on the platform's floating point too: a
mismatch under another numpy version may be the environment, not the code.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "artifact_sha256.json"
SEEDS = (1409, 2718)

sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

from swirlcurv.cli import main  # noqa: E402


def artifact_hashes() -> dict:
    """``{"<workload>/<seed>/<index>-<command>/<artifact>": sha256}`` of one run."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for i, (_, command, config) in enumerate(workloads.invocations(workload, seed)):
                    key = f"{workload}/{seed}/{i}-{command}"
                    cfg, out = Path(tmp) / f"{i}.json", Path(tmp) / key
                    cfg.write_text(json.dumps(config))
                    code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
                    if code:
                        raise RuntimeError(f"{key} exited {code}")
                    hashes.update((f"{key}/{p.name}", hashlib.sha256(p.read_bytes()).hexdigest())
                                  for p in sorted(out.iterdir()))
    return hashes


def changes(old: dict, new: dict) -> dict:
    """The keys whose hash moved, appeared or vanished from ``old`` to ``new``."""
    return {"moved": sorted(k for k in old.keys() & new.keys() if old[k] != new[k]),
            "appeared": sorted(new.keys() - old.keys()),
            "vanished": sorted(old.keys() - new.keys())}


if __name__ == "__main__":
    old = json.loads(TABLE.read_text())["sha256"] if TABLE.exists() else {}
    new = artifact_hashes()
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps({"numpy": np.__version__, "sha256": new},
                                indent=1, sort_keys=True) + "\n")
    for change, keys in changes(old, new).items():
        print(f"{len(keys)} {change}", *keys, sep="\n  ")
    print(f"wrote {TABLE}")
