"""Every artifact of the benchmark's workloads keeps its bytes: the sha256 of
each, run in process, against the table ``make_artifact_hashes.py`` wrote."""

import json

import numpy as np

from make_artifact_hashes import TABLE, artifact_hashes


def test_every_workload_artifact_is_byte_identical():
    table = json.loads(TABLE.read_text())
    now = artifact_hashes()
    moved = sorted(k for k in table["sha256"].keys() | now.keys()
                   if table["sha256"].get(k) != now.get(k))
    assert not moved, (f"{len(moved)} of {len(table['sha256'])} artifacts moved "
                       f"(table made under numpy {table['numpy']}, now {np.__version__}): "
                       + ", ".join(moved))
