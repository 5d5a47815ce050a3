"""Every artifact of the benchmark's workloads keeps its bytes: the sha256 of
each, run in process, against the table ``make_artifact_hashes.py`` wrote."""

import json

import numpy as np

from make_artifact_hashes import TABLE, artifact_hashes, changes


def test_every_workload_artifact_is_byte_identical():
    table = json.loads(TABLE.read_text())
    moved = changes(table["sha256"], artifact_hashes())
    assert not any(moved.values()), (
        f"of {len(table['sha256'])} artifacts (table made under numpy {table['numpy']}, "
        f"now {np.__version__}): {moved}")
