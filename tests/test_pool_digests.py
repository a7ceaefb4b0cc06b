"""The comparison behind ``tools/pool_digests.py --check``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from pool_digests import differences  # noqa: E402


def test_equal_digests_report_nothing():
    recorded = {"ring/r0/a.msfm": "1", "ring/r0/b.txt": "2"}
    assert differences(recorded, dict(recorded)) == []


def test_every_changed_missing_and_unrecorded_file_is_listed():
    recorded = {"ring/r0/a.msfm": "1", "ring/r0/b.txt": "2", "ring/r1/a.msfm": "3"}
    found = {"ring/r0/a.msfm": "9", "ring/r1/a.msfm": "3", "ring/r1/c.ply": "4"}
    assert differences(recorded, found) == [
        "differs ring/r0/a.msfm", "missing ring/r0/b.txt", "unrecorded ring/r1/c.ply"]
