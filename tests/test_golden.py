"""Every report of `tools/golden.py`'s commands against its frozen digest.

A change that alters a digest rewrites tests/data/golden.json with
`python3 tools/golden.py --write` and names each changed command and the
reason in CHANGES.md (see the README)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import golden


def test_every_command_matches_its_frozen_digests(tmp_path):
    want = json.loads(golden.TABLE.read_text())
    assert golden.changed(want, golden.run(tmp_path)) == []
