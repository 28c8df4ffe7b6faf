"""The bench's seed 3 `--tiny` output digests, pinned.

Each workload hashes every verdict, report, serialized spec and SVG it
produces, so a change that alters one output byte fails here.  A change
that alters outputs on purpose updates the pin and says so.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {
    "sweep": "f8923d9f4b5148258917e33e601f82e5087157ade55f1e5a1074d00c86229b9d",
    "cli": "41e269cb4a72ed3c8cbedc12028709a6fe0227475a3434c81b760be5bef6dc03",
    "fractal3": "e608c9e794c3ceb260d52509aa01060a8e222af7228630888840bf14a5abdf3e",
}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_tiny_run_digest(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"digest {workload} seed=3 sha256={DIGESTS[workload]}" in proc.stdout.splitlines()
