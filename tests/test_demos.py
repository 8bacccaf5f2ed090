"""The demo scripts run and print what they printed when their digests were recorded.

Each demo runs in a fresh interpreter from a temporary directory, and the
sha256 of its stdout is compared with the recorded one. Demo 04 is left out:
it takes several seconds, and the harness tests already cover the
``sandwich_report`` it prints.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_kernels_and_disorder.py": "45f19908fecf0e1cb1278e1001920aa7adf3a3f69b6d3e573979dda181dd95ed",
    "02_duality_check.py": "9911bc7d8df45e2c0b26319fee98fa37644b6837ff8497ae90a24fd69f8b5238",
    "03_range_functional.py": "47a14d88dd6faa261303a36dec986097b76fff79837e7a08f73ad64292655a33",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_is_pinned(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo], proc.stdout.decode()
