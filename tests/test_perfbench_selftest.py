"""The benchmark's own tests pass from the checkout.

``perfbench/selftest.py`` checks that the reference rejects wrong answers,
that every metric named in ``BENCHMARK.json`` is printed, and that the
benchmark refuses to run without the pqsurf sources.  It runs here as it is
run by hand: in a fresh interpreter, from the root of the checkout, with no
``PYTHONPATH``, so that it finds ``src/`` by itself.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
