"""One whole pass of each benchmark workload agrees with the benchmark's oracle.

``benchmark/run.py`` checks every result against ``benchmark/oracle.py``;
at ``--seconds 0`` a run makes exactly one pass.  A change to ``src/`` that
breaks an oracle check fails here.  The runs write no bytecode.  The
in-process workloads only read the benchmark directory; the ``cli-jobs``
pass, one fresh ``gsrep.cli`` interpreter per job, also drives
``--cache-dir``: it writes its irrep cache under ``benchmark/out/``, which
is gitignored, and removes it at the end of the pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["analyze-irreducible", "analyze-reducible", "irrep-build", "cli-jobs"])
def test_one_benchmark_pass_is_correct(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
