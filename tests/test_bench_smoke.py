"""One round of each benchmark workload, run as the benchmark runs it.

``bench/run.py`` imports, calls and patches names of the package (the
split's fields, ``train``, ``suite.uncertainty_records`` and more), so a
change that breaks one of them fails here, not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train-small-batch", "train-large-batch",
                                      "suite-short"])
def test_bench_workload_round_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
