"""The benchmark's golden outputs, checked in tier-1.

perfbench/golden.json holds the exact run_suite output of each
benchmark workload, and each is recomputed here.  Three reach the span
layer (saturation, ideal closure, kernels and reduction); tree-axioms
is the only one that exercises the tree products without elimination.
So a wrong quotient or a wrong product fails the tests and not first
the benchmark.  The file is only read.
"""

import json
from pathlib import Path

import pytest

from treealg.suites import run_suite

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def canonical(obj):
    """The result as it reads after a JSON round trip, as stored."""
    return json.loads(json.dumps(obj, sort_keys=True))


@pytest.mark.parametrize("workload", ["envelope-trivial", "zin-closure", "tree-axioms", "harvest-roundtrip"])
def test_run_suite_matches_golden(workload):
    golden = json.loads(GOLDEN.read_text())[workload]
    assert canonical(run_suite(golden["suite"], golden["bound"])) == golden
