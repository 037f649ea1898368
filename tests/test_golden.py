"""The suites' golden outputs, checked in tier-1.

tests/golden_suites.json holds the output of every suite from its
smallest to its default bound and a few runs beyond; one test reruns
them all, and tests/regen_golden_suites.py rewrites it.

perfbench/golden.json holds the exact run_suite output of each
benchmark workload.  Each is an entry of the record, so the second test
compares the two files and runs nothing: a wrong quotient or a wrong
product fails the first test and not first the benchmark, and a record
regenerated without the benchmark's golden fails the second.  That file
is only read.
"""

import json
from pathlib import Path

from regen_golden_suites import RECORD, cases, key
from treealg.suites import run_suite

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def canonical(obj):
    """The result as it reads after a JSON round trip, as stored."""
    return json.loads(json.dumps(obj, sort_keys=True))


def test_every_suite_matches_its_golden_record():
    golden = json.loads(RECORD.read_text())
    assert sorted(golden) == sorted(key(s, b) for s, b in cases())
    moved = [key(s, b) for s, b in cases() if canonical(run_suite(s, b)) != golden[key(s, b)]]
    assert moved == []


def test_benchmark_golden_is_in_the_record():
    golden = json.loads(GOLDEN.read_text())
    record = json.loads(RECORD.read_text())
    assert sorted(golden) == ["envelope-trivial", "harvest-roundtrip", "tree-axioms", "zin-closure"]
    for workload, want in golden.items():
        assert record[key(want["suite"], want["bound"])] == want, workload
