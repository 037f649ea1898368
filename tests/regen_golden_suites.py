"""Regenerate tests/golden_suites.json, the exact output of every suite.

    PYTHONPATH=src python3 tests/regen_golden_suites.py

The record holds every suite from its smallest to its default bound,
plus the EXTRA runs below, keyed "suite bound" so that a new default
bound adds entries and rewrites none.  tests/test_golden.py compares
each entry with a fresh run_suite.  A change meant to alter output
regenerates the file and names each changed key.
"""

import json
from pathlib import Path

from treealg.suites import SUITES, run_suite

RECORD = Path(__file__).resolve().parent / "golden_suites.json"

# one bound past the default, where that still runs in well under a second
EXTRA = [("cmm", 5), ("envelope-free", 5), ("axioms", 6)]


def cases():
    """The (suite, bound) pairs of the record, in run order."""
    out = [(name, b) for name, (_, default, smallest) in SUITES.items() for b in range(smallest, default + 1)]
    return out + EXTRA


def key(suite, bound):
    return "%s %d" % (suite, bound)


def main():
    record = {key(s, b): run_suite(s, b) for s, b in cases()}
    RECORD.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print("wrote %d entries to %s" % (len(record), RECORD))


if __name__ == "__main__":
    main()
