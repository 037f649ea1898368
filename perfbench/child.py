"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py SUITE BOUND GOLDEN_JSON WORKLOAD TRACE
    python3 perfbench/child.py --setup-only

Imports ``treealg.suites`` first, so the parent can time interpreter
start plus import.  Then it runs ``run_suite(SUITE, BOUND)`` and
compares the result with the golden one stored under WORKLOAD; both
are inside ``wall_s``.  With TRACE=1 the tracer is installed before the
call.  The last line of stdout is one JSON object.

Host probe: the speed of a shared host's CPU swings by up to 2x within
seconds, so an untraced repetition samples it while it runs.  A timer
signal every PROBE_PERIOD_S interrupts ``run_suite`` to time ``probe()``,
a fixed piece of pure-Python work, with the garbage collector paused.
The child reports the number of probes and their total
time; the parent subtracts that time from ``wall_s`` and scales the
child's times by its mean probe time.  A set-up-only child runs
PROBE_SETUP_COUNT probes after its import.
"""

import signal
import sys
import time

import treealg.suites  # timed as set-up by the parent

READY = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from itertools import product  # noqa: E402

from treealg import _kernel  # noqa: E402

PROBE_PERIOD_S = 0.025
PROBE_SETUP_COUNT = 40
_KEYS = [(i * 7919) % 1009 for i in range(2000)]
_TABLE = {k: (k * 40503) & 0xFFFF for k in range(1009)}
_WEIGHTS = [1, 2, 2, 3, 3, 3]
_probes = []


def probe(keys=_KEYS, table=_TABLE, weights=_WEIGHTS):
    """Fixed work in three kinds of code treealg's hot loops are made
    of: dict lookups and branches, tuple enumeration with a generator
    expression, and integer arithmetic.  A mix, because host contention
    slows each kind by a different factor."""
    bit = 0
    for k in keys:
        if table[k] & 1:
            bit ^= 1
    for t in product(range(6), repeat=3):
        if weights[t[0]] + sum(weights[j] for j in t[1:]) > 7:
            bit ^= 1
    x = 1
    for _ in range(300):
        x = (x * 1103515245 + 12345) % 2147483647
        bit ^= x & 1
    return bit


def timed_probe(signum=None, frame=None):
    # no collection inside the probe: it would scan the workload's objects
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    probe()
    _probes.append(time.perf_counter() - t0)
    if collecting:
        gc.enable()


def canonical(obj):
    """The result as it reads after a JSON round trip (int keys become
    strings, tuples lists), which is how the golden file stores it."""
    return json.loads(json.dumps(obj, sort_keys=True))


def main(argv):
    info = {
        "ready": READY,
        "treealg": treealg.__file__,
        "python": platform.python_version(),
        "backend": _kernel.BACKEND,
    }
    if argv == ["--setup-only"]:
        for _ in range(PROBE_SETUP_COUNT):
            timed_probe()
        info["probe_n"], info["probe_s"] = len(_probes), sum(_probes)
        print(json.dumps(info))
        return 0
    suite, bound, golden_path, workload, trace = argv
    with open(golden_path) as fh:
        golden = json.load(fh)[workload]
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        # probes would add to the tracer's self times; traced repetitions
        # are scaled by the untraced ones' probes instead
        signal.signal(signal.SIGALRM, timed_probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    result = treealg.suites.run_suite(suite, int(bound))
    matches = canonical(result) == golden
    info["wall_s"] = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    info["probe_n"], info["probe_s"] = len(_probes), sum(_probes)
    info["matches_golden"] = matches
    if not matches:
        info["result"] = canonical(result)
    if tracer is not None:
        info["layers"], info["caches"] = tracer.metrics()
        info["kept_mismatch"] = tracer.count["kept_mismatch"]
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
