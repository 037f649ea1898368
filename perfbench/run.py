"""End-to-end and per-layer benchmark of treealg's verification suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a fresh interpreter
(``child.py``) that imports ``treealg.suites`` from ``src/`` and calls
``run_suite``, the call ``treealg verify`` makes.  A fresh process per
repetition matters: the package's unbounded module-level ``lru_cache``s
would turn a second in-process repetition into a different, warm
program, while CLI users always start cold.  Work is single-threaded.

Repetitions run back to back (a closed loop with one client) until the
next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: ``wall_s`` (``run_suite`` plus the golden-output check;
interpreter start and import excluded), ``setup_s`` (interpreter start
plus ``import treealg.suites``, sampled by extra set-up-only processes
as well) and ``peak_rss_mb`` (peak resident memory of the repetition's
process, from ``os.wait4``).  ``fail_rate`` is printed by name and is
the ``failed``/``attempted`` pair of the result line.

The two times are in seconds at a fixed host speed.  On a shared host
the CPU's speed swings by up to 2x, within seconds and over minutes, so
the same code reads up to 2x slower from one run to the next.  Each
child therefore samples the host while it works with ``child.probe()``,
a fixed loop outside treealg, and each time a child measures is
multiplied by its ``host_scale``: ``PROBE_NOMINAL_S`` over the child's
mean probe time.  The probes' own time is taken out of ``wall_s``
first.  On an idle host the scale is close to 1 and the times are as
read from the clock.  Work that treealg saves or adds moves the scaled
times as it moves the clock, since the probe runs no treealg code.  The
unscaled medians and the median scale are printed as ``raw_wall_s``,
``raw_setup_s`` and ``host_scale``.

``--trace 1`` alternates an untraced and a traced repetition and
reports the per-layer metrics of ``tracer.py`` (medians over the traced
repetitions), the tracing overhead (median traced ``wall_s`` minus
median untraced ``wall_s``, both scaled by the untraced repetitions'
median ``host_scale``, as traced repetitions run no probe) and every
cache's ``cache_info()``.  It also checks the tracer: each layer mapped
to the workload must show work, and the traced result must equal the
golden one.

Every result is compared with ``golden.json``, the exact output of each
``run_suite`` call at the commit that introduced the benchmark.  A
mismatch, crash or timeout is a failed repetition and makes the exit
status 1.  The workloads are exhaustive and deterministic: ``--seed`` is
recorded but changes no input.  Names and units of the metrics come
from ``BENCHMARK.json`` at the repository root.  The last line of
stdout is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# workload -> (suite, bound, why it is here)
WORKLOADS = {
    "envelope-trivial": (
        "envelope-trivial",
        4,
        "read-heavy linalg: EchelonSpan.reduce_exact dominates via verify_coideal",
    ),
    "zin-closure": (
        "zin-quotient",
        4,
        "write-heavy linalg: operads.ideal_closure inserts, to_int_row and reduce_row",
    ),
    "tree-axioms": (
        "axioms",
        6,
        "pure element arithmetic and the tree-product caches, no elimination",
    ),
    "harvest-roundtrip": (
        "cmm",
        5,
        "envelope layer: brute-force tuple enumeration in harvest and roundtrip",
    ),
}

# Traced metrics that must be nonzero on each workload: the layers the
# workload is meant to exercise.  A wrapper that misses a binding shows
# here as a zero.
EXPECTED = {
    "envelope-trivial": [
        "linalg.reduce_exact.calls",
        "linalg.rref_rows.calls",
        "linalg.kernel_basis.calls",
        "linalg.row_density",
        "dendriform.saturate.calls",
        "bialgebra.coproduct.calls",
        "bialgebra.delta_cache.size",
        "envelope.build_envelope.calls",
        "envelope.verify_coideal.calls",
        "envelope.envelope_primitives.calls",
        "envelope.reduce.calls",
    ],
    "zin-closure": [
        "linalg.insert.calls",
        "linalg.to_int_row.calls",
        "linalg.row_density",
        "kernel.reduce_row.calls",
        "kernel.rref.calls",
        "dendriform.eval_pbt.calls",
        "operads.ideal_closure.calls",
        "operads.graft.calls",
        "operads.closure_inserts",
        "words.zin_eval.calls",
    ],
    "tree-axioms": [
        "linalg.lincomb.calls",
        "dendriform.products.calls",
        "dendriform.tree_cache.size",
        "trees.basis.calls",
    ],
    "harvest-roundtrip": [
        "envelope.relation_generators.calls",
        "envelope.relation_generators.kept_ratio",
        "envelope.harvest_brace.calls",
        "envelope.theta_roundtrip.calls",
    ],
}

SETUP_SAMPLES = 15  # set-up-only processes per run, besides the repetitions
# about the mean time of child.probe() on an idle host (Intel Xeon, 2 vCPUs,
# Python 3.11); a fixed constant, so only the ratio of scaled times matters
PROBE_NOMINAL_S = 0.0005
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this


class ChildError(Exception):
    pass


def spawn(args, timeout):
    """Run child.py with args; return (its JSON line, set-up seconds,
    peak RSS in MB)."""
    # a fixed hash seed makes every repetition iterate string-keyed sets and
    # dicts in the same order, so each one runs the same program
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildError(
            "child exited with status %d after %.1f s" % (proc.returncode, time.perf_counter() - t0)
        )
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildError("child printed nothing")
    info = json.loads(lines[-1])
    src = (ROOT / "src" / "treealg").resolve()
    if Path(info["treealg"]).resolve().parent != src:
        raise ChildError("treealg imported from %s, not %s" % (info["treealg"], src))
    return info, info["ready"] - t0, usage.ru_maxrss / 1024.0


def host_scale(info):
    """PROBE_NOMINAL_S over the child's mean probe time: the factor that
    turns its times into seconds at the nominal host speed."""
    return PROBE_NOMINAL_S * info["probe_n"] / info["probe_s"]


def environment(seed, child_info):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": child_info["python"],
        "kernel_backend": child_info["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "seed": seed,
        "seed_note": "workloads are exhaustive and deterministic; the seed changes no input",
    }


def run(workload, seconds, trace):
    suite, bound, _ = WORKLOADS[workload]
    golden = str(HERE / "golden.json")
    start = time.perf_counter()

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - start))

    # warm-up, untimed: fills the file cache (and the bytecode cache where
    # the interpreter writes one) before anything is timed
    first, _, _ = spawn(["--setup-only"], remaining())
    setups = []  # (seconds, child info)
    for _ in range(0 if trace else SETUP_SAMPLES):
        info, setup, _ = spawn(["--setup-only"], remaining())
        setups.append((setup, info))
    modes = ("0", "1") if trace else ("0",)
    reps = {m: [] for m in modes}  # mode -> [(info, rss)]
    attempted = failed = 0
    problems = []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            attempted += 1
            try:
                info, setup, rss = spawn([suite, str(bound), golden, workload, mode], remaining())
            except (ChildError, ValueError, KeyError) as exc:
                failed += 1
                problems.append("%s repetition failed: %s" % ("traced" if mode == "1" else "untraced", exc))
                continue
            bad = [] if info["matches_golden"] else ["result differs from golden: %s" % json.dumps(info["result"])]
            if mode == "1":
                bad += tracer_problems(workload, info)
            if bad:
                failed += 1
                problems.extend(bad)
                continue
            setups.append((setup, info))
            reps[mode].append((info, rss))
        now = time.perf_counter()
        took = now - round_start
        if failed or now - measure_start + took > seconds or now - start + took > RUN_LIMIT_S:
            break
    return first, setups, reps, attempted, failed, problems


def tracer_problems(workload, info):
    layers = info["layers"]
    out = ["tracer: %s is zero on %s" % (name, workload) for name in EXPECTED[workload] if not layers[name]]
    if info["kept_mismatch"]:
        out.append("tracer: kept-tuple count disagrees with relation_generators")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treealg" / "suites.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("run from the repository root: src/treealg and BENCHMARK.json are needed", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        first, setups, reps, attempted, failed, problems = run(args.workload, args.seconds, args.trace)
    except ChildError as exc:
        print("set-up failed: %s" % exc, file=sys.stderr)
        return 2

    suite, bound, why = WORKLOADS[args.workload]
    print("workload %s: run_suite(%r, %d) -- %s" % (args.workload, suite, bound, why))
    print("environment: %s" % json.dumps(environment(args.seed, first)))
    for p in problems:
        print("FAILED %s" % p)
    untraced = reps["0"]
    if not untraced or (args.trace and not reps["1"]):
        print("no successful repetition", file=sys.stderr)
        return 1
    walls = [info["wall_s"] - info["probe_s"] for info, _ in untraced]
    wall_scales = [host_scale(info) for info, _ in untraced]
    # traced children run no probe; their set-up is not reported
    setup_times = [setup for setup, info in setups if info["probe_n"]]
    setup_scales = [host_scale(info) for _, info in setups if info["probe_n"]]
    values = {}
    if args.trace:
        traced = [info for info, _ in reps["1"]]
        for name in traced[0]["layers"]:
            values[name] = statistics.median(info["layers"][name] for info in traced)
        values["trace.overhead_s"] = statistics.median(wall_scales) * (
            statistics.median(i["wall_s"] for i in traced) - statistics.median(walls)
        )
        print("caches: %s" % json.dumps(traced[-1]["caches"], sort_keys=True))
        wanted = spec["per_layer"]
    else:
        values["wall_s"] = statistics.median(w * k for w, k in zip(walls, wall_scales))
        values["setup_s"] = statistics.median(t * k for t, k in zip(setup_times, setup_scales))
        values["peak_rss_mb"] = statistics.median(rss for _, rss in untraced)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    samples = {
        "raw_wall_s": walls,
        "raw_setup_s": setup_times,
        "raw_traced_wall_s": [info["wall_s"] for info, _ in reps.get("1", ())],
    }
    for name, m in metrics.items():
        print("%-45s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-45s %14.6g s" % ("raw_wall_s", statistics.median(walls)))
    if setup_times:
        print("%-45s %14.6g s" % ("raw_setup_s", statistics.median(setup_times)))
    print("%-45s %14.6g (median of %d repetitions)" % ("host_scale", statistics.median(wall_scales), len(walls)))
    print("%-45s %14.6g ratio (%d failed of %d attempted)" % ("fail_rate", failed / attempted, failed, attempted))
    print("samples: %s" % json.dumps(samples))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
