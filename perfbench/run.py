"""loopcybe benchmark: end-to-end and per-layer times of whole CLI operations.

    python3 perfbench/run.py --workload verify|census|tables --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.
Each operation is a fresh `python3 -m loopcybe.cli ...` process, started
one at a time from this process (a closed loop with one client), its output
written to a file and checked afterwards (checks.py).  Passes over the
workload's operations repeat while another pass still fits in S seconds;
at least one pass always runs.

Times are reported in reference units: each operation's seconds divided by
the seconds of reference.reference_loop(), timed in this process right
before and right after it.  Raw seconds are printed above the result line
for reference.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones: it
alternates an untraced pass with a traced pass, in which each operation runs
the CLI in a fresh process under perfbench/trace_op.py, which times the
public calls the CLI makes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads
from reference import REFERENCE_RESULT, reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 15
# The host's speed changes within a second (the reference loop takes from
# 0.015 s to 0.03 s), so each timed step is divided by the reference loop
# timed right before and right after it: each window lasts REF_SHARE of the
# step before it, and at least REF_FLOOR_S.  Longer windows do not help a
# long step: the E8 export (about 11 s) varied by 13 % over eight runs, and
# its ratio to loops timed for 1 s on either side varied as much.
REF_SHARE = 0.1
REF_FLOOR_S = 0.15
# setup_s is given in seconds at a fixed host speed: each cold start, in ref
# units, times REF_NOMINAL_S, the loop's time at this machine's usual speed.
# Raw set-up seconds moved by a third between quiet and busy minutes here.
# Never change it, for the same reason as the loop.
REF_NOMINAL_S = 0.02
OP_TIMEOUT_S = 170

LAYERS = ["chevalley.algebra_s", "loop.algebra_s", "loop.diagram_s", "tensors.r0_s",
          "bd.validate_s", "bd.twist_s", "tensors.cybe_s", "tensors.sampled_s",
          "bd.operators_s", "classify.automorphisms_s", "classify.unreachable_s",
          "classify.representatives_s", "bd.th_solve_s", "serialize.table_s",
          "serialize.dumps_s"]


def spawn(cmd: list, out_path: str, err_path: str, env: dict) -> tuple:
    """Run cmd to completion: (seconds, exit code, peak RSS in MB)."""
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def cold_start(env: dict) -> float:
    """Seconds from launching the interpreter until loopcybe.cli is imported."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", "import loopcybe.cli, time; "
                          "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=OP_TIMEOUT_S)
    return float(out.stdout) - t0


def time_reference() -> float:
    t0 = time.perf_counter()
    value = reference_loop()
    seconds = time.perf_counter() - t0
    if value != REFERENCE_RESULT:
        raise RuntimeError("reference loop returned %s" % value)
    return seconds


def reference_window(seconds: float) -> list:
    """Timings of the reference loop, repeated for at least `seconds`."""
    times = [time_reference(), time_reference()]
    while sum(times) < seconds:
        times.append(time_reference())
    return times


class LocalReference:
    """Reference-loop windows between timed steps, for ref-unit ratios."""

    def __init__(self):
        self.windows = [reference_window(REF_FLOOR_S)]

    def ratio(self, seconds: float) -> float:
        """`seconds` of the step just ended, in ref units."""
        self.windows.append(reference_window(max(REF_FLOOR_S, REF_SHARE * seconds)))
        return seconds / statistics.fmean(self.windows[-2] + self.windows[-1])

    def mean(self) -> float:
        return statistics.fmean(t for w in self.windows for t in w)


def read(path: str) -> str:
    """The file's text, or "" when the operation wrote none."""
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


class Runner:
    def __init__(self, ops: list, work: str, env: dict):
        self.ops, self.work, self.env = ops, work, env
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.op_seconds: dict = {op["name"]: [] for op in ops}

    def _paths(self, op: dict) -> tuple:
        base = os.path.join(self.work, "op_%02d" % op["index"])
        return base + ".out", base + ".err", base + ".op.json"

    def run_pass(self, traced: bool) -> dict:
        """One pass over the operations; returns its timings and layer sums.

        An untraced pass also returns each operation's time in ref units,
        against the reference windows on either side of it."""
        seconds, ratios, rss, results, work = [], [], [], [], []
        ref = None if traced else LocalReference()
        layers: dict = {}
        for op in self.ops:
            out, err, op_file = self._paths(op)
            if os.path.exists(out):
                os.remove(out)
            if traced:
                with open(op_file, "w") as fh:
                    json.dump(op, fh)
                cmd = [sys.executable, os.path.join(HERE, "trace_op.py"), op_file, out]
                dt, code, peak = spawn(cmd, out + ".trace", err, self.env)
                try:
                    trace = json.loads(read(out + ".trace").splitlines()[-1])
                except (IndexError, ValueError):
                    trace = {}        # the traced calls raised: the checks report it
                spans = trace.get("spans", {})
                dt -= spans.pop("check_s", 0.0)
                self.problems += ["%s: %s" % (op["name"], c) for c in trace.get("checks", [])]
                for name, value in spans.items():
                    layers[name] = layers.get(name, 0.0) + value
            else:
                cmd = [sys.executable, "-m", "loopcybe.cli"] + op["argv"]
                dt, code, peak = spawn(cmd, out, err, self.env)
            if ref:
                ratios.append(ref.ratio(dt))
                self.op_seconds[op["name"]].append(dt)
            seconds.append(dt)
            work.append(op["kind"] != "malformed")
            rss.append(peak)
            results.append((code, read(out), read(err)))
        failed, problems = checks.check_pass(self.ops, results)
        self.attempted += len(self.ops)
        self.failed += len(failed)
        self.problems += problems
        timings = {"wall_s": sum(seconds),
                   "op_p50_s": statistics.median(t for t, w in zip(seconds, work) if w),
                   "peak_rss_mb": max(rss), "layers": layers}
        if ref:
            timings.update(wall_ref=sum(ratios),
                           op_p50_ref=statistics.median(r for r, w in zip(ratios, work) if w),
                           ref_s=ref.mean())
        return timings


def median_of(passes: list, key) -> float:
    return statistics.median(key(p) for p in passes)


def measure(args, ops: list, work: str, env: dict) -> dict:
    runner = Runner(ops, work, env)
    cold_start(env)                                     # warm the bytecode cache
    ref = LocalReference()
    setup_raw, setup = [], []
    for _ in range(SETUP_STARTS):
        setup_raw.append(cold_start(env))
        setup.append(ref.ratio(setup_raw[-1]) * REF_NOMINAL_S)
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(runner.run_pass(traced=False))
        if args.trace:
            traced.append(runner.run_pass(traced=True))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
    print("ref_s %.5f  raw setup_s %.4f  wall_s %.3f  op_p50_s %.4f  passes %d"
          % (median_of(plain, lambda p: p["ref_s"]), statistics.median(setup_raw),
             median_of(plain, lambda p: p["wall_s"]),
             median_of(plain, lambda p: p["op_p50_s"]), len(plain)))
    for name, secs in runner.op_seconds.items():
        print("  %-34s %8.3f s" % (name, statistics.median(secs)))
    if args.trace:
        metrics = {name: {"value": median_of(traced, lambda p: p["layers"].get(name, 0.0)),
                          "unit": "s"} for name in LAYERS}
        metrics["serialize.out_bytes"] = {
            "value": median_of(traced, lambda p: p["layers"].get("serialize.out_bytes", 0)),
            "unit": "bytes"}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, lambda p: p["wall_s"]) - median_of(plain, lambda p: p["wall_s"]),
            "unit": "s"}
    else:
        metrics = {
            "wall_ref": {"value": median_of(plain, lambda p: p["wall_ref"]), "unit": "ref"},
            "op_p50_ref": {"value": median_of(plain, lambda p: p["op_p50_ref"]), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median_of(plain, lambda p: p["peak_rss_mb"]), "unit": "MB"},
        }
    for problem in runner.problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    return {"correct": not runner.problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "loopcybe", "cli.py")):
        print("no loopcybe sources under %s: run from the root of a checkout" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    # Load bytecode as an installed package does, whatever the caller's
    # environment says: the warm-up start writes src/**/__pycache__.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # The two CPUs of the machine differ in speed from second to second, so
    # this process and every operation it starts share one CPU: the reference
    # loop then runs at the speed the operations see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(HERE, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        result = measure(args, ops, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
