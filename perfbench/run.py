"""Benchmark of matcascade's CLI pipelines; see perfbench/README.md.

    python3 perfbench/run.py --workload wide_walk --seed 1 --seconds 60 --trace 0

A run starts ``SETUPS - 1`` processes that only set up (``workload.py
--setup-only``) and then one round process that makes whole passes of
the workload's commands until ``--seconds`` are over (always at least
one pass).  It prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics of traced passes
with ``--trace 1``, each a median over the run's passes or set-ups.
Exits 2 without a result when the checkout holds no ``src/matcascade``,
and 1 when a process crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workload import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workload.py")
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170  # a run ends within 180 s even when a round hangs
SETUPS = 3  # set-ups per run, so setup_s is a median
# The speed of a shared VM drifts by up to half within minutes, and the
# program's times drift with it, so every time is scaled to the speed at
# which the calibration kernel (workload.calibrate) takes CALIB_REF_S.
CALIB_REF_S = 0.1
WORKLOADS = ("wide_walk", "exact_moments")
# one BLAS thread: the program multiplies 2x2 and 3x3 matrices, and idle
# BLAS threads would only contend for the machine's few cores
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_reuse", "_ratio")):
        return "ratio"
    return "count"


def spawn(workload, seed, args, timeout):
    """Run ``workload.py`` once; its result line, with ``setup_s`` from
    the spawn until its inputs were on disk, and ``calib`` the mean of the
    calibration times just before the spawn and just after the set-up."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *args]
    before = calibrate()
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[2:]} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["calib"] = (before + result["calib"]) / 2
    return result


def at_ref_speed(seconds, calib):
    return seconds * CALIB_REF_S / calib


def summarize(setups, passes, replicates, peak_rss_mb, trace):
    """setup_s is the median over the set-ups; wall_s and samples_per_s
    come from each command's median over the passes.  Their times are
    scaled to the reference speed; the per-layer ones are as measured."""
    def median(values):
        return statistics.median(list(values))

    if trace:
        return {name: {"value": median(p["layers"][name] for p in passes),
                       "unit": layer_unit(name)} for name in passes[0]["layers"]}

    def command_s(command):
        return median(at_ref_speed(x["seconds"], x["calib"]) for p in passes
                      for x in p["runs"] if x["command"] == command)

    commands = [x["command"] for x in passes[0]["runs"]]
    return {
        "setup_s": {"value": median(at_ref_speed(*s) for s in setups), "unit": "s"},
        "wall_s": {"value": sum(command_s(c) for c in commands), "unit": "s"},
        "samples_per_s": {"value": replicates / command_s("simulate"), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "matcascade", "cli.py")):
        print(f"error: no src/matcascade under {ROOT}", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    args_round = ["--dir", run_dir]
    if args.trace:
        trace_dir = os.path.join(OUT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args_round += ["--trace-dir", trace_dir]
    start = time.monotonic()
    try:
        setups = [spawn(args.workload, args.seed, ["--setup-only", "--dir", run_dir],
                        RUN_TIMEOUT_S) for _ in range(SETUPS - 1)]
        shutil.rmtree(run_dir, ignore_errors=True)
        result = spawn(args.workload, args.seed,
                       args_round + ["--until", repr(start + args.seconds)],
                       RUN_TIMEOUT_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = result["passes"]
    ops = [x for p in passes for x in p["runs"]]
    failed = [x for x in ops if "error" in x and not x.get("wrong")]
    wrong = [x for x in ops if x.get("wrong")]
    for x in failed + wrong:
        print(f"{x['command']}: {x['error']}", file=sys.stderr)
    calib = statistics.median(x["calib"] for x in ops)
    print(f"calibration kernel: median {calib:.4f} s over {len(passes)} passes, "
          f"reference {CALIB_REF_S} s", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": summarize([(r["setup_s"], r["calib"])
                                            for r in setups + [result]], passes,
                                           result["replicates"],
                                           result["peak_rss_mb"], args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
