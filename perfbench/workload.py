"""One round of a workload, in a fresh process.

A round imports ``matcascade.cli`` once, writes the first pass's input
files, and then makes passes until ``--until``: each pass writes its own input files (``inputs.generate``
with the pass's index), runs the workload's CLI commands one after the
other through ``matcascade.cli.main`` in this process, and then checks
every output against ``oracles``.  The peak resident memory is read
after the first pass's commands, before any check allocates.  A fixed
calibration kernel (``calibrate``) is timed right after the set-up,
before every pass and after every command.  It prints one JSON line:
the monotonic time at which the first inputs were on disk, the
calibration time after set-up, the peak memory, and per pass each
command's wall time, calibration time (the mean of those just before
and after it), exit code and check result, with the per-layer metrics
when traced (the spans themselves go to one trace file per pass).  With ``--setup-only`` it
stops after the set-up and prints only the ready and calibration times.

    python3 perfbench/workload.py --workload wide_walk --seed 1 --dir DIR \
        [--until T] [--trace-dir DIR] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

import inputs
import oracles
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# per workload: the check, simulate and estimate settings; a walk
# workload's input is a spec that mbrw-build reduces to a model
WORKLOADS = {
    "wide_walk": {
        "walk": True,
        "check": {"alphas": [2.0, 3.0], "lams": [], "epsilons": [], "n_max": 7},
        "simulate": {"n": 4, "replicates": 100_000},
        "estimate": {"alphas": [2.0], "lams": [1.0], "n_max": 3,
                     "laplace": (0.1, 1000.0, 40)},
    },
    "exact_moments": {
        "walk": False,
        "check": {"alphas": [1.5, 2.0, 3.0], "lams": [1.0], "epsilons": [],
                  "n_max": 6},
        "simulate": {"n": 5, "replicates": 20_000},
        "estimate": {"alphas": [2.0], "lams": [1.0], "n_max": 3, "laplace": None},
    },
}


def flags(name, values):
    return [a for v in values for a in (name, repr(v))]


def pipeline(cfg, d, seed):
    """[(command, argv, check)] in run order for one WORKLOADS entry; each
    check takes no argument and raises oracles.CheckError on a wrong
    output."""
    model_path = f"{d}/model.json"
    ops = []
    state = {}

    def model():
        if "model" not in state:
            state["model"] = oracles.Model.load(model_path)
        return state["model"]

    if cfg["walk"]:
        spec_path = f"{d}/spec.json"

        def check_build():
            with open(spec_path, encoding="utf-8") as f:
                oracles.check_built_model(model(), json.load(f), inputs.WALK_T)

        ops.append(("mbrw-build",
                    ["mbrw-build", "--spec", spec_path, "--t", repr(inputs.WALK_T),
                     "--alpha", "2", "--lambda", "1", "--out-model", model_path],
                    check_build))

    c = cfg["check"]

    def check_check():
        with open(f"{d}/check/conditions.json", encoding="utf-8") as f:
            rows = json.load(f)
        oracles.check_conditions(rows, model(), c["alphas"], c["lams"],
                                 c["epsilons"], c["n_max"])

    ops.append(("check",
                ["check", "--model", model_path, *flags("--alpha", c["alphas"]),
                 *flags("--lambda", c["lams"]), *flags("--epsilon", c["epsilons"]),
                 "--n-max", str(c["n_max"]), "--out", f"{d}/check"],
                check_check))

    s = cfg["simulate"]

    def check_simulate():
        state["values"] = oracles.check_batch(f"{d}/sim", model(), s["n"],
                                              s["replicates"], seed)

    ops.append(("simulate",
                ["simulate", "--model", model_path, "--n", str(s["n"]),
                 "--replicates", str(s["replicates"]), "--seed", str(seed),
                 "--out", f"{d}/sim"],
                check_simulate))

    e = cfg["estimate"]

    def check_estimate():
        values = state.get("values")
        if values is None:
            values = oracles.read_batch_bin(f"{d}/sim/batch.bin")[1]
        oracles.check_estimates(f"{d}/est", values, model(), e["alphas"],
                                e["lams"], e["n_max"], laplace=e["laplace"])

    laplace = []
    if e["laplace"]:
        t_min, t_max, _ = e["laplace"]
        laplace = ["--laplace-fit", "--t-min", repr(t_min), "--t-max", repr(t_max)]
    ops.append(("estimate",
                ["estimate", "--model", model_path, "--batch", f"{d}/sim",
                 *flags("--alpha", e["alphas"]), *flags("--lambda", e["lams"]),
                 "--n-max", str(e["n_max"]), *laplace, "--out", f"{d}/est"],
                check_estimate))
    return ops


def check_ops(runs, ops):
    """Check each command's output; a command after a failed one is
    counted failed too, since it may have read missing inputs."""
    ok = True
    for run, (_, _, check) in zip(runs, ops):
        if run["exit"] != 0 or not ok:
            run["error"] = (f"exit code {run['exit']}" if run["exit"]
                            else "not checked: an earlier command failed")
            ok = False
            continue
        try:
            check()
        except oracles.CheckError as err:
            run["error"] = f"wrong output: {err}"
            run["wrong"] = True


def calibrate():
    """Seconds this process takes for a fixed piece of work made without
    matcascade, in the program's mix of operations: 3x3 matrix products
    in a Python loop, Philox stream set-up and draws, and float
    formatting: a gauge of how fast the machine runs at the moment."""
    start = time.perf_counter()
    a = np.array([[0.5, 0.2, 0.1], [0.3, 0.4, 0.2], [0.1, 0.3, 0.6]])
    acc = np.eye(3)
    total = 0.0
    for _ in range(4000):
        acc = acc @ a
        s = float(acc.sum())
        acc = acc / s
        total += math.log(s)
    for i in range(2000):
        total += float(np.random.Generator(np.random.Philox(key=(9, i))).random())
    buf = io.StringIO()
    for i in range(20000):
        buf.write(f"{i},{total * i:.17g},{i % 2}\n")
    return time.perf_counter() - start


def time_pass(cli, ops, trace_file, calib):
    """Run one pass's commands; [{command, exit, seconds, calib}] and,
    when traced, the pass's per-layer metrics.  ``calib`` is the
    calibration time taken just before; a command's ``calib`` is the mean
    of the calibration times just before and just after it."""
    tracer = spans.Tracer() if trace_file else None
    runs = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for command, op_argv, _ in ops:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(op_argv)
            seconds = time.perf_counter() - start
            after = calibrate()
            runs.append({"command": command, "exit": code, "seconds": seconds,
                         "calib": (calib + after) / 2})
            calib = after
    if tracer is None:
        return runs, None
    tracer.write(trace_file)
    return runs, tracer.metrics()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--until", type=float, default=0.0,
                        help="time.monotonic() by which the passes end")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set up, after printing the ready time")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    # set-up: import the CLI (numpy, scipy) from this checkout, write the
    # first pass's inputs
    sys.path.insert(0, SRC)
    import matcascade.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"matcascade imported from {cli.__file__}, not from {SRC}")

    cfg = WORKLOADS[args.workload]
    name = "spec.json" if cfg["walk"] else "model.json"

    def write_inputs(index):
        d = os.path.join(args.dir, f"pass{index}")
        os.makedirs(d, exist_ok=True)
        inputs.write(inputs.generate(args.workload, args.seed, index),
                     os.path.join(d, name))
        return d

    index = 0
    d = write_inputs(index)
    ready = time.monotonic()
    setup_calib = calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "calib": setup_calib}))
        return 0

    passes = []
    peak_rss_mb = None
    longest = 0.0
    while True:
        began = time.monotonic()
        if passes:
            d = write_inputs(index)
        ops = pipeline(cfg, d, args.seed)
        trace_file = (os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}"
                                   f"-pass{index}.json") if args.trace_dir else None)
        runs, layers = time_pass(cli, ops, trace_file,
                                 calibrate() if passes else setup_calib)
        if peak_rss_mb is None:
            # the first, cold pass, before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_ops(runs, ops)
        shutil.rmtree(d)
        passes.append({"runs": runs, "layers": layers})
        index += 1
        # start another pass only if it ends by --until, judged by the
        # longest pass so far
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > args.until:
            break

    print(json.dumps({"ready": ready, "calib": setup_calib, "passes": passes,
                      "peak_rss_mb": peak_rss_mb,
                      "replicates": cfg["simulate"]["replicates"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
