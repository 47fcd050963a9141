"""Config-driven command line front end.

Commands: check, simulate, estimate, mbrw-build, report.  check,
simulate and estimate write a manifest (command line, hashes, seed,
version) sufficient to reproduce their outputs bitwise.  simulate runs
on the usable cores (`taskset` limits them), at most one process per
CHUNK replicates, and in one process without fork or beside another
Python thread (engine.process_count, recorded as the manifest's
processes).  It forks one pool, whose workers draw, fold and format
their shards' CSV rows; the command writes batch.csv from them in shard
order.  It writes batch.bin, batch_meta.json, the manifest and batch.csv
under temporary names, which it removes on a refusal, and renames the
four into place only once all are written, batch.csv last, so that a
failed run leaves an earlier run's files in --out as they were and a
batch.csv there means the run finished.  Its
batch_meta.json records where its batch came from;
estimate reads only that batch, checks the metadata against the model
and batch.bin, and copies the batch's n, replicates, seed and cap into
its own manifest.  mbrw-build prints a walk's alpha criterion as T2.1a
of the model it writes, one row per --alpha (the row that check
--n-max 1 prints for that file), and C2.4b on the walk itself, one row
per --lambda and --epsilon.
A flag that the model cannot serve is refused, never dropped, and no
subcommand reads a prefix of a flag as the flag.

Exit codes: 0 ok, 1 usage, 2 bad input, I/O or memory, 3 all replicates
capped.  Code 2 comes from one place, ``main``, which prints any
MatcascadeError, OSError or MemoryError, raised in this process or in a
worker, as a one-line ``error: ...`` message; a traceback means a bug.
Scientific verdicts never change the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .model import (MatcascadeError, load_model, parses, read_json, save_model,
                    validate_model)
from .conditions import (check_alpha_moments, check_complex, check_harmonic,
                         exponential_profile)
from .engine import (batch_from_binary, batch_to_binary, process_count,
                     simulate_batch, DEFAULT_CAP)
from .estimate import (estimate_harmonic, estimate_laplace, estimate_moment,
                       fit_power_decay, fit_stretched_exponential)
from .mbrw import build_cascade_from_mbrw, load_mbrw_spec, mbrw_condition_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ALL_FAILED = 3


def _write_json(path, doc):
    """Write doc as indented, key-sorted JSON plus a newline; return the
    JSON text."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return text


def _write_manifest(path, args_ns, extra):
    manifest = {
        "argv": args_ns.argv,
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args_ns).items())
                   if k not in ("func", "argv")},
    }
    manifest.update(extra)
    blob = json.dumps(manifest["config"], sort_keys=True, default=str)
    manifest["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()
    _write_json(path, manifest)


def _render_table(reports):
    lines = []
    for r in reports:
        lines.append(f"[{r['theorem']}] verdict: {r['verdict']}")
        for k, v in r["quantities"].items():
            if isinstance(v, float):
                lines.append(f"    {k:<55} {v:.12g}")
            else:
                lines.append(f"    {k:<55} {v}")
        for name, status in r.get("assumptions", []):
            lines.append(f"    assumption {name}: {status}")
        for note in r.get("notes", []):
            lines.append(f"    note: {note}")
        lines.append("")
    return "\n".join(lines)


def cmd_check(args):
    if args.n_max < 1:  # complex models never reach check_alpha_moments
        raise MatcascadeError("--n-max must be >= 1")
    for beta in args.beta:  # before the real-model refusal below
        if not 1 < beta <= 2:
            raise MatcascadeError(f"--beta must lie in (1, 2], got {beta!r}")
    model = load_model(args.model)
    unserved = ({"--lambda": args.lam, "--epsilon": args.epsilon}
                if model.is_complex else {"--beta": args.beta})
    for flag, values in unserved.items():
        if values:
            raise MatcascadeError(
                f"{flag} does not apply to a {model.field_kind} model")
    os.makedirs(args.out, exist_ok=True)

    validation = validate_model(model)
    reports = [validation]
    if model.is_complex:
        reports += [check_complex(model, alpha, beta_grid=args.beta or None,
                                  validation=validation)
                    for alpha in args.alpha]
    else:
        reports += check_alpha_moments(model, args.alpha, n_max=args.n_max,
                                       validation=validation)
        reports += [check_harmonic(model, lam) for lam in args.lam]
        reports += [r for eps in args.epsilon
                    for r in exponential_profile(model, eps)]
    rows = [r.to_dict() for r in reports]

    _write_json(os.path.join(args.out, "conditions.json"), rows)
    table = _render_table(rows)
    with open(os.path.join(args.out, "conditions.txt"), "w",
              encoding="utf-8") as f:
        f.write(table)
    print(table)
    _write_manifest(os.path.join(args.out, "manifest.json"), args,
                    {"model_hash": model.source_hash})
    return EXIT_OK


def cmd_simulate(args):
    if not 0 <= args.seed < 2**64:  # one seed per 64-bit Philox key word
        raise MatcascadeError(f"--seed must lie in [0, 2^64), got {args.seed}")
    model = load_model(args.model)
    os.makedirs(args.out, exist_ok=True)
    # each file is written under a temporary name, and the four are renamed
    # into place only once all are written, batch.csv last, so that a
    # failed run leaves an earlier run's files as they were
    names = ("batch.bin", "batch_meta.json", "manifest.json", "batch.csv")
    partial = {name: os.path.join(args.out, name + ".partial") for name in names}
    try:
        with open(partial["batch.csv"], "wb") as csv:
            batch = simulate_batch(model, args.n, args.replicates, args.seed,
                                   cap=args.cap, csv=csv)
        if batch.capped_count == batch.replicates:
            print("error: every replicate exceeded the population cap",
                  file=sys.stderr)
            return EXIT_ALL_FAILED
        batch_to_binary(batch, partial["batch.bin"])
        meta = {
            "model_hash": model.source_hash,
            "model_id": model.content_hash(),
            "n": batch.n, "replicates": batch.replicates,
            "seed": args.seed, "cap": args.cap,
            "extinct_count": batch.extinct_count,
            "capped_count": batch.capped_count,
            "field": model.field_kind,
        }
        _write_json(partial["batch_meta.json"], meta)
        _write_manifest(partial["manifest.json"], args, {
            "model_hash": meta["model_hash"],
            "processes": process_count(batch.replicates)})
        for name in names:
            os.replace(partial[name], os.path.join(args.out, name))
    finally:
        # a refusal, an interrupt or a run with every replicate capped
        for path in partial.values():
            if os.path.exists(path):
                os.remove(path)
    print(f"wrote {batch.replicates} replicates "
          f"({batch.extinct_count} extinct, {batch.capped_count} capped)")
    return EXIT_OK


def cmd_estimate(args):
    if args.n_max < 1:  # the side checks run only for some models and orders
        raise MatcascadeError("--n-max must be >= 1")
    model = load_model(args.model)
    os.makedirs(args.out, exist_ok=True)
    _, meta = read_json(os.path.join(args.batch, "batch_meta.json"),
                        "batch metadata")
    if not isinstance(meta, dict):
        raise MatcascadeError("batch metadata is not a JSON object")
    model_id = meta.get("model_id")
    if not isinstance(model_id, str) or not model_id:
        raise MatcascadeError("batch metadata has no model_id")
    if model_id != model.content_hash():
        raise MatcascadeError("batch was produced from a different model "
                              "(hash mismatch); re-simulate")
    for key in ("n", "replicates", "seed", "cap"):
        value = meta.get(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise MatcascadeError(
                f"batch metadata {key} must be an integer, got {value!r}")
    if meta["cap"] < 1:
        raise MatcascadeError(f"batch metadata cap must be >= 1, got {meta['cap']}")
    batch = batch_from_binary(os.path.join(args.batch, "batch.bin"))
    if (batch.n, batch.replicates) != (meta["n"], meta["replicates"]):
        raise MatcascadeError(
            f"batch.bin holds n={batch.n}, R={batch.replicates}; batch_meta.json "
            f"says n={meta['n']}, R={meta['replicates']}")
    if batch.p != model.p:
        raise MatcascadeError(
            f"batch.bin holds p={batch.p}; the model has p={model.p}")

    out = {"n": batch.n, "replicates": batch.replicates}
    # the exact side checks need a finite-atom real model
    exact = model.mode == "finite-atom" and not model.is_complex
    orders = [alpha for alpha in args.alpha if alpha > 1] if exact else []
    sides = check_alpha_moments(model, orders, n_max=args.n_max) if orders else []
    sides = dict(zip(orders, sides))
    for alpha in args.alpha:
        est = estimate_moment(batch, alpha, target="norm")
        side = sides.get(alpha)
        out.setdefault("moments", []).append({
            "estimate": est.__dict__,
            "condition": side.to_dict() if side else None,
        })
    y = np.ones(model.p)
    for lam in args.lam:
        est = estimate_harmonic(batch, lam, y)
        side = check_harmonic(model, lam) if exact else None
        out.setdefault("harmonic", []).append({
            "estimate": est.__dict__,
            "condition": side.to_dict() if side else None,
        })
    if args.laplace_fit:
        if not (0 < args.t_min < math.inf and 0 < args.t_max < math.inf):
            raise MatcascadeError("--t-min and --t-max must be positive and finite")
        grid = [s * y for s in np.geomspace(args.t_min, args.t_max, 40)]
        curve = estimate_laplace(batch, grid)
        fits = {}
        # per fit: result key, fitter, header of its fit-point CSV, and
        # phi -> the regression's y coordinate (x is log ||t|| for both)
        for name, fitter, header, y_of in (
                ("power", fit_power_decay, "log_norm_t,log_phi", math.log),
                ("stretched", fit_stretched_exponential,
                 "log_norm_t,log_neg_log_phi",
                 lambda phi: math.log(-math.log(phi)))):
            try:
                fit = fitter(curve, replicates=batch.replicates)
            except MatcascadeError as e:
                fits[name] = {"error": str(e)}
                continue
            fits[name] = {k: v for k, v in fit.__dict__.items() if k != "grid"}
            # plot-ready two-column file in the regression coordinates
            with open(os.path.join(args.out, f"{name}_fit_points.csv"), "w",
                      encoding="utf-8") as f:
                f.write(header + "\n")
                for s, phi in fit.grid:
                    f.write(f"{math.log(s)!r},{y_of(phi)!r}\n")
        out["laplace_fits"] = fits
        with open(os.path.join(args.out, "laplace_curve.csv"), "w",
                  encoding="utf-8") as f:
            f.write("norm_t,phi\n")
            for t, phi in curve:
                f.write(f"{float(np.abs(t).sum())!r},{phi!r}\n")

    text = _write_json(os.path.join(args.out, "estimates.json"), out)
    _write_manifest(os.path.join(args.out, "manifest.json"), args, {
        "model_hash": model.source_hash,
        "batch": {k: meta.get(k) for k in ("n", "replicates", "seed", "cap")}})
    print(text)
    return EXIT_OK


def cmd_mbrw_build(args):
    if not math.isfinite(args.t):
        raise MatcascadeError(f"--t must be finite, got {args.t!r}")
    if args.epsilon and not args.lam:
        raise MatcascadeError("--epsilon applies only with --lambda")
    spec = load_mbrw_spec(args.spec)
    model = build_cascade_from_mbrw(spec, args.t)
    reports = check_alpha_moments(model, args.alpha, n_max=1)
    reports += [mbrw_condition_report(spec, args.t, lam, eps)
                for lam in args.lam for eps in args.epsilon or [0.0]]
    rows = [r.to_dict() for r in reports]
    os.makedirs(os.path.dirname(os.path.abspath(args.out_model)), exist_ok=True)
    save_model(model, args.out_model)
    if rows:
        print(_render_table(rows))
    print(f"wrote cascade model to {args.out_model}")
    return EXIT_OK


@parses("report")
def cmd_report(args):
    _, doc = read_json(args.input, "report")
    print(_render_table(doc if isinstance(doc, list) else [doc]))
    return EXIT_OK


def _count(text):
    """argparse type of --replicates: a count below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matcascade",
        description="Matrix cascade condition checks, simulation, estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching, so that one command's flag is refused by another
    # (simulate's --n, say, is not read as check's --n-max)
    pc = sub.add_parser("check", help="validate a model and run condition checks",
                        allow_abbrev=False)
    pc.add_argument("--model", required=True)
    pc.add_argument("--alpha", type=float, action="append", default=[])
    pc.add_argument("--lambda", dest="lam", type=float, action="append",
                    default=[])
    pc.add_argument("--epsilon", type=float, action="append", default=[])
    pc.add_argument("--beta", type=float, action="append", default=[])
    pc.add_argument("--n-max", type=int, default=3)
    pc.add_argument("--out", default="out-check")
    pc.set_defaults(func=cmd_check)

    ps = sub.add_parser("simulate", help="draw a reproducible sample batch",
                        allow_abbrev=False)
    ps.add_argument("--model", required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--replicates", type=_count, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ps.add_argument("--out", default="out-simulate")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", help="moment/harmonic/decay estimates",
                        allow_abbrev=False)
    pe.add_argument("--model", required=True)
    pe.add_argument("--batch", default="out-simulate",
                    help="directory holding batch.bin + batch_meta.json")
    pe.add_argument("--alpha", type=float, action="append", default=[])
    pe.add_argument("--lambda", dest="lam", type=float, action="append",
                    default=[])
    pe.add_argument("--n-max", type=int, default=3)
    pe.add_argument("--laplace-fit", action="store_true")
    pe.add_argument("--t-min", type=float, default=0.1)
    pe.add_argument("--t-max", type=float, default=1000.0)
    pe.add_argument("--out", default="out-estimate")
    pe.set_defaults(func=cmd_estimate)

    pm = sub.add_parser("mbrw-build",
                        help="reduce a branching-walk spec to a cascade model",
                        allow_abbrev=False)
    pm.add_argument("--spec", required=True)
    pm.add_argument("--t", type=float, required=True)
    pm.add_argument("--alpha", type=float, action="append", default=[])
    pm.add_argument("--lambda", dest="lam", type=float, action="append",
                    default=[])
    pm.add_argument("--epsilon", type=float, action="append", default=[])
    pm.add_argument("--out-model", required=True)
    pm.set_defaults(func=cmd_mbrw_build)

    pr = sub.add_parser("report", help="render a JSON report as a text table",
                        allow_abbrev=False)
    pr.add_argument("--input", required=True)
    pr.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    args.argv = sys.argv[1:] if argv is None else list(argv)  # for the manifest
    try:
        return args.func(args)
    except (MatcascadeError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
