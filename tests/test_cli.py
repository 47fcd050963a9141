import argparse
import concurrent.futures
import copy
import errno
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import random
import signal
import struct
import subprocess
import sys

import pytest

from matcascade import cli, engine, spectral
from matcascade.cli import build_parser, main
from matcascade.model import (MatcascadeError, load_model, model_from_dict,
                              model_to_dict, scale_model)

MODEL_A = {"p": 1, "field": "real", "mode": "finite-atom",
           "atoms": [{"prob": 1.0, "matrices": [[[0.5]], [[0.5]]]}]}
MODEL_C = {"p": 2, "field": "real", "mode": "finite-atom",
           "atoms": [{"prob": 1.0,
                      "matrices": [[[0.3, 0.2], [0.1, 0.4]],
                                   [[0.2, 0.3], [0.4, 0.1]]]}]}
# random weights, E sum_k A_k = 1: a non-degenerate law for Y_n
MODEL_R = {"p": 1, "field": "real", "mode": "finite-atom",
           "atoms": [{"prob": 0.5, "matrices": [[[0.3]], [[0.9]]]},
                     {"prob": 0.5, "matrices": [[[0.6]], [[0.2]]]}]}
# one complex atom, two children 0.5 e^{i pi/3}
PHASE = {"p": 1, "field": "complex", "mode": "finite-atom",
         "atoms": [{"prob": 1.0, "matrices": [[[[0.25, 0.4330127018922193]]],
                                              [[[0.25, 0.4330127018922193]]]]}]}
# every modulus is 1, so M(t) = J at any order t: at a large order only the
# norm moment and the powers of p overflow
UNIT_MODULI = {"p": 2, "field": "complex", "mode": "finite-atom",
               "atoms": [{"prob": 1.0, "matrices": [[[[1, 0], [0, 1]],
                                                     [[0, -1], [1, 0]]]]}]}
# the first child's row sum to the power -2 is 1e400
TINY_CHILD = {"p": 1, "field": "real", "mode": "finite-atom",
              "atoms": [{"prob": 1.0, "matrices": [[[1e-200]], [[1.0]]]}]}
# two-type walk with random offspring, extinction among them
WALK_R = {"p": 2, "types": [
    {"offspring": [{"prob": 0.2, "children": []},
                   {"prob": 0.5, "children": [{"type": 1, "disp": 0.0},
                                              {"type": 2, "disp": 0.7}]},
                   {"prob": 0.3, "children": [{"type": 2, "disp": 0.3},
                                              {"type": 1, "disp": 0.5},
                                              {"type": 2, "disp": 1.1}]}]},
    {"offspring": [{"prob": 0.2, "children": []},
                   {"prob": 0.5, "children": [{"type": 1, "disp": 0.2},
                                              {"type": 1, "disp": 0.9}]},
                   {"prob": 0.3, "children": [{"type": 2, "disp": 0.1},
                                              {"type": 2, "disp": 0.4},
                                              {"type": 1, "disp": 0.6}]}]}]}
# the mean matrix is a permutation: rho = 1, but not primitive
PERMUTATION = {"p": 2, "field": "real", "mode": "finite-atom",
               "atoms": [{"prob": 1.0, "matrices": [[[0.0, 1.0], [1.0, 0.0]]]}]}
# M = [[1e-4, 1], [1, 0]] is primitive, with eigenvalues near +1 and -1
NEAR_CYCLIC = {"p": 2, "field": "real", "mode": "finite-atom",
               "atoms": [{"prob": 1.0,
                          "matrices": [[[5e-5, 0.5], [0.5, 0.0]]] * 2}]}
UNIFORM = {"p": 2, "mode": "sampler", "sampler": {
    "family": "uniform", "params": {"n_children": 2, "low": 0.1, "high": 0.4}}}
LOGNORMAL = {"p": 2, "mode": "sampler", "sampler": {
    "family": "lognormal", "params": {"n_children": 2, "mu": -1.5, "sigma": 0.4}}}
# its mean, 2 e^690.5, is finite; its depth-3 products are not
OVERFLOWING = {"p": 1, "mode": "sampler", "sampler": {
    "family": "lognormal", "params": {"n_children": 2, "mu": 690, "sigma": 1}}}
TT1 = {"p": 2, "types": [
    {"offspring": [{"prob": 1.0,
                    "children": [{"type": 1, "disp": 0.0},
                                 {"type": 2, "disp": math.log(2)}]}]},
    {"offspring": [{"prob": 1.0,
                    "children": [{"type": 1, "disp": math.log(2)},
                                 {"type": 2, "disp": 0.0}]}]}]}


@pytest.fixture
def model_a_path(tmp_path):
    path = tmp_path / "model-a.json"
    path.write_text(json.dumps(MODEL_A))
    return str(path)


@pytest.fixture
def model_c_path(tmp_path):
    path = tmp_path / "model-c.json"
    path.write_text(json.dumps(MODEL_C))
    return str(path)


class TestCheck:
    def test_model_c_report(self, model_c_path, tmp_path, capsys):
        out = tmp_path / "check"
        code = main(["check", "--model", model_c_path, "--alpha", "2",
                     "--lambda", "1", "--n-max", "3", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "conditions.json").read_text())
        t21 = next(r for r in rows if r["theorem"] == "T2.1a")
        assert t21["verdict"] == "holds"
        assert abs(t21["quantities"]["p^(alpha-1)*rho_1(alpha)"] - 0.6) < 1e-12
        t22 = next(r for r in rows if r["theorem"] == "T2.2")
        assert t22["verdict"] == "holds"
        assert (out / "manifest.json").exists()
        assert "T2.1a" in capsys.readouterr().out

    def test_model_a(self, model_a_path, tmp_path):
        out = tmp_path / "check"
        code = main(["check", "--model", model_a_path, "--alpha", "2",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "conditions.json").read_text())
        t21 = next(r for r in rows if r["theorem"] == "T2.1a")
        assert abs(t21["quantities"]["p^(alpha-1)*rho_1(alpha)"] - 0.5) < 1e-12

    @pytest.mark.parametrize("weight,verdict", [(0.5, "holds"),
                                                (1.0, "not-applicable"),
                                                (2.0, "not-applicable")])
    def test_exponential_profile_rated(self, weight, verdict, tmp_path, capsys):
        # MODEL_A sits at a_lower*p*essinf_N = 1; heavier weights break
        # assumption H, which rates T2.3a instead of stopping the command
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_model(matrices=[[[weight]], [[weight]]])))
        out = tmp_path / "check"
        code = main(["check", "--model", str(path), "--alpha", "2",
                     "--epsilon", "0", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((out / "conditions.json").read_text())
        t23a = next(r for r in rows if r["theorem"] == "T2.3a")
        assert t23a["verdict"] == verdict

    # with the one flag each field serves beside --alpha
    @pytest.mark.parametrize("doc, served", [(MODEL_C, ["--lambda", "1"]),
                                             (PHASE, ["--beta", "1.5"])],
                             ids=["real", "complex"])
    def test_validates_once(self, doc, served, tmp_path, monkeypatch):
        # the validation row also rates assumption H in every moment row;
        # calls are counted through every module that imports validate_model
        from matcascade import model as model_module
        calls = []
        validate = model_module.validate_model

        def counting(model):
            calls.append(1)
            return validate(model)

        patched = [name for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "matcascade"
                   and getattr(module, "validate_model", None) is validate]
        assert {"matcascade.cli", "matcascade.conditions"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "validate_model", counting)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path), "--alpha", "1.5",
                     "--alpha", "2", *served, "--out",
                     str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    # sha256 of conditions.json, one model per assumption-H outcome: holds
    # (p = 1, p = 2, complex), rho = 2 and a non-primitive mean matrix
    PINNED = {
        "model_a": "07d84289643944b193db84f298664a72e7af9fb687676938b9cc373d83cc30aa",
        "model_c": "3cb5a9876a6fc1203475f9bcb3735159eb634b9e482c81d9bb3cfaac15bb4e06",
        "model_a_doubled": "746d4ed473e5d331c27d31c8ce035092d9e40f8f4d15d238039b6ac7bad0f947",
        "permutation": "efa9b730838fa2d15062dabad99a421017ce27443483ecd3ffe4ade6214a32b2",
        "phase": "b0d16098cc8f8f8bbe25d69dd812cbb3d257f7041b2d4e1dfe43dca0918f92c8",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_conditions_pinned(self, name, tmp_path):
        real = ["--alpha", "1.5", "--alpha", "2", "--lambda", "1",
                "--epsilon", "0", "--n-max", "3"]
        doc, flags = {
            "model_a": (MODEL_A, real),
            "model_c": (MODEL_C, real),
            "model_a_doubled": (model_to_dict(scale_model(model_from_dict(MODEL_A), 2)),
                                real),
            "permutation": (PERMUTATION, real),
            "phase": (PHASE, ["--alpha", "1.5", "--alpha", "3", "--beta", "2"]),
        }[name]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "check"
        assert main(["check", "--model", str(path), *flags, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "conditions.json").read_bytes()).hexdigest()
        assert digest == self.PINNED[name]

    @pytest.mark.parametrize("doc,flags", [
        (MODEL_C, ["--alpha", "1100"]),
        (UNIT_MODULI, ["--alpha", "1100", "--beta", "2"]),
        (TINY_CHILD, ["--lambda", "2"])], ids=["norm-moment", "complex", "harmonic"])
    def test_overflow_reported_as_inf(self, doc, flags, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "check"
        assert main(["check", "--model", str(path), *flags, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "Infinity" in (out / "conditions.json").read_text()

    def test_failed_complex_solve_noted(self, tmp_path, capsys):
        # every entry of M(1100) underflows to 0: that row notes the
        # underflow and is undecided, and the alpha = 1.5 row is still written
        path = tmp_path / "model.json"
        path.write_text(json.dumps(PHASE))
        out = tmp_path / "check"
        assert main(["check", "--model", str(path), "--alpha", "1.5",
                     "--alpha", "1100", "--beta", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((out / "conditions.json").read_text())
        t61 = [r for r in rows if r["theorem"] == "T6.1"]
        assert [r["quantities"]["alpha"] for r in t61] == [1.5, 1100]
        assert t61[0]["verdict"] == "holds"
        assert t61[1]["verdict"] == "undecided"
        assert t61[1]["notes"] == [
            "rho_hat(alpha) unavailable: M(alpha) underflows to the zero matrix"]

    def test_underflow_noted(self, tmp_path, capsys):
        # M_1(1100) = 2 * 0.5^1100 underflows to the zero matrix: the note
        # names the underflow, not primitivity, and the verdict is undecided
        path = tmp_path / "model.json"
        path.write_text(json.dumps(MODEL_A))
        out = tmp_path / "check"
        assert main(["check", "--model", str(path), "--alpha", "1100",
                     "--n-max", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        t21 = [r for r in json.loads((out / "conditions.json").read_text())
               if r["theorem"] == "T2.1a"]
        assert [r["verdict"] for r in t21] == ["undecided"]
        assert t21[0]["notes"][0] == (
            "rho_1(alpha) unavailable: M_1(alpha) underflows to the zero matrix")
        assert ("note: rho_1(alpha) unavailable: M_1(alpha) underflows to the "
                "zero matrix\n") in (out / "conditions.txt").read_text()

    def test_profile_rows_below_two_children(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"p": 1, "field": "real", "mode": "finite-atom",
             "atoms": [{"prob": 0.5, "matrices": [[[1.0]]]},
                       {"prob": 0.5, "matrices": [[[0.25]], [[0.25]]]}]}))
        out = tmp_path / "check"
        assert main(["check", "--model", str(path), "--epsilon", "0.1",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((out / "conditions.json").read_text())
        t23 = [r for r in rows if r["theorem"].startswith("T2.3")]
        assert [r["theorem"] for r in t23] == ["T2.3a", "T2.3b"]
        for r in t23:
            assert r["verdict"] == "not-applicable"
            assert ["essinf N >= 2", "fails: essinf N=1"] in r["assumptions"]

    def test_measure_built_to_n_max(self, tmp_path, capsys, monkeypatch):
        # every order stops at depth 1 (M(1100) underflows to 0), but the
        # measure is built to --n-max first, so its cap still applies
        from matcascade import spectral
        monkeypatch.setattr(spectral, "SUPPORT_CAP", 15)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(MODEL_C))
        code = main(["check", "--model", str(path), "--alpha", "1100",
                     "--n-max", "4", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "depth 4 would form 16 products" in capsys.readouterr().err

    def test_no_order_builds_no_measure(self, tmp_path, monkeypatch):
        # 7^8 depth-8 products would exceed SUPPORT_CAP, but no --alpha
        # asks for the measure, so only the validation and T2.2 rows are made
        from matcascade import spectral
        built = []
        for name in ("intensity_measure", "_left_products"):
            monkeypatch.setattr(spectral, name,
                                lambda *a, name=name: built.append(name))
        rng = random.Random(11)
        mats = [[[rng.uniform(0.01, 0.15) for _ in range(3)] for _ in range(3)]
                for _ in range(7)]
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "p": 3, "field": "real", "mode": "finite-atom",
            "atoms": [{"prob": 0.25, "matrices": mats[:3]},
                      {"prob": 0.75, "matrices": mats[3:]}]}))
        out = tmp_path / "o"
        assert main(["check", "--model", str(path), "--lambda", "1",
                     "--n-max", "8", "--out", str(out)]) == 0
        rows = json.loads((out / "conditions.json").read_text())
        assert [r["theorem"] for r in rows] == ["validation", "T2.2"]
        assert built == []

    def test_manifest_records_parsed_argv(self, model_c_path, tmp_path,
                                          monkeypatch):
        # an in-process caller's own command line is not the one parsed
        monkeypatch.setattr(sys, "argv", ["host.py", "extra-host-arg"])
        argv = ["check", "--model", model_c_path, "--alpha", "2",
                "--out", str(tmp_path / "check")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "check" / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert "argv" not in manifest["config"]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cannot read model" in capsys.readouterr().err


class TestNearCyclic:
    """A primitive mean matrix whose second eigenvalue is close to the
    Perron root in modulus still has its Perron data solved."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "near-cyclic.json"
        path.write_text(json.dumps(NEAR_CYCLIC))
        return str(path)

    def test_check(self, path, tmp_path):
        out = tmp_path / "check"
        assert main(["check", "--model", path, "--alpha", "2",
                     "--out", str(out)]) == 0
        rows = json.loads((out / "conditions.json").read_text())
        assert rows[0]["quantities"]["rho"] == pytest.approx(1 + 5e-5, rel=1e-8)
        assert not any("unavailable" in note for row in rows
                       for note in row["notes"])

    def test_simulate(self, path, tmp_path):
        assert main(["simulate", "--model", path, "--n", "3", "--replicates",
                     "10", "--seed", "1", "--out", str(tmp_path / "sim")]) == 0


class TestSimulate:
    def test_model_a_rows(self, model_a_path, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--model", model_a_path, "--n", "10",
                     "--replicates", "100", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = (out / "batch.csv").read_text().strip().split("\n")
        assert len(lines) == 101
        assert all(line.endswith(",1.0") for line in lines[1:])
        meta = json.loads((out / "batch_meta.json").read_text())
        assert meta["extinct_count"] == 0 and meta["replicates"] == 100

    def test_rerun_bitwise_identical(self, model_c_path, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["simulate", "--model", model_c_path, "--n", "4",
                         "--replicates", "50", "--seed", "3",
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "batch.csv").read_bytes() == (outs[1] / "batch.csv").read_bytes()
        assert (outs[0] / "batch.bin").read_bytes() == (outs[1] / "batch.bin").read_bytes()

    def test_seed_range_ends_accepted_and_distinct(self, tmp_path):
        # 0 and 2^64 - 1 are the ends of [0, 2^64); outside it, see
        # MALFORMED_INPUTS
        model = tmp_path / "model-r.json"
        model.write_text(json.dumps(MODEL_R))
        bins = []
        for seed in (0, 2**64 - 1):
            out = tmp_path / f"s{seed}"
            assert main(["simulate", "--model", str(model), "--n", "4",
                         "--replicates", "20", "--seed", str(seed),
                         "--out", str(out)]) == 0
            assert json.loads((out / "batch_meta.json").read_text())["seed"] == seed
            bins.append((out / "batch.bin").read_bytes())
        assert bins[0] != bins[1]

    def test_default_workers_bytes_equal_one_worker(self, tmp_path, monkeypatch):
        # three chunks on one core, and over two forked workers on two
        model = tmp_path / "model-r.json"
        model.write_text(json.dumps(MODEL_R))
        runs = {}
        for cores in (1, 2):
            monkeypatch.setattr(engine, "usable_cores", lambda: cores)
            out = tmp_path / str(cores)
            assert main(["simulate", "--model", str(model), "--n", "5",
                         "--replicates", str(2 * engine.CHUNK + 17), "--seed", "3",
                         "--out", str(out)]) == 0
            runs[cores] = out
        assert multiprocessing.active_children() == []
        for name in ("batch.csv", "batch.bin"):
            assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes()
        one, two = (json.loads((runs[k] / "manifest.json").read_text())
                    for k in (1, 2))
        # the processes used sit outside the config, which is the same on
        # every machine
        assert (one["processes"], two["processes"]) == (1, 2)
        assert {**one["config"], "out": None} == {**two["config"], "out": None}

    # sha256 of batch.csv and batch.bin at R = 2 CHUNK + 17, seed 3, on one
    # process and on two: the stream contract, recorded before the shards
    # were re-laid, so that a change to the shards or the streams shows
    PINNED_BATCHES = {
        "finite-atom": ("b5fd27865d4f467078efb75837bda7d0adf22ca58cca0e46d85a922b32ae91b2",
                        "1e648e2356e1b8939f3451c3ecee6be3cdaa6d83df54ce02281fc2c519366d0b"),
        "walk": ("c10d633589c1b681dbf0a89e95fc28ee6238c465a69e077ac34273b73d44defe",
                 "1a5d3ac126e508902d52c05501653577115db194f7bd89152c6003c515e98752"),
    }

    @pytest.mark.parametrize("cores", [1, 2], ids=["one", "default"])
    @pytest.mark.parametrize("case", sorted(PINNED_BATCHES))
    def test_batch_pinned(self, case, cores, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        model = tmp_path / "model.json"
        if case == "walk":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(WALK_R))
            assert main(["mbrw-build", "--spec", str(spec), "--t", "1.0",
                         "--out-model", str(model)]) == 0
            n = 4
        else:
            model.write_text(json.dumps(MODEL_R))
            n = 5
        out = tmp_path / "sim"
        assert main(["simulate", "--model", str(model), "--n", str(n),
                     "--replicates", str(2 * engine.CHUNK + 17), "--seed", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["processes"] == cores
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("batch.csv", "batch.bin"))
        assert digests == self.PINNED_BATCHES[case]

    def test_crlf_model_one_hash(self, tmp_path):
        # the batch is tagged with the hash of the file's bytes, as the manifest is
        path = tmp_path / "model-crlf.json"
        path.write_bytes(json.dumps(MODEL_C, indent=2).replace("\n", "\r\n").encode())
        out = tmp_path / "sim"
        assert main(["simulate", "--model", str(path), "--n", "3",
                     "--replicates", "10", "--seed", "1", "--out", str(out)]) == 0
        meta = json.loads((out / "batch_meta.json").read_text())
        assert meta["model_hash"] == meta["model_id"]
        assert meta["model_id"] == hashlib.sha256(path.read_bytes()).hexdigest()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model_hash"] == meta["model_id"]
        assert main(["estimate", "--model", str(path), "--batch", str(out),
                     "--alpha", "2", "--out", str(tmp_path / "e")]) == 0

    def test_zero_replicates_usage_error(self, model_a_path, tmp_path):
        code = main(["simulate", "--model", model_a_path, "--n", "2",
                     "--replicates", "0", "--seed", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("cores", [1, 2])
    def test_all_capped_exit3(self, cores, model_a_path, tmp_path, capsys,
                              monkeypatch):
        # on two cores, over two workers and four shards of 5 replicates
        monkeypatch.setattr(engine, "CHUNK", 7)
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        code = main(["simulate", "--model", model_a_path, "--n", "10",
                     "--replicates", "20", "--seed", "1", "--cap", "8",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: every replicate exceeded the population cap\n")
        assert list((tmp_path / "o").iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_one_pool_per_command(self, tmp_path, monkeypatch):
        # the workers that simulate a shard also format its CSV rows, so
        # the command forks one pool, over two workers and four shards
        monkeypatch.setattr(engine, "CHUNK", 7)
        monkeypatch.setattr(engine, "usable_cores", lambda: 2)
        pools = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append((args, kwargs))
                super().__init__(*args, **kwargs)

        # _in_workers imports ProcessPoolExecutor from here when it forks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        model = tmp_path / "model-r.json"
        model.write_text(json.dumps(MODEL_R))
        assert main(["simulate", "--model", str(model), "--n", "5",
                     "--replicates", "20", "--seed", "3",
                     "--out", str(tmp_path / "sim")]) == 0
        assert [args for args, _ in pools] == [(2,)]
        # each worker keeps its freed heap across its shards
        assert pools[0][1]["initializer"] is engine._keep_heap
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2])
    def test_overflow_exit2_no_batch(self, cores, tmp_path, capfd, monkeypatch):
        # depth-3 products near e^2070 overflow in every replicate; on two
        # cores, over two workers and four shards of 5 replicates
        monkeypatch.setattr(engine, "CHUNK", 7)
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(OVERFLOWING))
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(path), "--n", "3",
                     "--replicates", "20", "--seed", "1", "--out", str(out)]) == 2
        # read at the file descriptor, so a worker's warning would show too
        assert capfd.readouterr().err == (
            "error: replicate 0 overflowed: its depth-3 value is not finite\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("error", [KeyboardInterrupt, MatcascadeError])
    def test_raising_run_leaves_no_csv(self, cores, error, model_c_path, tmp_path,
                                       monkeypatch):
        # the shard that holds the last replicate raises, in this process
        # on one core and in a worker on two, after earlier shards were
        # written; eight shards of 6 or 7 replicates
        run_chunk = engine._run_chunk

        def failing(model, n, rows, *rest):
            if rows[-1] == 49:
                raise error("planted")
            return run_chunk(model, n, rows, *rest)

        monkeypatch.setattr(engine, "CHUNK", 7)
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        monkeypatch.setattr(engine, "_run_chunk", failing)
        out = tmp_path / "o"
        argv = ["simulate", "--model", model_c_path, "--n", "3",
                "--replicates", "50", "--seed", "1", "--out", str(out)]
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 2
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_failed_bin_write_leaves_no_csv(self, model_c_path, tmp_path, capsys,
                                            monkeypatch):
        # batch.csv is renamed into place last, so a failed later write
        # leaves no batch.csv and no partial file
        def full(batch, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "batch_to_binary", full)
        out = tmp_path / "o"
        assert main(["simulate", "--model", model_c_path, "--n", "3",
                     "--replicates", "20", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert list(out.iterdir()) == []


def _simulated(tmp_path, model_path, n, replicates, seed):
    """The directory of a simulate run of the model at depth n."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", str(model_path), "--n", str(n),
                 "--replicates", str(replicates), "--seed", str(seed),
                 "--out", str(sim)]) == 0
    return str(sim)


class TestEstimate:
    def test_pipeline_from_batch(self, model_c_path, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--model", model_c_path, "--n", "6",
                     "--replicates", "500", "--seed", "1",
                     "--out", str(sim)]) == 0
        out = tmp_path / "est"
        code = main(["estimate", "--model", model_c_path, "--batch", str(sim),
                     "--alpha", "2", "--lambda", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "estimates.json").read_text())
        assert doc["moments"][0]["condition"]["verdict"] == "holds"
        assert abs(doc["harmonic"][0]["estimate"]["point"] - 0.5) < 1e-10

    def test_hash_mismatch_exit2(self, model_a_path, model_c_path, tmp_path,
                                 capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--model", model_a_path, "--n", "4",
              "--replicates", "20", "--seed", "1", "--out", str(sim)])
        code = main(["estimate", "--model", model_c_path, "--batch", str(sim),
                     "--alpha", "2", "--out", str(tmp_path / "e")])
        assert code == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_model_checked_before_batch_bin(self, model_a_path, model_c_path,
                                            tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--model", model_a_path, "--n", "4",
              "--replicates", "20", "--seed", "1", "--out", str(sim)])
        (sim / "batch.bin").unlink()
        code = main(["estimate", "--model", model_c_path, "--batch", str(sim),
                     "--alpha", "2", "--out", str(tmp_path / "e")])
        assert code == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_fresh_with_laplace_fit(self, model_c_path, tmp_path):
        # a freshly simulated batch, read through --batch
        sim = _simulated(tmp_path, model_c_path, n=6, replicates=2000, seed=2)
        out = tmp_path / "est"
        code = main(["estimate", "--model", model_c_path, "--batch", sim,
                     "--laplace-fit", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "estimates.json").read_text())
        assert "power" in doc["laplace_fits"]
        assert (out / "laplace_curve.csv").exists()
        assert (out / "power_fit_points.csv").exists()
        header = (out / "power_fit_points.csv").read_text().split("\n")[0]
        assert header == "log_norm_t,log_phi"

    def test_fit_points_are_logs_of_window_points(self, tmp_path):
        path = tmp_path / "model-r.json"
        path.write_text(json.dumps(MODEL_R))
        sim = _simulated(tmp_path, path, n=8, replicates=2000, seed=3)
        out = tmp_path / "est"
        assert main(["estimate", "--model", str(path), "--batch", sim,
                     "--laplace-fit", "--out", str(out)]) == 0
        fits = json.loads((out / "estimates.json").read_text())["laplace_fits"]
        lines = (out / "laplace_curve.csv").read_text().splitlines()
        assert lines[0] == "norm_t,phi"
        curve = sorted(tuple(map(float, line.split(","))) for line in lines[1:])
        for name, header, y_of in (
                ("power", "log_norm_t,log_phi", math.log),
                ("stretched", "log_norm_t,log_neg_log_phi",
                 lambda phi: math.log(-math.log(phi)))):
            lo, hi = fits[name]["window"]
            want = [(math.log(s), y_of(phi)) for s, phi in curve
                    if lo <= phi <= hi]
            lines = (out / f"{name}_fit_points.csv").read_text().splitlines()
            assert lines[0] == header
            got = [tuple(map(float, line.split(","))) for line in lines[1:]]
            assert len(got) >= 5
            assert got == want

    @pytest.mark.parametrize("flags", [["--alpha", "2", "--lambda", "1"], []])
    def test_fresh_sampler_model(self, tmp_path, flags):
        # the estimators run on sampler batches; the exact side checks,
        # which need a finite-atom model, are left out
        path = tmp_path / "sampler.json"
        path.write_text(json.dumps({"p": 2, "mode": "sampler", "sampler": {
            "family": "uniform",
            "params": {"n_children": 2, "low": 0.1, "high": 0.4}}}))
        sim = _simulated(tmp_path, path, n=3, replicates=200, seed=1)
        out = tmp_path / "est"
        assert main(["estimate", "--model", str(path), "--batch", sim, *flags,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "estimates.json").read_text())
        rows = doc.get("moments", []) + doc.get("harmonic", [])
        assert len(rows) == len(flags) // 2
        assert all(row["condition"] is None for row in rows)

    def test_moment_overflow_reported_as_inf(self, tmp_path, capsys):
        # ||Y_8||^1100 overflows on some replicates of MODEL_R: the sample
        # mean is inf, with no warning and no usable spread
        path = tmp_path / "model-r.json"
        path.write_text(json.dumps(MODEL_R))
        sim = _simulated(tmp_path, path, n=8, replicates=500, seed=1)
        out = tmp_path / "est"
        assert main(["estimate", "--model", str(path), "--batch", sim,
                     "--alpha", "1100", "--alpha", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        huge, two = (row["estimate"] for row in json.loads(
            (out / "estimates.json").read_text())["moments"])
        assert (huge["point"], huge["stderr"]) == (math.inf, math.inf)
        assert huge["ci95"] == [-math.inf, math.inf]
        assert math.isfinite(two["point"]) and two["stderr"] > 0

    def test_manifest_names_its_batch(self, tmp_path):
        # the manifest's batch and config reproduce estimates.json bitwise
        path = tmp_path / "model-r.json"
        path.write_text(json.dumps(MODEL_R))
        sim = _simulated(tmp_path, path, n=4, replicates=300, seed=7)
        out = tmp_path / "est"
        assert main(["estimate", "--model", str(path), "--batch", sim,
                     "--alpha", "2", "--lambda", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["batch"] == {"n": 4, "replicates": 300, "seed": 7,
                                     "cap": engine.DEFAULT_CAP}
        config = manifest["config"]
        assert not {"fresh", "n", "replicates", "seed", "cap"} & set(config)
        # simulate the named batch again, then rerun the recorded argv on it
        again, redo = tmp_path / "again", tmp_path / "redo"
        drawn = manifest["batch"]
        assert main(["simulate", "--model", str(path), "--n", str(drawn["n"]),
                     "--replicates", str(drawn["replicates"]),
                     "--seed", str(drawn["seed"]), "--cap", str(drawn["cap"]),
                     "--out", str(again)]) == 0
        moved = {sim: str(again), str(out): str(redo)}
        assert main([moved.get(a, a) for a in manifest["argv"]]) == 0
        assert ((redo / "estimates.json").read_bytes()
                == (out / "estimates.json").read_bytes())

    def test_manifest_tells_caps_apart(self, tmp_path):
        # one or three children: the same draw with and without a cap of 60
        # leaves different replicates to average over
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"p": 1, "atoms": [{"prob": 0.5, "matrices": [[[1.0]]]},
                               {"prob": 0.5, "matrices": [[[0.4]], [[0.3]], [[0.3]]]}]}))
        capped = {}
        for cap in (engine.DEFAULT_CAP, 60):
            sim, est = tmp_path / f"sim{cap}", tmp_path / f"est{cap}"
            assert main(["simulate", "--model", str(path), "--n", "6",
                         "--replicates", "200", "--seed", "1", "--cap", str(cap),
                         "--out", str(sim)]) == 0
            assert main(["estimate", "--model", str(path), "--batch", str(sim),
                         "--alpha", "2", "--out", str(est)]) == 0
            meta = json.loads((sim / "batch_meta.json").read_text())
            manifest = json.loads((est / "manifest.json").read_text())
            assert meta["cap"] == manifest["batch"]["cap"] == cap
            capped[cap] = meta["capped_count"]
        assert capped[60] > capped[engine.DEFAULT_CAP] == 0

    def test_missing_batch_exit2(self, model_c_path, tmp_path):
        code = main(["estimate", "--model", model_c_path, "--batch",
                     str(tmp_path / "missing"), "--out", str(tmp_path / "e")])
        assert code == 2


class TestMbrwBuild:
    def test_build_and_load(self, tmp_path, capsys):
        spec = tmp_path / "tt1.json"
        spec.write_text(json.dumps(TT1))
        out_model = tmp_path / "built.json"
        code = main(["mbrw-build", "--spec", str(spec), "--t", "1.0",
                     "--alpha", "2", "--out-model", str(out_model)])
        assert code == 0
        model = load_model(str(out_model))
        m = model.mean_matrix()
        assert abs(m[0, 0] - 2 / 3) < 1e-12 and abs(m[0, 1] - 1 / 3) < 1e-12
        assert "[T2.1a]" in capsys.readouterr().out

    def test_walk_alpha_rows_past_critical_order(self, wide_walk_doc, tmp_path,
                                                 capsys):
        # the seed-1 walk's critical order is 9.0018 (rho_1(alpha) = 1):
        # above it the necessary side fails at depth 1
        spec = tmp_path / "walk.json"
        spec.write_text(json.dumps(wide_walk_doc))
        code = main(["mbrw-build", "--spec", str(spec), "--t", "1",
                     "--alpha", "2", "--alpha", "9.1", "--alpha", "9.5",
                     "--out-model", str(tmp_path / "m.json")])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        verdicts = [row for row in rows if row and row[0].startswith("[")]
        assert verdicts == [["[T2.1a]", "verdict:", v]
                            for v in ("undecided", "fails", "fails")]

    @pytest.mark.parametrize("spec_doc", [TT1, "wide_walk"])
    def test_alpha_rows_equal_check_rows(self, spec_doc, tmp_path, capsys,
                                         request):
        # mbrw-build prints the T2.1a blocks that check --n-max 1 writes
        # for the model file it wrote
        if spec_doc == "wide_walk":
            spec_doc = request.getfixturevalue("wide_walk_doc")
        spec, built = tmp_path / "spec.json", tmp_path / "m.json"
        spec.write_text(json.dumps(spec_doc))
        alphas = ["--alpha", "1.5", "--alpha", "2", "--alpha", "9.5"]
        assert main(["mbrw-build", "--spec", str(spec), "--t", "1", *alphas,
                     "--lambda", "1", "--out-model", str(built)]) == 0
        printed = capsys.readouterr().out.strip().split("\n\n")
        assert main(["check", "--model", str(built), *alphas, "--n-max", "1",
                     "--out", str(tmp_path / "check")]) == 0
        written = (tmp_path / "check" / "conditions.txt").read_text().strip().split(
            "\n\n")
        assert [b for b in written if b.startswith("[T2.1a]")] == printed[:3]
        assert printed[3].startswith("[C2.4b]")

    def test_epsilon_reaches_report(self, tmp_path, capsys):
        spec = tmp_path / "tt1.json"
        spec.write_text(json.dumps(TT1))
        code = main(["mbrw-build", "--spec", str(spec), "--t", "1", "--lambda", "1",
                     "--epsilon", "0.7", "--out-model", str(tmp_path / "m.json")])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["epsilon", "0.7"] in rows

    def test_every_repeat_reported(self, tmp_path, capsys):
        spec = tmp_path / "tt1.json"
        spec.write_text(json.dumps(TT1))
        code = main(["mbrw-build", "--spec", str(spec), "--t", "1",
                     "--alpha", "2", "--alpha", "3", "--lambda", "1", "--lambda", "2",
                     "--epsilon", "0", "--epsilon", "0.5",
                     "--out-model", str(tmp_path / "m.json")])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        theorems = [row[0] for row in rows if row and row[0].startswith("[")]
        assert theorems == ["[T2.1a]"] * 2 + ["[C2.4b]"] * 4
        orders = [row for row in rows if row and row[0] in ("alpha", "lambda", "epsilon")]
        assert orders == [["alpha", "2"], ["alpha", "3"],
                          ["lambda", "1"], ["epsilon", "0"],
                          ["lambda", "1"], ["epsilon", "0.5"],
                          ["lambda", "2"], ["epsilon", "0"],
                          ["lambda", "2"], ["epsilon", "0.5"]]

    def test_plain_reading_overflow_outside_report(self, tmp_path, capsys):
        # exp(-lambda * S) at S = -800 overflows, but no reported quantity
        # uses it: the per-type sum is reported in the t-reading only
        spec = tmp_path / "edge.json"
        spec.write_text(json.dumps({"p": 1, "types": [{"offspring": [
            {"prob": 0.5, "children": [{"type": 1, "disp": -800.0},
                                       {"type": 1, "disp": 0.0}]},
            {"prob": 0.5, "children": [{"type": 1, "disp": 0.0}]}]}]}))
        code = main(["mbrw-build", "--spec", str(spec), "--t", "0.01",
                     "--lambda", "1", "--out-model", str(tmp_path / "m.json")])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["[C2.4b]", "verdict:", "holds"] in rows
        # 0.5 exp(0.01 * 800) + 0.5 exp(0), and one child of disp 0 w.p. 0.5
        assert ["max_i", "E", "exp(-(lam+eps)*t*S_1^i)",
                f"{0.5 * math.exp(8.0) + 0.5:.12g}"] in rows
        assert sum(row[-1] == "0.5" for row in rows if row[:2] == ["E", "max_i"]) == 2

    @pytest.mark.parametrize("offspring,t,reason", [
        # PM1 at t = 0: both weights are 1/2, and M(1100) = 2 * 2^-1100
        # underflows to 0
        ([[(1.0, [(1, 1.0), (1, -1.0)])]], "0",
         "M_1(alpha) underflows to the zero matrix"),
        # rho~ = 2 at every t: every weight is 1/2, and M(1100) is 0
        ([[(1.0, [(1, 0.0), (2, 0.0)])]] * 2, "1",
         "M_1(alpha) underflows to the zero matrix"),
        # one child, at disp 0 or 5: rho~(1)^1100 underflows to 0, so the
        # weight 1 / rho~(1) = 1.99 gives an M(1100) past the float range
        ([[(0.5, [(1, 0.0)]), (0.5, [(1, 5.0)])]], "1", "non-finite entries"),
    ], ids=["pm1", "two-type", "underflow"])
    def test_alpha_criterion_out_of_range(self, offspring, t, reason,
                                          tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p": len(offspring), "types": [
            {"offspring": [{"prob": prob, "children": [
                {"type": j, "disp": disp} for j, disp in children]}
                for prob, children in configs]} for configs in offspring]}))
        code = main(["mbrw-build", "--spec", str(spec), "--t", t, "--alpha", "1100",
                     "--out-model", str(tmp_path / "m.json")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split() for line in captured.out.splitlines()]
        assert ["[T2.1a]", "verdict:", "undecided"] in rows
        assert f"note: rho_1(alpha) unavailable: {reason}\n" in captured.out

    def test_bad_spec_exit2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{")
        code = main(["mbrw-build", "--spec", str(spec), "--t", "1.0",
                     "--out-model", str(tmp_path / "m.json")])
        assert code == 2


class TestReport:
    def test_renders_conditions(self, model_c_path, tmp_path, capsys):
        out = tmp_path / "check"
        main(["check", "--model", model_c_path, "--alpha", "2",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["report", "--input", str(out / "conditions.json")])
        assert code == 0
        assert "verdict" in capsys.readouterr().out

    def test_missing_input(self, tmp_path):
        assert main(["report", "--input", str(tmp_path / "nope.json")]) == 2


def _model(**atom):
    """MODEL_A with its atom's fields replaced (None deletes a field)."""
    doc = copy.deepcopy(MODEL_A)
    doc["atoms"][0].update(atom)
    doc["atoms"][0] = {k: v for k, v in doc["atoms"][0].items() if v is not None}
    return doc


def _spec(edit):
    doc = copy.deepcopy(TT1)
    edit(doc)
    return doc


def _sampler(doc, **params):
    doc = copy.deepcopy(doc)
    doc["sampler"]["params"].update(params)
    return doc


def _first_child(doc):
    return doc["types"][0]["offspring"][0]["children"][0]


MALFORMED_MODELS = {
    "missing-prob": _model(prob=None),
    "missing-matrices": _model(matrices=None),
    "text-entry": _model(matrices=[[["abc"]], [[0.5]]]),
    "text-prob": _model(prob="x"),
    "matrices-number": _model(matrices=3),
    "text-p": dict(MODEL_A, p="x"),
    "atoms-number": dict(MODEL_A, atoms=5),
    "row-number": _model(matrices=[[5], [[0.5]]]),
    "sampler-text-n-children": {
        "p": 1, "mode": "sampler",
        "sampler": {"family": "uniform", "params": {"n_children": "x"}}},
    "sampler-mean-overflow": {
        "p": 1, "mode": "sampler",
        "sampler": {"family": "lognormal", "params": {"n_children": 2, "mu": 800}}},
    "fractional-p": dict(MODEL_C, p=2.5),
    # the shapes are checked before any (N, p, p) array is allocated
    "p-above-rows": dict(MODEL_A, p=1_000_000),
    # a 10^10 x 10^10 mean matrix exceeds the address space: nothing is allocated
    "sampler-p-unallocatable": {
        "p": 10**10, "mode": "sampler",
        "sampler": {"family": "uniform", "params": {"n_children": 2}}},
    # a string, a boolean or null where a number is meant is refused, not
    # converted
    "string-p": dict(MODEL_C, p="2"),
    "bool-p": dict(MODEL_A, p=True),
    "string-prob": _model(prob="1"),
    "null-prob": dict(MODEL_A, atoms=[dict(MODEL_A["atoms"][0], prob=None)]),
    "string-entry": _model(matrices=[[["0.5"]], [[0.5]]]),
    "bool-entry": _model(matrices=[[[True]], [[0.5]]]),
    "complex-string-entry": {"p": 1, "field": "complex",
                             "atoms": [{"prob": 1.0, "matrices": [[[[0.5, "0"]]]]}]},
    "sampler-bool-n-children": {
        "p": 1, "mode": "sampler",
        "sampler": {"family": "uniform", "params": {"n_children": True}}},
}

MALFORMED_SPECS = {
    "missing-p": _spec(lambda d: d.pop("p")),
    "missing-types": _spec(lambda d: d.pop("types")),
    "missing-offspring": _spec(lambda d: d["types"][0].pop("offspring")),
    "missing-prob": _spec(lambda d: d["types"][0]["offspring"][0].pop("prob")),
    "missing-children": _spec(
        lambda d: d["types"][0]["offspring"][0].pop("children")),
    "missing-type": _spec(lambda d: _first_child(d).pop("type")),
    "missing-disp": _spec(lambda d: _first_child(d).pop("disp")),
    "text-type": _spec(lambda d: _first_child(d).update(type="a")),
    "fractional-type": _spec(lambda d: _first_child(d).update(type=1.5)),
    "tilted-weight-overflow": _spec(lambda d: _first_child(d).update(disp=-1000)),
    "fractional-p": _spec(lambda d: d.update(p=2.5)),
    "string-p": _spec(lambda d: d.update(p="2")),
    "string-prob": _spec(lambda d: d["types"][0]["offspring"][0].update(prob="1")),
    "bool-type": _spec(lambda d: _first_child(d).update(type=True)),
    "string-disp": _spec(lambda d: _first_child(d).update(disp="0")),
}


def _check_model(doc, *flags):
    return _check_text(json.dumps(doc), *flags)


def _check_text(text, *flags):
    def argv(tmp_path):
        path = tmp_path / "model.json"
        path.write_text(text)
        return ["check", "--model", str(path), "--alpha", "2", *flags,
                "--out", str(tmp_path / "o")]
    return argv


def _build_spec(doc, *flags):
    def argv(tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return ["mbrw-build", "--spec", str(path), "--t", "1.0", *flags,
                "--out-model", str(tmp_path / "m.json")]
    return argv


def _estimate_batch(damage, *flags, alpha="2", doc=MODEL_C):
    """estimate --batch --alpha alpha (none if alpha is None), with flags,
    on a simulate output of doc that damage(directory) broke."""
    def argv(tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        sim = tmp_path / "sim"
        assert main(["simulate", "--model", str(model), "--n", "3",
                     "--replicates", "20", "--seed", "1",
                     "--out", str(sim)]) == 0
        damage(sim)
        return ["estimate", "--model", str(model), "--batch", str(sim),
                *(["--alpha", alpha] if alpha else []), *flags,
                "--out", str(tmp_path / "e")]
    return argv


def _simulate_model(doc, *flags):
    def argv(tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return ["simulate", "--model", str(path), "--n", "3", "--replicates",
                "8", "--seed", "1", *flags, "--out", str(tmp_path / "o")]
    return argv


def _truncate(sim):
    blob = (sim / "batch.bin").read_bytes()
    (sim / "batch.bin").write_bytes(blob[:-5])


def _foreign_bin(doc, n, replicates):
    """Damage for _estimate_batch: batch.bin replaced by that of a seed-1
    simulate run of doc at depth n."""
    def damage(sim):
        model, other = sim.parent / "foreign.json", sim.parent / "foreign"
        model.write_text(json.dumps(doc))
        assert main(["simulate", "--model", str(model), "--n", str(n),
                     "--replicates", str(replicates), "--seed", "1",
                     "--out", str(other)]) == 0
        (sim / "batch.bin").write_bytes((other / "batch.bin").read_bytes())
    return damage


def _patch_bin(offset, data):
    """Damage for _estimate_batch: the bytes of batch.bin from offset on
    replaced by data."""
    def damage(sim):
        blob = bytearray((sim / "batch.bin").read_bytes())
        blob[offset:offset + len(data)] = data
        (sim / "batch.bin").write_bytes(bytes(blob))
    return damage


def _edit_meta(**fields):
    """Damage for _estimate_batch: fields of batch_meta.json replaced."""
    def damage(sim):
        path = sim / "batch_meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    return damage


def _report(doc):
    def argv(tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        return ["report", "--input", str(path)]
    return argv


MALFORMED_INPUTS = {
    **{f"model-{k}": _check_model(v) for k, v in MALFORMED_MODELS.items()},
    **{f"spec-{k}": _build_spec(v) for k, v in MALFORMED_SPECS.items()},
    "mbrw-build-alpha-1": _build_spec(TT1, "--alpha", "1"),
    "mbrw-build-lambda-negative": _build_spec(TT1, "--lambda", "-1"),
    "mbrw-build-alpha-nan": _build_spec(TT1, "--alpha", "nan"),
    "mbrw-build-lambda-nan": _build_spec(TT1, "--lambda", "nan"),
    "mbrw-build-epsilon-nan": _build_spec(TT1, "--lambda", "1", "--epsilon", "nan"),
    "check-alpha-nan": _check_model(MODEL_C, "--alpha", "nan"),
    "check-alpha-inf": _check_model(MODEL_C, "--alpha", "inf"),
    "check-lambda-nan": _check_model(MODEL_C, "--lambda", "nan"),
    "check-epsilon-nan": _check_model(MODEL_C, "--epsilon", "nan"),
    "check-n-max-0": _check_model(MODEL_C, "--n-max", "0"),
    "check-n-max-0-complex": _check_model(PHASE, "--n-max", "0"),
    # a real model never reaches the complex check that reads --beta
    "check-beta-7": _check_model(MODEL_C, "--beta", "7"),
    "mbrw-build-t-nan": _build_spec(TT1, "--t", "nan"),
    "mbrw-build-t-inf": _build_spec(TT1, "--t", "inf"),
    "estimate-alpha-nan": _estimate_batch(lambda d: None, "--alpha", "nan"),
    "estimate-lambda-nan": _estimate_batch(lambda d: None, "--lambda", "nan"),
    "estimate-t-max-inf": _estimate_batch(lambda d: None, "--laplace-fit",
                                          "--t-max", "inf"),
    # no order above 1, so no side check would see the flag
    "estimate-n-max-0": _estimate_batch(lambda d: None, "--n-max", "0", alpha="1"),
    "batch-truncated": _estimate_batch(_truncate),
    "batch-bin-missing": _estimate_batch(lambda d: (d / "batch.bin").unlink()),
    "batch-meta-not-json": _estimate_batch(
        lambda d: (d / "batch_meta.json").write_text("{")),
    "batch-meta-no-model-id": _estimate_batch(
        lambda d: (d / "batch_meta.json").write_text("{}")),
    "batch-meta-model-id-null": _estimate_batch(
        lambda d: (d / "batch_meta.json").write_text('{"model_id": null}')),
    # the metadata says n=3, R=20; batch.bin holds n=5, R=7
    "batch-bin-other-n-r": _estimate_batch(_foreign_bin(MODEL_C, 5, 7)),
    # the metadata names the p=2 model; batch.bin holds a p=1 batch
    "batch-bin-other-p": _estimate_batch(_foreign_bin(MODEL_A, 3, 20)),
    # MODEL_C's batch.bin: 20 flag bytes from byte 28, then 20 rows of
    # two values from byte 48
    "batch-flag-bit-2": _estimate_batch(_patch_bin(28 + 3, b"\x04")),
    "batch-flags-both": _estimate_batch(_patch_bin(28 + 5, b"\x03")),
    "batch-nan-uncapped": _estimate_batch(
        _patch_bin(48 + 16 * 7 + 8, struct.pack("<d", math.nan))),
    "batch-meta-string-n": _estimate_batch(_edit_meta(n="3")),
    "batch-meta-bool-replicates": _estimate_batch(_edit_meta(replicates=True)),
    "batch-meta-string-seed": _estimate_batch(_edit_meta(seed="x")),
    "batch-meta-float-seed": _estimate_batch(_edit_meta(seed=1.0)),
    "batch-meta-list-cap": _estimate_batch(_edit_meta(cap=[1])),
    "batch-meta-bool-cap": _estimate_batch(_edit_meta(cap=True)),
    "batch-meta-cap-0": _estimate_batch(_edit_meta(cap=0)),
    "simulate-cap-0": _simulate_model(MODEL_C, "--cap", "0"),
    "simulate-sampler-text-mu": _simulate_model(_sampler(LOGNORMAL, mu="abc")),
    "simulate-sampler-nan-mu": _simulate_model(_sampler(LOGNORMAL, mu="nan")),
    "simulate-sampler-text-high": _simulate_model(_sampler(UNIFORM, high="x")),
    "simulate-sampler-string-low": _simulate_model(_sampler(UNIFORM, low="0.1")),
    "simulate-sampler-inf-high": _simulate_model(_sampler(UNIFORM, high="inf")),
    "simulate-sampler-low-above-high": _simulate_model(
        _sampler(UNIFORM, low=0.5, high=0.1)),
    "simulate-sampler-fractional-n-children": _simulate_model(
        _sampler(UNIFORM, n_children=2.7)),
    # mu + sigma^2/2 is inf, so the mean is exp(inf) without an OverflowError
    "simulate-sampler-mean-inf": _simulate_model(
        _sampler(LOGNORMAL, mu=1.7e308, sigma=1.3e154)),
    "simulate-cap-negative": _simulate_model(MODEL_C, "--cap", "-1"),
    # the Philox key word holds [0, 2^64): -1 would draw the batch of 2^64 - 1
    "simulate-seed-negative": _simulate_model(MODEL_C, "--seed", "-1"),
    "simulate-seed-2-64": _simulate_model(MODEL_C, "--seed", str(2**64)),
    "simulate-sampler-overflow": _simulate_model(OVERFLOWING),
    # no batch of so many rows can be allocated
    "simulate-replicates-2-62": _simulate_model(MODEL_A, "--replicates", str(2**62)),
    "simulate-replicates-1e20": _simulate_model(MODEL_A, "--replicates", str(10**20)),
    # a flag that the model cannot serve is refused, not dropped
    "check-lambda-complex": _check_model(PHASE, "--lambda", "1"),
    "check-epsilon-complex": _check_model(PHASE, "--epsilon", "0.5"),
    "check-beta-real": _check_model(MODEL_C, "--beta", "1.5"),
    "estimate-laplace-fit-complex": _estimate_batch(
        lambda d: None, "--laplace-fit", alpha=None, doc=PHASE),
    "mbrw-build-epsilon-without-lambda": _build_spec(TT1, "--epsilon", "0.5"),
    "report-not-rows": _report([1]),
    "model-nested-too-deeply": _check_text("[" * 100_000 + "]" * 100_000),
    "report-row-incomplete": _report([{"theorem": "x"}]),
}

# cases whose message must name the offending flag or model parameter
FLAG_NAMED = {"check-n-max-0-complex": "--n-max", "estimate-n-max-0": "--n-max",
              "mbrw-build-t-nan": "--t", "mbrw-build-t-inf": "--t",
              "check-beta-7": "--beta",
              "check-lambda-complex": "--lambda",
              "check-epsilon-complex": "--epsilon",
              "check-beta-real": "--beta",
              "estimate-laplace-fit-complex": "Laplace",
              "mbrw-build-epsilon-without-lambda": "--epsilon",
              "simulate-seed-negative": "--seed",
              "simulate-seed-2-64": "--seed",
              "simulate-replicates-2-62": "replicates",
              "simulate-replicates-1e20": "replicates",
              "simulate-sampler-text-mu": "params.mu",
              "simulate-sampler-nan-mu": "params.mu",
              "simulate-sampler-text-high": "params.high",
              "simulate-sampler-string-low": "params.low",
              "simulate-sampler-inf-high": "params.high",
              "simulate-sampler-low-above-high": "params.high",
              "simulate-sampler-fractional-n-children": "params.n_children",
              "simulate-sampler-mean-inf": "sampler mean",
              "model-fractional-p": "dimension p",
              "spec-fractional-p": "dimension p"}

# the stderr line of each case, tmp_path written {tmp}
PINNED_ERRORS = {
    "batch-bin-other-n-r":
        "error: batch.bin holds n=5, R=7; batch_meta.json says n=3, R=20",
    "batch-bin-other-p": "error: batch.bin holds p=1; the model has p=2",
    "batch-bin-missing":
        "error: [Errno 2] No such file or directory: '{tmp}/sim/batch.bin'",
    "batch-flag-bit-2": "error: batch file row 3 sets a flag bit above bit 1",
    "batch-flags-both": "error: batch file row 5 is flagged both extinct and capped",
    "batch-meta-bool-replicates":
        "error: batch metadata replicates must be an integer, got True",
    "batch-meta-model-id-null": "error: batch metadata has no model_id",
    "batch-meta-no-model-id": "error: batch metadata has no model_id",
    "batch-meta-not-json":
        "error: parse error in {tmp}/sim/batch_meta.json: Expecting property "
        "name enclosed in double quotes: line 1 column 2 (char 1)",
    "batch-meta-string-n": "error: batch metadata n must be an integer, got '3'",
    "batch-meta-string-seed":
        "error: batch metadata seed must be an integer, got 'x'",
    "batch-meta-float-seed": "error: batch metadata seed must be an integer, got 1.0",
    "batch-meta-list-cap": "error: batch metadata cap must be an integer, got [1]",
    "batch-meta-bool-cap": "error: batch metadata cap must be an integer, got True",
    "batch-meta-cap-0": "error: batch metadata cap must be >= 1, got 0",
    "batch-nan-uncapped":
        "error: batch file row 7 holds a non-finite value but is not capped",
    "batch-truncated": "error: batch file has 363 bytes, its header implies 368",
    "check-alpha-inf": "error: alpha must be > 1 and finite",
    "check-alpha-nan": "error: alpha must be > 1 and finite",
    "check-beta-7": "error: --beta must lie in (1, 2], got 7.0",
    "check-beta-real": "error: --beta does not apply to a real model",
    "check-epsilon-complex": "error: --epsilon does not apply to a complex model",
    "check-lambda-complex": "error: --lambda does not apply to a complex model",
    "check-epsilon-nan": "error: epsilon must be >= 0 and finite",
    "check-lambda-nan": "error: lambda must be positive and finite",
    "check-n-max-0": "error: --n-max must be >= 1",
    "check-n-max-0-complex": "error: --n-max must be >= 1",
    "estimate-alpha-nan": "error: alpha must be positive and finite",
    "estimate-laplace-fit-complex":
        "error: Laplace estimator needs a real-mode batch",
    "estimate-lambda-nan": "error: lambda must be positive and finite",
    "estimate-n-max-0": "error: --n-max must be >= 1",
    "estimate-t-max-inf": "error: --t-min and --t-max must be positive and finite",
    "mbrw-build-alpha-1": "error: alpha must be > 1 and finite",
    "mbrw-build-alpha-nan": "error: alpha must be > 1 and finite",
    "mbrw-build-epsilon-nan": "error: epsilon must be finite",
    "mbrw-build-epsilon-without-lambda":
        "error: --epsilon applies only with --lambda",
    "mbrw-build-lambda-nan": "error: lambda must be positive and finite",
    "mbrw-build-lambda-negative": "error: lambda must be positive and finite",
    "mbrw-build-t-inf": "error: --t must be finite, got inf",
    "mbrw-build-t-nan": "error: --t must be finite, got nan",
    "model-atoms-number": "error: malformed model: 'int' object is not iterable",
    "model-bool-entry":
        "error: malformed model: matrix entry must be a number, got True",
    "model-bool-p": "error: malformed model: dimension p must be a number, got True",
    "model-complex-string-entry":
        "error: malformed model: matrix entry must be a number, got '0'",
    "model-fractional-p": "error: dimension p must be an integer, got 2.5",
    "model-matrices-number":
        "error: malformed model: object of type 'int' has no len()",
    "model-missing-matrices": "error: malformed model: missing key 'matrices'",
    "model-nested-too-deeply":
        "error: parse error in {tmp}/model.json: JSON nested too deeply",
    "model-missing-prob": "error: malformed model: missing key 'prob'",
    "model-null-prob":
        "error: malformed model: float() argument must be a string or a real "
        "number, not 'NoneType'",
    "model-p-above-rows": "error: matrix has 1 rows, expected 1000000",
    "model-row-number": "error: malformed model: object of type 'int' has no len()",
    "model-sampler-bool-n-children":
        "error: sampler params.n_children must be a finite number, got True",
    "model-sampler-mean-overflow":
        "error: lognormal sampler mean params.n_children * E[entry] overflows "
        "the float range",
    "model-sampler-p-unallocatable":
        "error: the 10000000000 x 10000000000 mean matrix cannot be allocated",
    "model-sampler-text-n-children":
        "error: sampler params.n_children must be a finite number, got 'x'",
    "model-string-entry":
        "error: malformed model: matrix entry must be a number, got '0.5'",
    "model-string-p": "error: malformed model: dimension p must be a number, got '2'",
    "model-string-prob": "error: malformed model: atom prob must be a number, got '1'",
    "model-text-entry":
        "error: malformed model: could not convert string to float: 'abc'",
    "model-text-p":
        "error: malformed model: invalid literal for int() with base 10: 'x'",
    "model-text-prob": "error: malformed model: could not convert string to float: 'x'",
    "report-not-rows": "error: malformed report: 'int' object is not subscriptable",
    "report-row-incomplete": "error: malformed report: missing key 'verdict'",
    "simulate-cap-0": "error: population cap must be >= 1, got 0",
    "simulate-cap-negative": "error: population cap must be >= 1, got -1",
    "simulate-seed-negative": "error: --seed must lie in [0, 2^64), got -1",
    "simulate-seed-2-64":
        "error: --seed must lie in [0, 2^64), got 18446744073709551616",
    "simulate-sampler-fractional-n-children":
        "error: sampler params.n_children must be an integer >= 1, got 2.7",
    "simulate-sampler-inf-high":
        "error: sampler params.high must be a finite number, got 'inf'",
    "simulate-sampler-low-above-high":
        "error: sampler requires 0 <= params.low <= params.high, got low=0.5, "
        "high=0.1",
    "simulate-sampler-mean-inf":
        "error: lognormal sampler mean params.n_children * E[entry] overflows "
        "the float range",
    "simulate-sampler-overflow":
        "error: replicate 0 overflowed: its depth-3 value is not finite",
    "simulate-replicates-2-62":
        "error: a batch of 4611686018427387904 replicates cannot be allocated",
    "simulate-replicates-1e20":
        "error: a batch of 100000000000000000000 replicates cannot be allocated",
    "simulate-sampler-nan-mu":
        "error: sampler params.mu must be a finite number, got 'nan'",
    "simulate-sampler-string-low":
        "error: sampler params.low must be a finite number, got '0.1'",
    "simulate-sampler-text-high":
        "error: sampler params.high must be a finite number, got 'x'",
    "simulate-sampler-text-mu":
        "error: sampler params.mu must be a finite number, got 'abc'",
    "spec-bool-type": "error: malformed spec: child type must be a number, got True",
    "spec-fractional-p": "error: dimension p must be an integer, got 2.5",
    "spec-fractional-type": "error: child type 1.5 is not an integer in 1..2",
    "spec-missing-children": "error: malformed spec: missing key 'children'",
    "spec-missing-disp": "error: malformed spec: missing key 'disp'",
    "spec-missing-offspring": "error: malformed spec: missing key 'offspring'",
    "spec-missing-p": "error: malformed spec: missing key 'p'",
    "spec-missing-prob": "error: malformed spec: missing key 'prob'",
    "spec-missing-type": "error: malformed spec: missing key 'type'",
    "spec-missing-types": "error: malformed spec: missing key 'types'",
    "spec-string-disp": "error: malformed spec: child disp must be a number, got '0'",
    "spec-string-p": "error: malformed spec: dimension p must be a number, got '2'",
    "spec-string-prob": "error: malformed spec: config prob must be a number, got '1'",
    "spec-text-type": "error: malformed spec: could not convert string to float: 'a'",
    "spec-tilted-weight-overflow":
        "error: tilted displacement weight exp(1000.0) overflows the float range",
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exit2_one_line(self, case, tmp_path, capsys):
        argv = MALFORMED_INPUTS[case](tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        flag = FLAG_NAMED.get(case)
        assert flag is None or flag in lines[0], err

    @pytest.mark.parametrize("message, want", [
        ("Unable to allocate 74.5 GiB for an array with shape (1, 100000, 100000) "
         "and data type float64",
         "error: Unable to allocate 74.5 GiB for an array with shape "
         "(1, 100000, 100000) and data type float64"),
        ("", "error: out of memory")])
    def test_memory_error_exit2_one_line(self, message, want, tmp_path, capsys,
                                         monkeypatch):
        # a childless model of large p: its mean matrix would take 74.5 GiB,
        # so the allocation is planted rather than made
        def unallocatable(weights, mats, t):
            raise MemoryError(message)

        monkeypatch.setattr(spectral, "_power_sum", unallocatable)
        argv = _check_model({"p": 100000, "atoms": [{"prob": 1.0, "matrices": []}]})
        assert main(argv(tmp_path)) == 2
        assert capsys.readouterr().err == want + "\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_message_pinned(self, case, tmp_path, capsys):
        argv = MALFORMED_INPUTS[case](tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        want = PINNED_ERRORS[case].replace("{tmp}", str(tmp_path))
        assert capsys.readouterr().err == want + "\n"


class TestWorkerFailure:
    """A worker that fails ends simulate with exit 2 and one stderr line,
    and leaves no process behind."""

    @pytest.fixture(autouse=True)
    def sharded(self, monkeypatch):
        # eight shards of 6 or 7 replicates over two workers, and a failure
        # rather than a hang if the run does not end
        monkeypatch.setattr(engine, "CHUNK", 7)
        monkeypatch.setattr(engine, "usable_cores", lambda: 2)

        def hung(signum, frame):
            pytest.fail("simulate did not end within 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def planted(self):
        raise MatcascadeError("planted failure")

    def out_of_memory(self):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    def killed(self):
        os._exit(1)

    @pytest.mark.parametrize("fail, want", [
        ("planted", "error: planted failure"),
        ("out_of_memory", "error: Unable to allocate 74.5 GiB for an array"),
        ("killed", "error: a worker process died: ")])
    def test_exit2_one_line(self, fail, want, model_c_path, tmp_path, capfd,
                            monkeypatch):
        parent, run_chunk, fail = os.getpid(), engine._run_chunk, getattr(self, fail)

        def failing(model, n, rows, *rest):
            # the shard that holds the last replicate fails, in a worker
            if rows[-1] == 49 and os.getpid() != parent:
                fail()
            return run_chunk(model, n, rows, *rest)

        monkeypatch.setattr(engine, "_run_chunk", failing)
        out = tmp_path / "o"
        assert main(["simulate", "--model", model_c_path, "--n", "3",
                     "--replicates", "50", "--seed", "1", "--out", str(out)]) == 2
        # read at the file descriptor, so a worker's stderr would show too
        err = capfd.readouterr().err
        assert err.startswith(want) and err.count("\n") == 1, err
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestParser:
    def test_flag_surface(self):
        # every subcommand's option strings: adding or removing a flag is
        # an edit here
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        surface = {name: [s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help")]
                   for name, p in sub.choices.items()}
        assert surface == {
            "check": ["--model", "--alpha", "--lambda", "--epsilon", "--beta",
                      "--n-max", "--out"],
            "simulate": ["--model", "--n", "--replicates", "--seed", "--cap",
                         "--out"],
            "estimate": ["--model", "--batch", "--alpha", "--lambda", "--n-max",
                         "--laplace-fit", "--t-min", "--t-max", "--out"],
            "mbrw-build": ["--spec", "--t", "--alpha", "--lambda", "--epsilon",
                           "--out-model"],
            "report": ["--input"],
        }
        assert sum(map(len, surface.values())) == 29


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["simulate", "--n", "2"]) == 1

    @pytest.mark.parametrize("flag", [["--fresh"], ["--n", "3"],
                                      ["--replicates", "20"], ["--seed", "1"],
                                      ["--cap", "8"]])
    def test_estimate_takes_no_draw_flag(self, flag, model_c_path, tmp_path):
        # estimate reads simulate's batch; it draws none of its own
        sim = _simulated(tmp_path, model_c_path, n=3, replicates=20, seed=1)
        assert main(["estimate", "--model", model_c_path, "--batch", sim,
                     "--alpha", "2", *flag, "--out", str(tmp_path / "e")]) == 1
        assert not (tmp_path / "e").exists()

    def test_check_n_is_not_n_max(self, model_c_path, tmp_path, capsys):
        # simulate's depth flag typed to check, once read as --n-max 2
        assert main(["check", "--model", model_c_path, "--n", "2", "--alpha", "2",
                     "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments: --n 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["check", "--mod", "{model}", "--model", "{model}", "--alpha", "2"],
        ["simulate", "--model", "{model}", "--n", "2", "--rep", "4", "--seed", "1"],
        ["mbrw-build", "--spec", "{model}", "--t", "1", "--out", "{tmp}/m.json"],
        ["report", "--in", "{model}"]])
    def test_flag_prefix_refused(self, argv, model_c_path, tmp_path):
        # every subcommand takes its flags only in full
        out = tmp_path / "o"
        argv = [a.format(model=model_c_path, tmp=tmp_path) for a in argv]
        assert main(argv + ([] if argv[0] in ("report", "mbrw-build")
                            else ["--out", str(out)])) == 1
        assert not out.exists() and not (tmp_path / "m.json").exists()


def test_cli_import_loads_no_scipy():
    # scipy is slow to import, and no command needs it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, matcascade.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
