"""Tests of the benchmark's own oracles and checks.

Each oracle is compared with brute-force path enumeration, a closed form
or the program on a tiny model, and each check is shown to reject a
planted error.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import itertools
import json
import math
import os
import struct

import numpy as np
import pytest

import inputs
import oracles
import run
import spans
import workload
from matcascade import cli
from matcascade.engine import simulate_batch
from matcascade.model import model_from_dict

TINY = {"p": 2, "field": "real", "mode": "finite-atom", "atoms": [
    {"prob": 0.25, "matrices": [[[0.3, 0.1], [0.2, 0.4]]]},
    {"prob": 0.75, "matrices": [[[0.2, 0.3], [0.1, 0.2]], [[0.1, 0.2], [0.3, 0.1]]]},
]}

# small versions of the workloads: same commands, fewer replicates
SMALL = {
    "wide_walk": dict(workload.WORKLOADS["wide_walk"],
                      check=dict(workload.WORKLOADS["wide_walk"]["check"], n_max=4),
                      simulate={"n": 4, "replicates": 3000}),
    "exact_moments": dict(workload.WORKLOADS["exact_moments"],
                          check=dict(workload.WORKLOADS["exact_moments"]["check"],
                                     n_max=3),
                          simulate={"n": 3, "replicates": 200}),
}


def tiny():
    return oracles.Model(TINY)


def enumerate_rho(model, t, n):
    """rho_n(t) by expanding every depth-n path (tiny models only)."""
    level = [(q, m) for q, ms in model.pairs() for m in ms]
    out = np.zeros((model.p, model.p))
    for path in itertools.product(level, repeat=n):
        w = math.prod(q for q, _ in path)
        prod = np.linalg.multi_dot([m for _, m in path]) if n > 1 else path[0][1]
        out += w * prod ** t
    return oracles.perron_root(out)


class TestOracles:
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lift_matches_enumeration(self, t, n):
        assert oracles.lift_rho(tiny(), t, n) == pytest.approx(
            enumerate_rho(tiny(), t, n), rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bounds_contain_enumeration(self, alpha, n):
        lo, hi = oracles.alpha_bounds(tiny(), alpha, n)
        rho = enumerate_rho(tiny(), alpha, n)
        assert lo * (1 - 1e-13) <= rho <= hi * (1 + 1e-13)

    def test_walk_mean_closed_form(self):
        spec = {"p": 2, "types": [
            {"offspring": [{"prob": 1.0, "children": [
                {"type": 1, "disp": 0.0}, {"type": 2, "disp": np.log(2)}]}]},
            {"offspring": [{"prob": 1.0, "children": [
                {"type": 1, "disp": np.log(2)}, {"type": 2, "disp": 0.0}]}]}]}
        m, rho = oracles.walk_mean(spec, 1.0)
        np.testing.assert_allclose(m, [[1.0, 0.5], [0.5, 1.0]], rtol=1e-15)
        assert rho == pytest.approx(1.5, rel=1e-15)

    def test_replicate_single_atom_is_mean_power(self):
        # one atom: every node has the same children, so Y_n = M^n V = V
        doc = inputs.random_model(np.random.default_rng(3), ((1.0, 2),), p=2)
        model = oracles.Model(doc)
        _, v = oracles.perron_vectors(model.mean())
        y, extinct = oracles.replicate(model, v, 4, 11, 5)
        assert not extinct
        np.testing.assert_allclose(y, v, rtol=1e-13)

    def test_replicate_matches_program(self):
        doc = inputs.random_model(np.random.default_rng(4), ((0.4, 1), (0.6, 2)), p=2)
        model = oracles.Model(doc)
        batch = simulate_batch(model_from_dict(doc), 4, 5000, 9)
        _, v = oracles.perron_vectors(model.mean())
        for r in (0, 1, 4095, 4096, 4999):
            y, extinct = oracles.replicate(model, v, 4, 9, r)
            assert extinct == batch.extinct[r]
            np.testing.assert_allclose(batch.values[r], y, rtol=1e-12)

    def test_inputs_are_seeded(self):
        for name in inputs.TAGS:
            assert inputs.generate(name, 5) == inputs.generate(name, 5)
            assert inputs.generate(name, 5) != inputs.generate(name, 6)
            assert inputs.generate(name, 5, 0) != inputs.generate(name, 5, 1)


def run_ops(ops):
    for _, argv, _ in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


@pytest.fixture(scope="module", params=sorted(SMALL))
def pipeline_dir(request, tmp_path_factory):
    """A small run of each workload's commands; yields (name, dir, ops)."""
    name = request.param
    d = str(tmp_path_factory.mktemp(name))
    cfg = SMALL[name]
    inputs.write(inputs.generate(name, 3),
                 os.path.join(d, "spec.json" if cfg["walk"] else "model.json"))
    ops = workload.pipeline(cfg, d, 3)
    run_ops(ops)
    return name, d, ops


def check(ops, command):
    next(c for name, _, c in ops if name == command)()


class TestChecks:
    def test_all_pass(self, pipeline_dir):
        for _, _, c in pipeline_dir[2]:
            c()

    def test_perturbed_value_rejected(self, pipeline_dir):
        _, d, ops = pipeline_dir
        path = f"{d}/sim/batch.bin"
        blob = bytearray(open(path, "rb").read())
        _, p, r = struct.unpack("<4xIIQ", blob[:20])
        at = 28 + r + 8 * (p * (r // 2) + 1)
        good = bytes(blob[at:at + 8])
        value = struct.unpack("<d", good)[0]
        blob[at:at + 8] = struct.pack("<d", value * (1 + 1e-9) + 1e-300)
        with open(path, "wb") as f:
            f.write(blob)
        try:
            with pytest.raises(oracles.CheckError):
                check(ops, "simulate")
        finally:
            blob[at:at + 8] = good
            with open(path, "wb") as f:
                f.write(blob)

    def test_flipped_extinct_flag_rejected(self, pipeline_dir):
        _, d, ops = pipeline_dir
        path = f"{d}/sim/batch.bin"
        blob = bytearray(open(path, "rb").read())
        blob[28 + 7] ^= 1
        with open(path, "wb") as f:
            f.write(blob)
        try:
            with pytest.raises(oracles.CheckError):
                check(ops, "simulate")
        finally:
            blob[28 + 7] ^= 1
            with open(path, "wb") as f:
                f.write(blob)

    def test_rho_off_by_1e8_rejected(self, pipeline_dir):
        _, d, ops = pipeline_dir
        path = f"{d}/check/conditions.json"
        text = open(path).read()
        rows = json.loads(text)
        row = next(r for r in rows if r["theorem"] == "T2.1a"
                   and float(r["quantities"]["alpha"]).is_integer())
        row["quantities"]["rho_2(alpha)"] *= 1 + 1e-8
        with open(path, "w") as f:
            json.dump(rows, f)
        try:
            with pytest.raises(oracles.CheckError, match="Kronecker lift"):
                check(ops, "check")
        finally:
            with open(path, "w") as f:
                f.write(text)

    def test_perturbed_estimate_rejected(self, pipeline_dir):
        _, d, ops = pipeline_dir
        path = f"{d}/est/estimates.json"
        text = open(path).read()
        out = json.loads(text)
        out["moments"][0]["estimate"]["point"] *= 1 + 1e-10
        with open(path, "w") as f:
            json.dump(out, f)
        try:
            with pytest.raises(oracles.CheckError, match="moment"):
                check(ops, "estimate")
        finally:
            with open(path, "w") as f:
                f.write(text)


class TestTrace:
    def test_every_layer_metric_reported(self, tmp_path):
        d = str(tmp_path)
        cfg = SMALL["wide_walk"]
        inputs.write(inputs.generate("wide_walk", 1), f"{d}/spec.json")
        tracer = spans.Tracer()
        with tracer.installed():
            # cli looks simulate_batch up in its own namespace
            assert cli.simulate_batch is not simulate_batch
            run_ops(workload.pipeline(cfg, d, 1))
        assert cli.simulate_batch is simulate_batch
        layers = tracer.metrics()
        for name in ("cli.mbrw_build_s", "mbrw.build_s", "spectral.intensity_s",
                     "engine.simulate_s", "engine.stream_setup_s", "estimate.fit_s"):
            assert layers[name] > 0, name
        assert layers["engine.stream_setup_calls"] == cfg["simulate"]["replicates"]
        assert 0 < layers["spectral.merge_ratio"] < 1
        tracer.write(f"{d}/trace.json")
        assert len(json.load(open(f"{d}/trace.json"))["spans"]) == len(tracer.spans)

    def test_benchmark_json_names(self):
        with open(os.path.join(workload.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        assert {w["name"] for w in bench["workloads"]} == set(workload.WORKLOADS)
        assert [m["name"] for m in bench["per_layer"]] == list(spans.Tracer().metrics())
        assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
        assert {m["name"] for m in bench["end_to_end"]} == {
            "setup_s", "wall_s", "samples_per_s", "peak_rss_mb"}
