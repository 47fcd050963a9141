import copy
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from matcascade.cli import main
from matcascade.model import load_model

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

    @pytest.mark.parametrize("doc", [MODEL_C, PHASE], ids=["real", "complex"])
    def test_validates_once(self, doc, tmp_path, monkeypatch):
        # the validation row's report also rates assumption H in every
        # moment row
        from matcascade import conditions
        calls = []
        validate = conditions.validate_model

        def counting(model):
            calls.append(1)
            return validate(model)

        monkeypatch.setattr(conditions, "validate_model", counting)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path), "--alpha", "1.5",
                     "--alpha", "2", "--lambda", "1", "--out",
                     str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cannot read model" in capsys.readouterr().err


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

    def test_workers_flag_does_not_change_bytes(self, model_c_path, tmp_path):
        o1, o2 = tmp_path / "w1", tmp_path / "w2"
        main(["simulate", "--model", model_c_path, "--n", "4", "--replicates",
              "50", "--seed", "3", "--workers", "1", "--out", str(o1)])
        main(["simulate", "--model", model_c_path, "--n", "4", "--replicates",
              "50", "--seed", "3", "--workers", "8", "--out", str(o2)])
        assert (o1 / "batch.bin").read_bytes() == (o2 / "batch.bin").read_bytes()

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

    def test_zero_replicates_fresh_estimate_usage_error(self, model_a_path,
                                                        tmp_path):
        code = main(["estimate", "--model", model_a_path, "--fresh", "--n", "2",
                     "--replicates", "0", "--alpha", "2",
                     "--out", str(tmp_path / "e")])
        assert code == 1

    def test_all_capped_exit3(self, model_a_path, tmp_path):
        code = main(["simulate", "--model", model_a_path, "--n", "10",
                     "--replicates", "5", "--seed", "1", "--cap", "8",
                     "--out", str(tmp_path / "o")])
        assert code == 3


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

    def test_fresh_with_laplace_fit(self, model_c_path, tmp_path):
        out = tmp_path / "est"
        code = main(["estimate", "--model", model_c_path, "--fresh", "--n",
                     "6", "--replicates", "2000", "--seed", "2",
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
        out = tmp_path / "est"
        assert main(["estimate", "--model", str(path), "--fresh", "--n", "8",
                     "--replicates", "2000", "--seed", "3", "--laplace-fit",
                     "--out", str(out)]) == 0
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
        out = tmp_path / "est"
        assert main(["estimate", "--model", str(path), "--fresh", "--n", "3",
                     "--replicates", "200", *flags, "--out", str(out)]) == 0
        doc = json.loads((out / "estimates.json").read_text())
        rows = doc.get("moments", []) + doc.get("harmonic", [])
        assert len(rows) == len(flags) // 2
        assert all(row["condition"] is None for row in rows)

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
        assert "C2.4a" in capsys.readouterr().out

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
        assert theorems == ["[C2.4a]"] * 2 + ["[C2.4b]"] * 4
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
}


def _check_model(doc, *flags):
    def argv(tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
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


def _estimate_batch(damage, *flags, alpha="2"):
    """estimate --batch --alpha alpha, with flags, on a simulate output
    that damage(directory) broke."""
    def argv(tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(MODEL_C))
        sim = tmp_path / "sim"
        assert main(["simulate", "--model", str(model), "--n", "3",
                     "--replicates", "20", "--seed", "1",
                     "--out", str(sim)]) == 0
        damage(sim)
        return ["estimate", "--model", str(model), "--batch", str(sim),
                "--alpha", alpha, *flags, "--out", str(tmp_path / "e")]
    return argv


def _simulate_model(doc, *flags):
    def argv(tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return ["simulate", "--model", str(path), "--n", "3", "--replicates",
                "8", "--seed", "1", *flags, "--out", str(tmp_path / "o")]
    return argv


def _fresh_estimate(doc, *flags):
    def argv(tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return ["estimate", "--model", str(path), "--fresh", "--n", "3",
                "--replicates", "8", "--alpha", "2", *flags,
                "--out", str(tmp_path / "e")]
    return argv


def _truncate(sim):
    blob = (sim / "batch.bin").read_bytes()
    (sim / "batch.bin").write_bytes(blob[:-5])


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
    "simulate-cap-0": _simulate_model(MODEL_C, "--cap", "0"),
    "simulate-cap-negative": _simulate_model(MODEL_C, "--cap", "-1"),
    "estimate-fresh-cap-negative": _fresh_estimate(MODEL_C, "--cap", "-1"),
    "report-not-rows": _report([1]),
    "report-row-incomplete": _report([{"theorem": "x"}]),
}

# cases whose message must name the offending flag
FLAG_NAMED = {"check-n-max-0-complex": "--n-max", "estimate-n-max-0": "--n-max",
              "mbrw-build-t-nan": "--t", "mbrw-build-t-inf": "--t",
              "check-beta-7": "--beta"}


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


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["simulate", "--n", "2"]) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, workers, model_c_path, tmp_path):
        assert main(["simulate", "--model", model_c_path, "--n", "2",
                     "--replicates", "4", "--seed", "1", "--workers", workers,
                     "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()


def test_cli_import_loads_no_scipy():
    # scipy is slow to import, and no command needs it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, matcascade.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
