import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcascade.model import (NORM_CONVENTION, MatcascadeError, load_model,
                              model_from_dict, model_to_dict, normalize_model,
                              primitivity, save_model, scale_model, tilt_model,
                              validate_model)
from matcascade.mbrw import build_cascade_from_mbrw, spec_from_dict
from matcascade.spectral import moment_matrix, perron
from conftest import make_model, random_primitive_model


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MODEL_A_DOC = {"p": 1, "field": "real", "mode": "finite-atom",
               "atoms": [{"prob": 1.0, "matrices": [[[0.5]], [[0.5]]]}]}
MODEL_C_DOC = {"p": 2, "field": "real", "mode": "finite-atom",
               "atoms": [{"prob": 1.0,
                          "matrices": [[[0.3, 0.2], [0.1, 0.4]],
                                       [[0.2, 0.3], [0.4, 0.1]]]}]}
COMPLEX_DOC = {"p": 2, "field": "complex", "mode": "finite-atom", "atoms": [
    {"prob": 0.5, "matrices": [[[[0.3, 0.1], [0.2, 0.0]], [[0.1, -0.2], [0.25, 0.05]]],
                               [[[0.0, 0.2], [0.3, 0.0]], [[0.2, 0.0], [0.1, 0.1]]]]},
    {"prob": 0.5, "matrices": [[[[0.4, 0.0], [0.1, 0.1]], [[0.2, 0.2], [0.3, -0.1]]]]}]}
# two types, two children, displacements 0 and log 2
TT1 = {"p": 2, "types": [
    {"offspring": [{"prob": 1.0, "children": [{"type": 1, "disp": 0.0},
                                              {"type": 2, "disp": math.log(2)}]}]},
    {"offspring": [{"prob": 1.0, "children": [{"type": 1, "disp": math.log(2)},
                                              {"type": 2, "disp": 0.0}]}]}]}


class TestLoad:
    def test_model_a_roundtrip(self, tmp_path):
        m = load_model(write_model(tmp_path, MODEL_A_DOC))
        assert m.p == 1
        assert len(m.atoms) == 1
        assert m.atoms[0].n_children == 2

    def test_model_c_mean_matrix(self, tmp_path):
        m = load_model(write_model(tmp_path, MODEL_C_DOC))
        assert m.p == 2
        # oracle: entrywise addition of the two matrices
        np.testing.assert_allclose(m.mean_matrix(),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=0)

    def test_negative_entry_rejected(self, tmp_path):
        doc = {"p": 1, "atoms": [{"prob": 1.0, "matrices": [[[-0.1]]]}]}
        with pytest.raises(MatcascadeError, match="negative entry"):
            load_model(write_model(tmp_path, doc))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatcascadeError, match="parse error"):
            load_model(str(path))

    def test_probability_sum_off(self, tmp_path):
        doc = {"p": 1, "atoms": [{"prob": 0.6, "matrices": [[[0.5]]]},
                                 {"prob": 0.5, "matrices": [[[0.5]]]}]}
        with pytest.raises(MatcascadeError, match="sum"):
            load_model(write_model(tmp_path, doc))

    def test_tiny_probability_drift_renormalized(self, tmp_path):
        eps = 2e-10
        doc = {"p": 1, "atoms": [{"prob": 0.5, "matrices": [[[0.5]]]},
                                 {"prob": 0.5 + eps, "matrices": [[[0.6]]]}]}
        m = load_model(write_model(tmp_path, doc))
        assert abs(sum(a.prob for a in m.atoms) - 1.0) < 1e-15

    def test_dimension_mismatch(self, tmp_path):
        doc = {"p": 2, "atoms": [{"prob": 1.0, "matrices": [[[0.5]]]}]}
        with pytest.raises(MatcascadeError, match="matrix has 1 rows, expected 2"):
            load_model(write_model(tmp_path, doc))

    def test_n_zero_atom_accepted(self):
        m = model_from_dict({"p": 1, "atoms": [
            {"prob": 0.5, "matrices": []},
            {"prob": 0.5, "matrices": [[[1.0]], [[1.0]]]}]})
        assert m.min_offspring() == 0

    def test_childless_model_mean_matrix(self):
        m = model_from_dict({"p": 2, "atoms": [{"prob": 1.0, "matrices": []}]})
        np.testing.assert_array_equal(m.mean_matrix(), np.zeros((2, 2)))

    @pytest.mark.parametrize("family,param", [("uniform", "low"),
                                              ("lognormal", "sigma")])
    def test_negative_sampler_parameter_rejected(self, family, param):
        doc = {"p": 1, "mode": "sampler", "sampler": {
            "family": family, "params": {"n_children": 2, param: -0.1}}}
        with pytest.raises(MatcascadeError, match=param):
            model_from_dict(doc)

    def test_sampler_params_parsed(self):
        # numbers with the defaults filled in; a parameter the family does
        # not read is not checked
        doc = {"p": 1, "mode": "sampler", "sampler": {"family": "lognormal",
               "params": {"n_children": 3.0, "mu": -1, "low": "x"}}}
        sampler = model_from_dict(doc).sampler
        assert sampler == {"family": "lognormal",
                           "params": {"n_children": 3, "mu": -1.0, "sigma": 1.0}}
        assert [type(v) for v in sampler["params"].values()] == [int, float, float]

    def test_complex_entries(self, tmp_path):
        doc = {"p": 1, "field": "complex", "atoms": [
            {"prob": 1.0, "matrices": [[[[0.0, 0.5]]]]}]}
        m = load_model(write_model(tmp_path, doc))
        assert m.atoms[0].matrices[0][0, 0] == 0.5j

    def test_save_load_roundtrip(self, tmp_path, model_c):
        path = tmp_path / "c.json"
        save_model(model_c, str(path))
        again = load_model(str(path))
        for a1, a2 in zip(model_c.atoms, again.atoms):
            assert a1.prob == a2.prob
            for m1, m2 in zip(a1.matrices, a2.matrices):
                np.testing.assert_array_equal(m1, m2)


class TestLayout:
    """However a law is made, each atom holds its N child matrices as one
    (N, p, p) array of the model's dtype."""

    def test_every_builder(self, model_c):
        cx = model_from_dict(COMPLEX_DOC)
        built = [
            (model_c, float), (scale_model(model_c, 2.0), float),
            (tilt_model(model_c, 2.0), float), (cx, complex),
            (scale_model(cx, 2.0), complex), (tilt_model(cx, 2.0), float),
            (model_from_dict({"p": 2, "atoms": [{"prob": 1.0, "matrices": []}]}), float),
            (make_model(2, [(1.0, [])], field_kind="complex"), complex),
            (build_cascade_from_mbrw(spec_from_dict(TT1), 1.0), float)]
        for model, dtype in built:
            for a in model.atoms:
                assert isinstance(a.matrices, np.ndarray)
                assert a.matrices.dtype == dtype
                assert a.matrices.shape == (a.n_children, model.p, model.p)

    # sha256 of content_hash() and of the file save_model writes, for
    # models made in code (no source_hash)
    PINNED = {
        "model_c": ("4f9ec311d96bcffe6c242c985876648054b9dcf01cd96d53728b05fdbde1def4",
                    "2cb43b927e026423993b81e0505c889225559527fb92071014c5528364bfb1dd"),
        "complex": ("ba895fc59c1598a1ccfc8c6f85636eaaf2abff78e2c45296ecc1639a9f108b5a",
                    "363dd9893c417f243aba025bcfc173d5adc9beae38620bff5bfa6a1d041d33c5"),
        "tt1": ("4fb43d080aedc8bae4e681edce3e0f82d1bedf95b2ef314fa57c58d49e76164c",
                "1bcd796db6e501f01786b49e84a64ce96d72682e5fbf1eed227bc3c983132edd"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_serialization_pinned(self, name, model_c, tmp_path):
        model = {"model_c": lambda: model_c,
                 "complex": lambda: model_from_dict(COMPLEX_DOC),
                 "tt1": lambda: build_cascade_from_mbrw(spec_from_dict(TT1), 1.0)}[name]()
        save_model(model, str(tmp_path / "m.json"))
        assert (model.content_hash(),
                hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest()
                ) == self.PINNED[name]


class TestValidate:
    def test_model_a(self, model_a):
        rep = validate_model(model_a)
        assert rep.theorem == "validation"
        assert rep.verdict == "holds"
        assert rep.quantities["primitivity_exponent"] == 1
        assert rep.quantities["rho"] == pytest.approx(1.0, abs=1e-12)
        triple = perron(model_a.mean_matrix())
        np.testing.assert_allclose(triple.v, [1.0])
        np.testing.assert_allclose(triple.u, [1.0])

    def test_model_c(self, model_c):
        rep = validate_model(model_c)
        assert rep.verdict == "holds"
        assert rep.quantities["primitivity_exponent"] == 1
        # oracle: rank-one [[a,a],[b,b]] has eigenvalues a+b and 0
        assert rep.quantities["rho"] == pytest.approx(1.0, abs=1e-12)
        triple = perron(model_c.mean_matrix())
        np.testing.assert_allclose(triple.v, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(triple.u, [0.5, 0.5], atol=1e-12)

    def test_permutation_matrix_not_primitive(self):
        m = make_model(2, [(1.0, [[[0.0, 1.0], [1.0, 0.0]]])])
        rep = validate_model(m)
        assert rep.quantities["primitive"] is False
        assert rep.quantities["rho"] is None
        assert rep.verdict == "fails: mean matrix is not primitive"

    def test_rho_deviation_reported(self, model_a):
        doubled = scale_model(model_a, 2.0)
        rep = validate_model(doubled)
        assert rep.verdict.startswith("fails: ")
        assert "normalize_model" in rep.verdict
        assert rep.quantities["spectral_radius_deviation"] == pytest.approx(1.0, abs=1e-12)

    def test_row_layout(self, model_c):
        # conditions.txt prints the quantities in insertion order
        rep = validate_model(model_c)
        assert list(rep.quantities) == ["mean_matrix", "primitive",
                                        "primitivity_exponent", "rho",
                                        "spectral_radius_deviation"]
        assert rep.quantities["mean_matrix"] == model_c.mean_matrix().tolist()
        assert rep.assumptions_checked == []
        assert rep.notes == [NORM_CONVENTION]


class TestNormalize:
    def test_scalar_rescale(self, model_a):
        doubled = scale_model(model_a, 2.0)
        back = normalize_model(doubled)
        assert back.atoms[0].matrices[0][0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_identity_on_normalized(self, model_c):
        back = normalize_model(model_c)
        for a1, a2 in zip(model_c.atoms, back.atoms):
            for m1, m2 in zip(a1.matrices, a2.matrices):
                np.testing.assert_allclose(m1, m2, atol=1e-15)

    def test_triple_scale(self, model_c):
        back = normalize_model(scale_model(model_c, 3.0))
        for a1, a2 in zip(model_c.atoms, back.atoms):
            for m1, m2 in zip(a1.matrices, a2.matrices):
                np.testing.assert_allclose(m1, m2, atol=1e-12)

    def test_non_primitive_rejected(self):
        m = make_model(2, [(1.0, [[[0.0, 1.0], [1.0, 0.0]]])])
        with pytest.raises(MatcascadeError,
                           match="cannot normalize: matrix is not primitive"):
            normalize_model(m)

    @given(c=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c, seed):
        model = random_primitive_model(np.random.default_rng(seed), p=2)
        lhs = normalize_model(scale_model(model, c))
        rhs = normalize_model(model)
        for a1, a2 in zip(lhs.atoms, rhs.atoms):
            for m1, m2 in zip(a1.matrices, a2.matrices):
                np.testing.assert_allclose(m1, m2, atol=1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_normalized_radius(self, seed):
        model = random_primitive_model(np.random.default_rng(seed))
        rep = validate_model(normalize_model(model))
        assert rep.quantities["spectral_radius_deviation"] <= 1e-12


class TestTiltModel:
    def test_t1_returns_model(self, model_c):
        assert tilt_model(model_c, 1) is model_c

    @pytest.mark.parametrize("t", [0.5, 1.5, 2.0, 3.0])
    def test_mean_radius_one(self, model_rand, t):
        rep = validate_model(tilt_model(model_rand, t))
        assert rep.quantities["spectral_radius_deviation"] <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.5, 2.0, 3.0])
    def test_v_is_perron_vector_of_moment_matrix(self, model_rand, t):
        v = perron(tilt_model(model_rand, t).mean_matrix()).v
        np.testing.assert_allclose(v, perron(moment_matrix(model_rand, t)).v,
                                   rtol=0, atol=1e-12)

    def test_complex_uses_moduli(self):
        phases = make_model(2, [(1.0, [[[0.3j, -0.2], [0.1, 0.4]],
                                       [[0.2, 0.3], [-0.4j, 0.1]]])],
                            field_kind="complex")
        moduli = make_model(2, [(1.0, [np.abs(m) for m in phases.atoms[0].matrices])])
        tilted = tilt_model(phases, 2.0)
        assert tilted.field_kind == "real"
        for m1, m2 in zip(tilted.atoms[0].matrices,
                          tilt_model(moduli, 2.0).atoms[0].matrices):
            np.testing.assert_array_equal(m1, m2)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_zero_entry_nonpositive_power_rejected(self, t):
        m = make_model(2, [(1.0, [[[0.0, 0.5], [0.5, 0.5]]])])
        with pytest.raises(MatcascadeError, match="zero entry"):
            tilt_model(m, t)


class TestPrimitivity:
    @given(seed=st.integers(0, 1000), p=st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_exhaustive_power_search(self, seed, p):
        rng = np.random.default_rng(seed)
        mat = (rng.random((p, p)) < 0.5) * rng.random((p, p))
        verdict, exponent = primitivity(mat)
        # oracle: boolean powers up to exponent 100
        b = mat > 0
        power = b.copy()
        oracle = None
        for k in range(1, 101):
            if power.all():
                oracle = k
                break
            power = (power.astype(int) @ b.astype(int)) > 0
        assert verdict == (oracle is not None)
        if verdict:
            assert exponent == oracle
