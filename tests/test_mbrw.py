import json
import math

import numpy as np
import pytest

from matcascade import mbrw
from matcascade.cli import main
from matcascade.conditions import check_alpha_moments, check_harmonic
from matcascade.engine import simulate_batch
from matcascade.model import MatcascadeError, validate_model
from matcascade.spectral import moment_matrix, perron
from matcascade.mbrw import (build_cascade_from_mbrw, load_mbrw_spec,
                             mbrw_condition_report, mbrw_spectral,
                             spec_from_dict)

LOG2 = math.log(2.0)

TT1 = {
    "p": 2,
    "types": [
        {"offspring": [{"prob": 1.0,
                        "children": [{"type": 1, "disp": 0.0},
                                     {"type": 2, "disp": LOG2}]}]},
        {"offspring": [{"prob": 1.0,
                        "children": [{"type": 1, "disp": LOG2},
                                     {"type": 2, "disp": 0.0}]}]},
    ],
}

PM1 = {
    "p": 1,
    "types": [
        {"offspring": [{"prob": 1.0,
                        "children": [{"type": 1, "disp": 1.0},
                                     {"type": 1, "disp": -1.0}]}]},
    ],
}


def spec_to_dict(spec):
    """The spec document that spec_from_dict reads back as spec."""
    return {
        "p": spec.p,
        "types": [
            {"offspring": [
                {"prob": c.prob,
                 "children": [{"type": j, "disp": s} for j, s in c.children]}
                for c in configs]}
            for configs in spec.offspring
        ],
    }


@pytest.fixture
def tt1():
    return spec_from_dict(TT1)


@pytest.fixture
def pm1():
    return spec_from_dict(PM1)


class TestSpecLoading:
    def test_file_roundtrip(self, tmp_path, tt1):
        path = tmp_path / "tt1.json"
        path.write_text(json.dumps(spec_to_dict(tt1)))
        again = load_mbrw_spec(str(path))
        assert again.p == 2
        assert again.offspring[0][0].children == tt1.offspring[0][0].children

    def test_inconsistent_child_count_law_rejected(self):
        bad = {"p": 2, "types": [
            {"offspring": [{"prob": 1.0,
                            "children": [{"type": 1, "disp": 0.0},
                                         {"type": 2, "disp": 0.0}]}]},
            {"offspring": [{"prob": 1.0,
                            "children": [{"type": 1, "disp": 0.0}]}]},
        ]}
        with pytest.raises(MatcascadeError, match="offspring-count law"):
            spec_from_dict(bad)

    def test_probability_sum_checked(self):
        bad = {"p": 1, "types": [{"offspring": [
            {"prob": 0.7, "children": [{"type": 1, "disp": 0.0}]}]}]}
        with pytest.raises(MatcascadeError, match="sum"):
            spec_from_dict(bad)

    def test_child_type_range(self):
        bad = {"p": 1, "types": [{"offspring": [
            {"prob": 1.0, "children": [{"type": 2, "disp": 0.0}]}]}]}
        with pytest.raises(MatcascadeError, match="type"):
            spec_from_dict(bad)


class TestSpectral:
    def test_pm1_counting(self, pm1):
        sp = mbrw_spectral(pm1, 0.0)
        np.testing.assert_allclose(sp.m_tilde, [[2.0]], atol=0)
        assert sp.rho_tilde == pytest.approx(2.0, abs=1e-14)

    def test_pm1_cosh(self, pm1):
        sp = mbrw_spectral(pm1, 1.0)
        assert sp.m_tilde[0, 0] == pytest.approx(2 * math.cosh(1.0), rel=1e-14)

    def test_tt1_frozen(self, tt1):
        sp = mbrw_spectral(tt1, 1.0)
        np.testing.assert_allclose(sp.m_tilde, [[1.0, 0.5], [0.5, 1.0]],
                                   atol=1e-15)
        # oracle: symmetric 2x2, top eigenvalue a + b
        assert sp.rho_tilde == pytest.approx(1.5, abs=1e-12)

    def test_tt1_t2(self, tt1):
        sp = mbrw_spectral(tt1, 2.0)
        np.testing.assert_allclose(sp.m_tilde, [[1.0, 0.25], [0.25, 1.0]],
                                   atol=1e-15)
        assert sp.rho_tilde == pytest.approx(1.25, abs=1e-12)


class TestBuild:
    def test_tt1_mean_matrix(self, tt1):
        model = build_cascade_from_mbrw(tt1, 1.0)
        np.testing.assert_allclose(model.mean_matrix(),
                                   [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
                                   atol=1e-12)
        assert validate_model(model).verdict == "holds"

    def test_pm1_t0_is_binary_cascade(self, pm1):
        model = build_cascade_from_mbrw(pm1, 0.0)
        assert model.p == 1
        assert len(model.atoms) == 1
        for mat in model.atoms[0].matrices:
            assert mat[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_right_eigenvector_preserved(self, tt1):
        model = build_cascade_from_mbrw(tt1, 1.0)
        sp = mbrw_spectral(tt1, 1.0)
        v = perron(model.mean_matrix()).v
        np.testing.assert_allclose(v, sp.v_tilde, atol=1e-10)

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("spec_doc,t", [(TT1, 1.0), (TT1, 0.5), (PM1, 1.0),
                                            (PM1, 0.0), ("wide_walk", 1.0)])
    def test_tilted_eigenvalue_identity(self, spec_doc, t, alpha, request):
        # rho(alpha) of the built cascade equals rho~(alpha t) / rho~(t)^alpha,
        # so the walk-spectra formula is the oracle of its T2.1a criterion
        if spec_doc == "wide_walk":
            spec_doc = request.getfixturevalue("wide_walk_doc")
        spec = spec_from_dict(spec_doc)
        model = build_cascade_from_mbrw(spec, t)
        lhs = perron(moment_matrix(model, alpha)).rho
        rhs = (mbrw_spectral(spec, alpha * t).rho_tilde
               / mbrw_spectral(spec, t).rho_tilde ** alpha)
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)
        (rep,) = check_alpha_moments(model, [alpha], n_max=1)
        assert rep.quantities["p^(alpha-1)*rho_1(alpha)"] == pytest.approx(
            spec.p ** (alpha - 1) * rhs, rel=1e-12, abs=0)

    def test_martingale_mean(self, tt1):
        model = build_cascade_from_mbrw(tt1, 1.0)
        v = perron(model.mean_matrix()).v
        batch = simulate_batch(model, 4, 2000, 3)
        w = batch.values / v
        mean = w.mean(axis=0)
        se = w.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        assert np.all(np.abs(mean - 1.0) <= 4 * se + 1e-12)


class TestConditionReport:
    # a walk's alpha criterion (C2.4a) is T2.1a of the cascade it builds

    def test_tt1_alpha2_undecided(self, tt1):
        (rep,) = check_alpha_moments(build_cascade_from_mbrw(tt1, 1.0), [2.0],
                                     n_max=1)
        assert rep.theorem == "T2.1a"
        # 2 rho~(2) / rho~(1)^2 = 2 * 1.25 / 1.5^2
        assert rep.quantities["p^(alpha-1)*rho_1(alpha)"] == pytest.approx(
            10 / 9, rel=1e-12)
        assert rep.verdict == "undecided"

    def test_pm1_alpha2_holds(self, pm1):
        (rep,) = check_alpha_moments(build_cascade_from_mbrw(pm1, 0.0), [2.0],
                                     n_max=1)
        assert rep.quantities["p^(alpha-1)*rho_1(alpha)"] == pytest.approx(
            0.5, rel=1e-12)
        assert rep.verdict == "holds"

    def test_negative_order_no_single_child(self, tt1):
        rep = mbrw_condition_report(tt1, 1.0, 1.0, 0.0)
        assert rep.theorem == "C2.4b"
        # P(N=1) = 0, so the single-child expectation vanishes
        assert rep.quantities[
            "E max_i exp(-(lam+eps)*S_1^i);N=1 (as printed)"] == 0.0
        assert rep.verdict == "holds"

    def test_single_child_readings_closed_form(self):
        # P(N=1) = 0.4 for both types; given N=1, type 1 picks its first
        # single-child config w.p. 1/4, its second w.p. 3/4, type 2 its only one
        spec = spec_from_dict({"p": 2, "types": [
            {"offspring": [
                {"prob": 0.1, "children": [{"type": 1, "disp": 1.0}]},
                {"prob": 0.3, "children": [{"type": 2, "disp": -0.5}]},
                {"prob": 0.6, "children": [{"type": 2, "disp": 0.5},
                                           {"type": 1, "disp": 0.0}]}]},
            {"offspring": [
                {"prob": 0.4, "children": [{"type": 2, "disp": 0.3}]},
                {"prob": 0.6, "children": [{"type": 1, "disp": -1.0},
                                           {"type": 2, "disp": 0.2}]}]}]})
        t, lam, eps = 2.0, 1.0, 0.5
        rep = mbrw_condition_report(spec, t, lam, eps)
        q = rep.quantities
        r = lam + eps

        def e(x):
            return math.exp(-r * x)

        assert q["P(N=1)"] == pytest.approx(0.4, rel=1e-12)
        assert q["max_i E exp(-(lam+eps)*t*S_1^i)"] == pytest.approx(
            max(0.1 * e(t) + 0.3 * e(-0.5 * t) + 0.6 * e(0.5 * t),
                0.4 * e(0.3 * t) + 0.6 * e(-t)), rel=1e-12)
        # joint N=1 atoms: (type 1 disp 1.0, type 2 disp 0.3) w.p. 0.1 and
        # (type 1 disp -0.5, type 2 disp 0.3) w.p. 0.3
        printed = 0.1 * max(e(1.0), e(0.3)) + 0.3 * max(e(-0.5), e(0.3))
        tilted = 0.1 * max(e(t), e(0.3 * t)) + 0.3 * max(e(-0.5 * t), e(0.3 * t))
        assert q["E max_i exp(-(lam+eps)*S_1^i);N=1 (as printed)"] == pytest.approx(
            printed, rel=1e-12)
        assert q["E max_i exp(-(lam+eps)*t*S_1^i);N=1 (t-reading)"] == pytest.approx(
            tilted, rel=1e-12)
        # the printed reading holds (0.70), the t-reading does not (1.38)
        assert printed < 1 < tilted
        assert rep.verdict == "holds"
        assert "t-reading verdict would be fails" in rep.notes

    def test_both_exponent_readings_reported(self, tt1):
        rep = mbrw_condition_report(tt1, 2.0, 1.0, 0.1)
        keys = rep.quantities.keys()
        assert any("as printed" in k for k in keys)
        assert any("t-reading" in k for k in keys)


class TestSharedCriteria:
    def test_perron_solves(self, tmp_path, monkeypatch):
        # only the build solves the walk's tilted matrix: two solves, and
        # the alpha rows read the built model
        calls = []

        def counting(mat):
            calls.append(mat)
            return perron(mat)

        monkeypatch.setattr(mbrw, "perron", counting)
        spec = tmp_path / "tt1.json"
        spec.write_text(json.dumps(TT1))
        argv = ["mbrw-build", "--spec", str(spec), "--t", "1",
                "--lambda", "1", "--lambda", "2",
                "--epsilon", "0", "--epsilon", "0.5",
                "--out-model", str(tmp_path / "m.json")]
        assert main(argv) == 0
        assert len(calls) == 2
        calls.clear()
        assert main(argv + ["--alpha", "2"]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("spec_doc,status", [
        (TT1, "ok"), ("wide_walk", "fails: P(N=0)=0.1")])
    def test_law_rows_match_built_model(self, spec_doc, status, request):
        # T2.2 on the built model and C2.4b on the walk state the same
        # offspring-law hypotheses in the same words
        if spec_doc == "wide_walk":
            spec_doc = request.getfixturevalue("wide_walk_doc")
        spec = spec_from_dict(spec_doc)
        walk = mbrw_condition_report(spec, 1.0, 1.0, 0.0)
        cascade = check_harmonic(build_cascade_from_mbrw(spec, 1.0), 1.0)
        assert walk.assumptions_checked == cascade.assumptions_checked[1:]
        assert walk.assumptions_checked[0][1] == status
