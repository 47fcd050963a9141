import math

import numpy as np
import pytest

from matcascade.conditions import (check_alpha_moments, check_complex,
                                   check_harmonic, exponential_profile,
                                   positive_column_probability)
from matcascade import conditions
from matcascade.model import CascadeModel, ModelError, normalize_model, scale_model
from matcascade.spectral import SpectralError, n_step_moment_matrix, perron
from conftest import make_model


class TestPositiveColumn:
    def test_model_c(self, model_c):
        assert positive_column_probability(model_c) == 1.0

    def test_diagonal_matrix_excluded(self):
        m = make_model(2, [(0.4, [[[0.5, 0.0], [0.0, 0.5]]]),
                           (0.6, [[[0.5, 0.5], [0.5, 0.5]]])])
        assert positive_column_probability(m) == pytest.approx(0.6)

    def test_zero_offspring_vacuous(self):
        m = make_model(1, [(0.3, []), (0.7, [[[1.0]]])])
        assert positive_column_probability(m) == pytest.approx(1.0)


class TestAlphaMoment:
    def test_model_a(self, model_a):
        rep = check_alpha_moments(model_a, [2], n_max=2)[0]
        assert rep.verdict == "holds"
        assert rep.quantities["rho_1(alpha)"] == pytest.approx(0.5, abs=1e-14)
        # p=1: the dimensional factor is 1, classical scalar criterion
        assert rep.quantities["p^(alpha-1)*rho_1(alpha)"] == pytest.approx(0.5)

    def test_model_c(self, model_c):
        rep = check_alpha_moments(model_c, [2], n_max=1)[0]
        assert rep.verdict == "holds"
        assert rep.quantities["rho_1(alpha)"] == pytest.approx(0.3, abs=1e-13)
        assert rep.quantities["p^(alpha-1)*rho_1(alpha)"] == pytest.approx(
            0.6, abs=1e-12)
        assert rep.quantities["positive_column_probability"] == 1.0

    def test_model_d1_holds(self, model_d1):
        rep = check_alpha_moments(model_d1, [2])[0]
        assert rep.verdict == "holds"
        # oracle: 2 E A^2 = 0.49 + 0.09
        assert rep.quantities["rho_1(alpha)"] == pytest.approx(0.58, abs=1e-14)

    def test_model_d2_fails(self, model_d2):
        rep = check_alpha_moments(model_d2, [2], n_max=2)[0]
        assert rep.verdict == "fails"
        # oracle: 2(0.25 * 3.61 + 0.75 * (1/30)^2)
        want = 2 * (0.25 * 3.61 + 0.75 * (0.1 / 3) ** 2)
        assert rep.quantities["rho_1(alpha)"] == pytest.approx(want, rel=1e-12)
        assert any("necessary condition violated" in n for n in rep.notes)

    def test_undecided_gap(self, model_b):
        # single idempotent chain: rho_n(2) = 0.5 < 1 at every depth but
        # p^(alpha-1) rho_n(2) = 1 exactly, so neither criterion resolves
        rep = check_alpha_moments(model_b, [2], n_max=3)[0]
        assert rep.quantities["rho_1(alpha)"] == pytest.approx(0.5, abs=1e-14)
        assert rep.quantities["p^(alpha-1)*rho_1(alpha)"] >= 1
        assert rep.verdict == "undecided"

    def test_norm_moment_frozen(self, model_c):
        rep = check_alpha_moments(model_c, [2], n_max=1)[0]
        # ||A_1 + A_2|| = 2 deterministically, squared
        assert rep.quantities["E||sum_k A_k||^alpha"] == pytest.approx(4.0)

    def test_not_applicable_without_assumption(self, model_a):
        rep = check_alpha_moments(scale_model(model_a, 2.0), [2])[0]
        assert rep.verdict == "not-applicable"

    def test_alpha_range(self, model_a):
        with pytest.raises(ValueError):
            check_alpha_moments(model_a, [1.0])[0]

    def test_sampler_rejected(self):
        m = CascadeModel(p=1, mode="sampler", field_kind="real",
                         sampler={"family": "uniform",
                                  "params": {"n_children": 2}})
        with pytest.raises(ModelError):
            check_alpha_moments(m, [2])[0]


class TestSharedMeasures:
    """check_alpha_moments builds each depth-n measure once for every alpha."""

    @pytest.fixture
    def model7(self):
        # p = 3, seven child matrices over two atoms: 7^n depth-n products
        rng = np.random.default_rng(11)
        mats = [rng.uniform(0.05, 1.0, size=(3, 3)) for _ in range(7)]
        return normalize_model(make_model(3, [(0.25, mats[:3]), (0.75, mats[3:])]))

    @pytest.fixture
    def built_depths(self, monkeypatch):
        depths = []
        build = conditions.intensity_measure

        def counting(model, n, **kwargs):
            depths.append(n)
            return build(model, n, **kwargs)

        monkeypatch.setattr(conditions, "intensity_measure", counting)
        return depths

    def test_one_build_per_depth(self, model7, built_depths):
        alphas = [1.5, 2, 3]
        reports = conditions.check_alpha_moments(model7, alphas, n_max=6)
        assert built_depths == [2, 3, 4, 5, 6]
        assert [r.quantities["alpha"] for r in reports] == alphas
        for alpha, rep in zip(alphas, reports):
            for n in range(1, 7):
                want = perron(n_step_moment_matrix(model7, alpha, n)).rho
                assert rep.quantities[f"rho_{n}(alpha)"] == want  # bitwise

    def test_repeats_and_order_kept(self, model_c):
        reports = check_alpha_moments(model_c, [2, 2, 1.5], n_max=3)
        single = [check_alpha_moments(model_c, [a], n_max=3)[0] for a in (2, 2, 1.5)]
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in single]

    def test_failed_alpha_stops_alone(self, model7, built_depths, monkeypatch):
        # the Perron solve of M_3(3) fails: alpha = 3 stops at depth 3, the
        # others go on, and no deeper measure is built for alpha = 3 alone
        bad = n_step_moment_matrix(model7, 3, 3)

        def failing(mat):
            if np.array_equal(mat, bad):
                raise SpectralError("planted failure")
            return perron(mat)

        monkeypatch.setattr(conditions, "perron", failing)
        rep_2, rep_3 = conditions.check_alpha_moments(model7, [2, 3], n_max=5)
        assert "rho_5(alpha)" in rep_2.quantities
        assert "rho_2(alpha)" in rep_3.quantities
        assert "rho_3(alpha)" not in rep_3.quantities
        assert "rho_3(alpha) unavailable: planted failure" in rep_3.notes
        built_depths.clear()
        conditions.check_alpha_moments(model7, [3], n_max=5)
        assert built_depths == [2, 3]

    def test_childless_builds_nothing(self, built_depths):
        m = make_model(1, [(1.0, [])])
        for rep in check_alpha_moments(m, [2, 3], n_max=4):
            assert "rho_1(alpha) unavailable: matrix is not primitive" in rep.notes
        assert built_depths == []

    def test_any_alpha_out_of_range_rejected(self, model_c):
        with pytest.raises(ModelError, match="alpha must be > 1"):
            check_alpha_moments(model_c, [2, 1.0])


class TestHarmonic:
    def test_model_c(self, model_c):
        rep = check_harmonic(model_c, 1.0)
        assert rep.verdict == "holds"
        q = rep.quantities
        assert q["E(min_row_sum(A_1))^-lambda"] == pytest.approx(2.0)
        assert q["E(min_row_sum(A_1))^-lambda;N=1"] == 0.0
        assert q["essinf_N"] == 2
        assert q["E prod_{k<=essinf}(min_row_sum(A_k))^-lambda"] == pytest.approx(4.0)
        assert q["strengthened_order"] == pytest.approx(2.0)

    def test_model_a_lambda3(self, model_a):
        rep = check_harmonic(model_a, 3.0)
        assert rep.verdict == "holds"
        assert rep.quantities["E(min_row_sum(A_1))^-lambda"] == pytest.approx(8.0)

    def test_single_child_not_applicable(self, model_b):
        rep = check_harmonic(model_b, 1.0)
        assert rep.verdict == "not-applicable"
        assert rep.quantities["P(N=1)"] == 1.0

    def test_extinction_not_applicable(self):
        m = make_model(1, [(0.5, []), (0.5, [[[1.0]], [[1.0]]])])
        rep = check_harmonic(m, 1.0)
        assert rep.verdict == "not-applicable"

    def test_zero_row_fails(self):
        # second atom's first child has a zero row; the positive-column
        # event still has probability 1/2 through the first atom
        good = [[0.25, 0.25], [0.25, 0.25]]
        m = make_model(2, [(0.5, [good, good]),
                           (0.5, [[[0.5, 0.5], [0.0, 0.0]], good])])
        rep = check_harmonic(m, 1.0)
        assert rep.verdict == "fails"
        assert math.isinf(rep.quantities["E(min_row_sum(A_1))^-lambda"])

    def test_lambda_range(self, model_c):
        with pytest.raises(ValueError):
            check_harmonic(model_c, 0.0)


class TestExponentialProfile:
    def test_model_c_gamma(self, model_c):
        rep_a, _ = exponential_profile(model_c, 0.0)
        assert rep_a.verdict == "holds"
        q = rep_a.quantities
        assert q["a_lower"] == pytest.approx(0.1)
        assert q["essinf_N"] == 2
        # gamma = -log 2 / log 0.2 = log 2 / log 5
        assert q["gamma"] == pytest.approx(math.log(2) / math.log(5), rel=1e-12)

    def test_model_c_infeasible_epsilon(self, model_c):
        _, rep_b = exponential_profile(model_c, 0.35)
        assert rep_b.verdict == "not-applicable"
        assert rep_b.quantities["(a_lower+eps)*p*essinf_N"] == pytest.approx(1.8)
        assert rep_b.quantities["epsilon_threshold"] == pytest.approx(0.15)

    def test_model_c_boundary_epsilon(self, model_c):
        _, rep_b = exponential_profile(model_c, 0.15)
        assert rep_b.verdict == "not-applicable"
        assert rep_b.quantities["(a_lower+eps)*p*essinf_N"] == pytest.approx(1.0)

    def test_shrunk_model_gamma_eps(self, model_c):
        small = scale_model(model_c, 0.5)  # a_lower becomes 0.05
        _, rep_b = exponential_profile(small, 0.1)
        q = rep_b.quantities
        assert q["a_lower"] == pytest.approx(0.05)
        assert q["(a_lower+eps)*p*essinf_N"] == pytest.approx(0.6)
        assert q["gamma(eps)"] == pytest.approx(-math.log(2) / math.log(0.3),
                                                rel=1e-12)

    def test_feasible_epsilon_holds(self):
        # uniform entries 0.1, epsilon small enough that the bounded event
        # has full probability: (0.1 + 0.05) * 2 * 2 = 0.6 < 1
        m = make_model(2, [(1.0, [np.full((2, 2), 0.1), np.full((2, 2), 0.1)])])
        rep_a, rep_b = exponential_profile(m, 0.05)
        assert rep_a.verdict == "holds"
        assert rep_b.verdict == "holds"
        assert rep_b.quantities["P(N=essinf_N, entries <= a_lower+eps)"] == 1.0

    def test_requires_min_two_children(self, model_b):
        with pytest.raises(ModelError):
            exponential_profile(model_b, 0.0)

    def test_negative_epsilon(self, model_c):
        with pytest.raises(ValueError):
            exponential_profile(model_c, -0.1)


class TestComplexCase:
    def phase_model(self):
        a = 0.5 * np.exp(1j * np.pi / 3)
        return make_model(1, [(1.0, [[[a]], [[a]]])], field_kind="complex")

    def test_alpha_two_holds(self):
        rep = check_complex(self.phase_model(), 2)
        assert rep.verdict == "holds"
        assert rep.quantities["rho_hat(alpha)"] == pytest.approx(0.5, rel=1e-12)

    def test_alpha_above_two(self):
        rep = check_complex(self.phase_model(), 3, beta_grid=[1.5, 2.0])
        assert rep.verdict == "holds"
        # rho_hat(3) = 2 * 0.5^3
        assert rep.quantities["rho_hat(alpha)"] == pytest.approx(0.25, rel=1e-12)
        assert rep.quantities["best_beta"] in (1.5, 2.0)

    def test_alpha_above_two_needs_beta(self):
        with pytest.raises(ValueError):
            check_complex(self.phase_model(), 3)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            check_complex(self.phase_model(), 3, beta_grid=[2.5])

    def test_real_model_rejected(self, model_a):
        with pytest.raises(ModelError):
            check_complex(model_a, 2)

    def test_report_serializes(self, model_c):
        d = check_alpha_moments(model_c, [2])[0].to_dict()
        assert d["theorem"] == "T2.1a"
        assert isinstance(d["quantities"], dict)
