import math

import numpy as np
import pytest

from matcascade.conditions import (check_alpha_moments, check_complex,
                                   check_harmonic, exponential_profile,
                                   positive_column_probability)
from matcascade import conditions, spectral
from matcascade.mbrw import build_cascade_from_mbrw, spec_from_dict
from matcascade.model import (CascadeModel, MatcascadeError, model_from_dict,
                              normalize_model, scale_model)
from matcascade.spectral import n_step_moment_matrix, perron
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
        with pytest.raises(MatcascadeError, match="requires a finite-atom model"):
            check_alpha_moments(m, [2])[0]


class TestCriticalOrder:
    """T2.1a verdicts against the critical moment order: holds below it,
    fails above it, and undecided only in the gap between the sufficient
    and the necessary criterion."""

    # p = 1, two children that share a weight W: 1.2 w.p. 1/4, 4/15 w.p. 3/4
    KP = make_model(1, [(0.25, [[[1.2]], [[1.2]]]),
                        (0.75, [[[4 / 15]], [[4 / 15]]])])
    # root of E sum_k W_k^alpha = 2 (0.25 1.2^alpha + 0.75 (4/15)^alpha) = 1:
    # Kahane and Peyriere (1976), E Y^alpha < inf iff alpha lies below it
    ROOT = 3.74304129236901

    @pytest.mark.parametrize("n_max", [1, 4])
    def test_kahane_peyriere_threshold(self, n_max):
        assert 2 * (0.25 * 1.2 ** self.ROOT + 0.75 * (4 / 15) ** self.ROOT) == (
            pytest.approx(1.0, abs=1e-14))
        below, above = check_alpha_moments(
            self.KP, [self.ROOT - 1e-6, self.ROOT + 1e-6], n_max=n_max)
        assert (below.verdict, above.verdict) == ("holds", "fails")

    @pytest.mark.parametrize("case,seen", [
        ("kahane-peyriere", ["holds", "fails"]),
        # the walk's bracket at n_max = 4 is [4.233, 9.0018]
        ("wide-walk", ["holds", "undecided", "fails"])], ids=["kp", "walk"])
    def test_verdicts_monotone_in_alpha(self, case, seen, request):
        model = self.KP
        if case == "wide-walk":
            model = build_cascade_from_mbrw(
                spec_from_dict(request.getfixturevalue("wide_walk_doc")), 1.0)
        grid = np.linspace(1.05, 12.0, 23).tolist()
        verdicts = [r.verdict for r in check_alpha_moments(model, grid, n_max=4)]
        rank = {"holds": 0, "undecided": 1, "fails": 2}
        assert sorted(verdicts, key=rank.get) == verdicts
        assert sorted(set(verdicts), key=rank.get) == seen


class TestSumOrder:
    """Sums over a stack of children or atoms add in stack order; a sum
    over axis 0 adds pairwise when p = 1 and there are more than 8 terms."""

    @pytest.fixture
    def model12(self):
        # p = 1, twelve atoms of twelve distinct children; one child of the
        # fourth atom is zero, so that atom misses the positive-column event
        rng = np.random.default_rng(18)
        probs = rng.random(12) + 0.1
        atoms = [(prob, rng.uniform(0.01, 1.0, (12, 1, 1)))
                 for prob in probs / probs.sum()]
        atoms[3][1][5] = 0.0
        return make_model(1, atoms)

    def test_norm_moment(self, model12):
        want = 0
        for a in model12.atoms:
            total = np.zeros((1, 1))
            for m in a.matrices:
                total = total + np.abs(m)
            want += a.prob * float(total.sum()) ** 2.5
        rep = check_alpha_moments(model12, [2.5], n_max=1)[0]
        assert rep.quantities["E||sum_k A_k||^alpha"] == want

    def test_positive_column_probability(self, model12):
        want = 0.0
        for a in model12.atoms:
            if all(m[0, 0] > 0 for m in a.matrices):
                want += a.prob
        assert positive_column_probability(model12) == want


class TestOverflow:
    """A quantity past the float range is reported as inf, with no numpy
    warning, and the verdict follows from the same comparisons."""

    def test_harmonic_negative_power(self):
        m = make_model(1, [(1.0, [[[1e-200]], [[1.0]]])])
        rep = check_harmonic(m, 2.0)
        q = rep.quantities
        assert q["E(min_row_sum(A_1))^-lambda"] == math.inf
        assert q["E prod_{k<=essinf}(min_row_sum(A_k))^-lambda"] == math.inf
        # no atom has a single child, so the N = 1 part is 0 < 1
        assert rep.verdict == "holds"

    def test_norm_moment(self, model_c):
        rep = check_alpha_moments(model_c, [1100], n_max=2)[0]
        assert rep.quantities["E||sum_k A_k||^alpha"] == math.inf
        # every entry of M(1100) underflows to 0
        assert rep.notes[0] == ("rho_1(alpha) unavailable: M_1(alpha) underflows "
                                "to the zero matrix")
        assert rep.verdict == "undecided"

    def test_dimension_factor_and_moment_matrix(self):
        # one all-ones child: M_1(alpha) = J with rho 2, and M_2(alpha) is
        # the entrywise power of 2J, which overflows
        m = make_model(2, [(1.0, [np.ones((2, 2))])])
        rep = check_alpha_moments(m, [1100], n_max=2)[0]
        q = rep.quantities
        assert q["rho_1(alpha)"] == pytest.approx(2.0)
        assert q["p^(alpha-1)*rho_1(alpha)"] == math.inf
        assert "rho_2(alpha) unavailable: non-finite entries" in rep.notes
        assert rep.verdict == "not-applicable"  # rho(M) = 2

    @pytest.mark.parametrize("alpha", [1100, 2100])
    def test_complex(self, alpha):
        # unit moduli: rho_hat(t) = 2 at every order t
        m = make_model(2, [(1.0, [[[1, 1j], [-1j, 1]]])], field_kind="complex")
        rep = check_complex(m, alpha, beta_grid=[2.0])
        q = rep.quantities
        assert q["E||sum_k |A_k|||^alpha"] == math.inf
        assert q["p^(alpha-1)*rho_hat(alpha)"] == math.inf
        assert q["p^(alpha/beta)*rho_hat(2.0)^(alpha/beta)"] == math.inf
        assert (q["p^(alpha/beta)*rho_hat(2.0)"] == math.inf) == (alpha > 2048)
        assert rep.verdict == "undecided"


class TestSharedMeasures:
    """check_alpha_moments builds one measure, at n_max, for every alpha and
    depth."""

    @pytest.fixture
    def model7(self):
        # p = 3, seven child matrices over two atoms: 7^n depth-n products
        rng = np.random.default_rng(11)
        mats = [rng.uniform(0.05, 1.0, size=(3, 3)) for _ in range(7)]
        return normalize_model(make_model(3, [(0.25, mats[:3]), (0.75, mats[3:])]))

    @pytest.fixture
    def built(self, monkeypatch):
        """What the exact layer builds: the depth of every intensity_measure
        call, and the count of products _left_products forms, stored
        levels and the streamed deepest level alike."""
        record = {"depths": [], "products": 0}
        build, left = spectral.intensity_measure, spectral._left_products

        def counting_build(model, n):
            record["depths"].append(n)
            return build(model, n)

        def counting_left(base, mats):
            record["products"] += len(base) * len(mats)
            return left(base, mats)

        monkeypatch.setattr(spectral, "intensity_measure", counting_build)
        monkeypatch.setattr(spectral, "_left_products", counting_left)
        return record

    def test_one_build_per_depth(self, model7, built):
        # one build to n_max - 1 forms each stored depth once, from the one
        # below, and depth n_max is formed once for every alpha: 7^d
        # products at each depth d >= 2, none merged
        alphas = [1.5, 2, 3]
        reports = conditions.check_alpha_moments(model7, alphas, n_max=6)
        assert built == {"depths": [5], "products": sum(7 ** d for d in range(2, 7))}
        assert [r.quantities["alpha"] for r in reports] == alphas
        for alpha, rep in zip(alphas, reports):
            for n in range(1, 7):
                want = perron(n_step_moment_matrix(model7, alpha, n)).rho
                assert rep.quantities[f"rho_{n}(alpha)"] == want  # bitwise

    def test_repeats_and_order_kept(self, model_c):
        reports = check_alpha_moments(model_c, [2, 2, 1.5], n_max=3)
        single = [check_alpha_moments(model_c, [a], n_max=3)[0] for a in (2, 2, 1.5)]
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in single]

    def test_failed_alpha_stops_alone(self, model7, built, monkeypatch):
        # the Perron solve of M_3(3) fails: alpha = 3 stops at depth 3, the
        # others go on, and the measure is still built once, to n_max - 1
        bad = n_step_moment_matrix(model7, 3, 3)

        def failing(mat):
            if np.array_equal(mat, bad):
                raise MatcascadeError("planted failure")
            return perron(mat)

        monkeypatch.setattr(conditions, "perron", failing)
        rep_2, rep_3 = conditions.check_alpha_moments(model7, [2, 3], n_max=5)
        assert "rho_5(alpha)" in rep_2.quantities
        assert "rho_2(alpha)" in rep_3.quantities
        assert "rho_3(alpha)" not in rep_3.quantities
        assert "rho_3(alpha) unavailable: planted failure" in rep_3.notes
        built.update(depths=[], products=0)
        conditions.check_alpha_moments(model7, [3], n_max=5)
        assert built == {"depths": [4], "products": sum(7 ** d for d in range(2, 6))}

    def test_childless_builds_once(self, built):
        m = make_model(1, [(1.0, [])])
        for rep in check_alpha_moments(m, [2, 3], n_max=4):
            assert "rho_1(alpha) unavailable: matrix is not primitive" in rep.notes
        assert built == {"depths": [3], "products": 0}

    def test_no_alpha_builds_nothing(self, model7, built):
        # depth 8 would form 7^8 products, past SUPPORT_CAP, had it been built
        assert conditions.check_alpha_moments(model7, [], n_max=8) == []
        assert built == {"depths": [], "products": 0}

    def test_no_alpha_still_needs_finite_atoms(self):
        sampler = model_from_dict({"p": 2, "mode": "sampler", "sampler": {
            "family": "uniform", "params": {"n_children": 2}}})
        with pytest.raises(MatcascadeError, match="finite-atom"):
            check_alpha_moments(sampler, [], n_max=3)

    def test_any_alpha_out_of_range_rejected(self, model_c):
        with pytest.raises(MatcascadeError, match="alpha must be > 1"):
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

    def test_boundary_gamma_one(self, model_a):
        # a_lower*p*essinf_N = 1: Y = V, so the decay is exactly exponential
        rep_a, rep_b = exponential_profile(model_a, 0.0)
        assert rep_a.verdict == "holds"
        assert rep_a.quantities["gamma"] == 1.0
        assert rep_b.verdict == "not-applicable"

    @pytest.mark.parametrize("c", [2.0, 4.0])
    def test_off_assumption_h_not_applicable(self, model_a, c):
        # a_lower*p*essinf_N = c > 1 forces rho(M) > 1
        rep_a, rep_b = exponential_profile(scale_model(model_a, c), 0.0)
        assert rep_a.verdict == "not-applicable"
        assert "gamma" not in rep_a.quantities
        assert rep_b.verdict == "not-applicable"

    def test_requires_min_two_children(self):
        # a failed hypothesis rates both rows, never raises
        for atoms, m_low in (
                ([(0.5, [[[1.0]]]), (0.5, [[[0.25]], [[0.25]]])], 1),
                ([(0.5, []), (0.5, [[[1.0]], [[1.0]]])], 0)):
            reports = exponential_profile(make_model(1, atoms), 0.1)
            assert [r.theorem for r in reports] == ["T2.3a", "T2.3b"]
            for rep in reports:
                assert rep.verdict == "not-applicable"
                assert rep.quantities["essinf_N"] == m_low
                assert rep.assumptions_checked[-1] == (
                    "essinf N >= 2", f"fails: essinf N={m_low}")

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

    def test_failed_alpha_solve_noted(self):
        # every entry of M(1100) underflows to 0: the note names the
        # underflow, not primitivity
        rep = check_complex(self.phase_model(), 1100, beta_grid=[2.0])
        assert rep.verdict == "undecided"
        assert "rho_hat(alpha)" not in rep.quantities
        assert rep.notes == [
            "rho_hat(alpha) unavailable: M(alpha) underflows to the zero matrix"]

    def test_failed_beta_solve_skipped(self, monkeypatch):
        model = self.phase_model()
        bad = conditions.moment_matrix(model, 1.5)

        def failing(mat):
            if np.array_equal(mat, bad):
                raise MatcascadeError("planted failure")
            return perron(mat)

        monkeypatch.setattr(conditions, "perron", failing)
        rep = check_complex(model, 3, beta_grid=[1.5, 2.0])
        assert rep.verdict == "holds"
        assert "rho_hat(1.5)" not in rep.quantities
        assert rep.quantities["best_beta"] == 2.0
        assert rep.notes[0] == "rho_hat(1.5) unavailable: planted failure"
        rep = check_complex(model, 3, beta_grid=[1.5])
        assert rep.verdict == "undecided"
        assert rep.notes == ["rho_hat(1.5) unavailable: planted failure"]

    def test_real_model_rejected(self, model_a):
        with pytest.raises(MatcascadeError, match="requires a complex-mode model"):
            check_complex(model_a, 2)

    def test_report_serializes(self, model_c):
        d = check_alpha_moments(model_c, [2])[0].to_dict()
        assert d["theorem"] == "T2.1a"
        assert isinstance(d["quantities"], dict)
