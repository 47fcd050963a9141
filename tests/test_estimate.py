import numpy as np
import pytest

from matcascade import estimate
from matcascade.engine import SampleBatch, simulate_batch
from matcascade.estimate import (EstimateError, TailPoint, estimate_harmonic,
                                 estimate_laplace, estimate_moment,
                                 fit_power_decay, fit_stretched_exponential,
                                 fixed_point_check, tail_curve, tail_slope_test)
from matcascade.model import model_from_dict
from conftest import make_model


def synthetic_batch(values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    r = values.shape[0]
    return SampleBatch(model_id="synthetic", n=1, replicates=r, values=values,
                       master_seed=0, field_kind="real",
                       extinct=np.zeros(r, dtype=bool),
                       capped=np.zeros(r, dtype=bool))


class TestMoment:
    def test_constant_batch(self, model_a):
        batch = simulate_batch(model_a, 5, 100, 7)
        est = estimate_moment(batch, 3, target="norm")
        assert est.point == 1.0
        assert est.stderr == 0.0
        assert not est.heavy_tail_flag

    def test_alpha_one_coordinate_is_mean(self, model_rand):
        batch = simulate_batch(model_rand, 4, 500, 3)
        for i in range(model_rand.p):
            est = estimate_moment(batch, 1, target=i)
            assert abs(est.point - batch.values[:, i].mean()) <= 1e-15

    def test_projection_target(self):
        batch = synthetic_batch(np.array([[1.0, 2.0], [3.0, 4.0]]))
        est = estimate_moment(batch, 1, target=[1.0, 1.0])
        assert est.point == pytest.approx(5.0)
        assert est.target.startswith("proj:")

    def test_heavy_tail_flag(self):
        vals = np.ones(1000)
        vals[0] = 1e6
        est = estimate_moment(synthetic_batch(vals), 2)
        assert est.heavy_tail_flag

    def test_excludes_capped(self, model_a):
        batch = simulate_batch(model_a, 8, 5, 1, cap=10)
        with pytest.raises(EstimateError, match="empty"):
            estimate_moment(batch, 2)

    def test_bad_alpha(self, model_a):
        batch = simulate_batch(model_a, 2, 10, 0)
        with pytest.raises(EstimateError):
            estimate_moment(batch, 0)


class TestHarmonic:
    def test_model_c_exact(self, model_c):
        batch = simulate_batch(model_c, 8, 200, 1)
        est = estimate_harmonic(batch, 1.0, [1.0, 1.0])
        assert est.point == pytest.approx(0.5, abs=1e-12)
        assert est.infinite_count == 0
        assert est.bias_note is None

    def test_extinct_excluded_with_note(self):
        model = make_model(1, [(0.5, []), (0.5, [[[0.5]], [[0.5]]])])
        batch = simulate_batch(model, 6, 400, 3)
        est = estimate_harmonic(batch, 1.0, [1.0])
        assert est.infinite_count == batch.extinct_count
        assert est.infinite_count > 0
        assert "biased" in est.bias_note
        assert np.isfinite(est.point)

    def test_bad_projection(self, model_c):
        batch = simulate_batch(model_c, 3, 10, 0)
        with pytest.raises(EstimateError):
            estimate_harmonic(batch, 1.0, [0.0, 0.0])
        with pytest.raises(EstimateError):
            estimate_harmonic(batch, 1.0, [-1.0, 1.0])


class TestLaplace:
    def test_phi_at_zero_is_one(self, model_rand):
        batch = simulate_batch(model_rand, 4, 50, 2)
        curve = estimate_laplace(batch, [np.zeros(model_rand.p)])
        assert curve[0][1] == 1.0

    def test_model_c_closed_form(self, model_c):
        batch = simulate_batch(model_c, 6, 50, 1)
        grid = [s * np.ones(2) for s in (0.5, 1.0, 2.0)]
        curve = estimate_laplace(batch, grid)
        for (t, phi), s in zip(curve, (0.5, 1.0, 2.0)):
            assert phi == pytest.approx(np.exp(-2 * s), rel=1e-12)

    def test_empty_grid(self, model_c):
        batch = simulate_batch(model_c, 2, 10, 0)
        with pytest.raises(EstimateError):
            estimate_laplace(batch, [])


def power_curve(exponent, scale=1.0, n_pts=30):
    ss = np.geomspace(0.5, 400.0, n_pts)
    return [(scale * s * np.ones(1), float(s ** -exponent)) for s in ss]


def stretched_curve(gamma, scale=1.0, n_pts=30):
    ss = np.geomspace(2.0, 200.0, n_pts)
    return [(scale * s * np.ones(1), float(np.exp(-s**gamma))) for s in ss]


class TestDecayFits:
    def test_power_recovers_exponent(self):
        fit = fit_power_decay(power_curve(2.0))
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.r2 >= 0.999999
        assert not fit.r2_flag

    def test_stretched_recovers_gamma(self):
        fit = fit_stretched_exponential(stretched_curve(0.5))
        assert fit.exponent == pytest.approx(0.5, abs=1e-10)
        assert fit.r2 >= 0.999999

    def test_scale_equivariance(self):
        base = fit_power_decay(power_curve(1.7))
        scaled_curve = [(3.0 * t, phi) for t, phi in power_curve(1.7)]
        scaled = fit_power_decay(scaled_curve)
        assert abs(base.exponent - scaled.exponent) <= 1e-10
        assert base.intercept != pytest.approx(scaled.intercept, abs=1e-3)

    def test_stretched_scale_equivariance(self):
        base = fit_stretched_exponential(stretched_curve(0.4))
        scaled = fit_stretched_exponential(
            [(2.0 * t, phi) for t, phi in stretched_curve(0.4)])
        assert abs(base.exponent - scaled.exponent) <= 1e-10

    def test_noise_floor_from_replicates(self):
        fit = fit_power_decay(power_curve(2.0, n_pts=120), replicates=100)
        assert fit.window[0] == pytest.approx(0.1)
        assert all(phi >= 0.1 for _, phi in fit.grid)

    def test_r2_flag_on_wrong_family(self):
        # stretched-exponential data pushed through the power-law fit
        fit = fit_power_decay(stretched_curve(0.5, n_pts=60))
        assert fit.r2_flag

    def test_too_few_points(self):
        with pytest.raises(EstimateError, match="grid points"):
            fit_power_decay(power_curve(2.0, n_pts=3))


class TestTailCurve:
    def test_constant_batch_below_support(self, model_a):
        batch = simulate_batch(model_a, 5, 100, 1)
        pts = tail_curve(batch, [1.0], [0.5], lam=2.0)
        assert pts[0].cdf == 0.0
        assert pts[0].flagged

    def test_saturation(self, model_a):
        batch = simulate_batch(model_a, 5, 100, 1)
        pts = tail_curve(batch, [1.0], [2.0], lam=2.0)
        assert pts[0].cdf == 1.0
        assert pts[0].wilson_low < 1.0 <= pts[0].wilson_high + 1e-12

    def test_wilson_brackets_cdf(self):
        rng = np.random.default_rng(0)
        batch = synthetic_batch(rng.exponential(size=2000))
        pts = tail_curve(batch, [1.0], np.geomspace(0.05, 0.5, 8), lam=1.0)
        for q in pts:
            assert q.wilson_low <= q.cdf <= q.wilson_high

    def test_bad_grid(self, model_a):
        batch = simulate_batch(model_a, 2, 10, 0)
        with pytest.raises(EstimateError):
            tail_curve(batch, [1.0], [0.5, 0.4], lam=1.0)


class TestTailSlope:
    @staticmethod
    def points_from_ratio(xs, ratios):
        return [TailPoint(x=float(x), cdf=1.0, wilson_low=0, wilson_high=1,
                          ratio=float(r), flagged=False)
                for x, r in zip(xs, ratios)]

    def test_flat_ratio_no_drift(self):
        xs = np.geomspace(0.01, 0.1, 10)
        drift, slope, pvalue = tail_slope_test(
            self.points_from_ratio(xs, np.full(10, 2.0)))
        assert not drift

    def test_upward_drift_detected(self):
        xs = np.geomspace(0.01, 0.1, 10)
        drift, slope, pvalue = tail_slope_test(
            self.points_from_ratio(xs, 1.0 / xs))  # ratio grows as x -> 0
        assert drift and slope < 0 and pvalue < 0.05

    def test_too_few_points(self):
        with pytest.raises(EstimateError):
            tail_slope_test(self.points_from_ratio([0.1, 0.2], [1.0, 1.0]))


class TestFixedPoint:
    def test_model_a_degenerate(self, model_a):
        rep = fixed_point_check(model_a, 4, 200, 1)
        for stat, pvalue in rep.ks.values():
            assert stat == 0.0
            assert pvalue == 1.0

    def test_model_c_recursion_holds(self, model_c):
        rep = fixed_point_check(model_c, 4, 500, 1)
        assert rep.min_pvalue > 0.01
        assert rep.laplace_residual <= 1e-12  # deterministic Laplace identity
        assert set(rep.ks) == {"e1", "e2", "ones"}

    def test_random_model_recursion_holds(self, model_rand):
        # the depth-n and grafted depth-(n+1) laws agree once the
        # martingale has settled; n = 8 is within KS resolution at R = 4000
        rep = fixed_point_check(model_rand, 8, 4000, 7)
        assert rep.min_pvalue > 0.01
        assert rep.laplace_residual < 0.1

    def test_mutation_detected(self, model_rand):
        rep = fixed_point_check(model_rand, 8, 4000, 7, skip_root_weights=True)
        assert rep.min_pvalue < 1e-6

    UNIFORM_SAMPLER = {"p": 2, "mode": "sampler", "sampler": {
        "family": "uniform", "params": {"n_children": 2, "low": 0.1, "high": 0.4}}}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampler_recursion_holds(self, seed):
        model = model_from_dict(self.UNIFORM_SAMPLER)
        rep = fixed_point_check(model, 3, 400, seed)
        assert rep.laplace_residual < 0.05
        assert rep.min_pvalue > 0.01

    def test_sampler_mutation_detected(self):
        model = model_from_dict(self.UNIFORM_SAMPLER)
        rep = fixed_point_check(model, 3, 400, 1, skip_root_weights=True)
        assert rep.min_pvalue < 1e-6

    def test_complex_model_refused_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a complex model")

        monkeypatch.setattr(estimate, "simulate_batch", no_simulation)
        model = make_model(1, [(1.0, [[[0.5j]], [[0.5]]])], field_kind="complex")
        with pytest.raises(EstimateError, match="real-mode"):
            fixed_point_check(model, 3, 100, 1)
