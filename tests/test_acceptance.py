"""Acceptance gate: one test per release criterion, at the stated
tolerances and runtime budgets.  Each test prints a single PASS/FAIL line.

The reference two-dimensional model (single atom, two children) is fully
deterministic, so several statistical checks here degenerate to exact
ones; where a sample standard error is identically zero, comparisons
allow machine rounding (1e-13) on top of the stated SE multiples.
"""

import json
import math
import time

import numpy as np
import pytest

from matcascade.cli import main as cli_main
from matcascade.conditions import check_complex
from matcascade.engine import simulate_batch
from matcascade.estimate import (estimate_harmonic, estimate_laplace,
                                 estimate_moment, fit_power_decay,
                                 fit_stretched_exponential, fixed_point_check,
                                 tail_curve, tail_slope_test)
from matcascade.mbrw import build_cascade_from_mbrw, mbrw_spectral, spec_from_dict
from matcascade.spectral import (intensity_measure, moment_matrix,
                                 n_step_moment_matrix, perron)
from conftest import brute_force_moment_matrix, make_model, random_primitive_model

EPS = 1e-13  # machine-rounding allowance where the sample SE is exactly 0

LOG2 = math.log(2.0)
TT1 = {"p": 2, "types": [
    {"offspring": [{"prob": 1.0, "children": [{"type": 1, "disp": 0.0},
                                              {"type": 2, "disp": LOG2}]}]},
    {"offspring": [{"prob": 1.0, "children": [{"type": 1, "disp": LOG2},
                                              {"type": 2, "disp": 0.0}]}]}]}
PM1 = {"p": 1, "types": [
    {"offspring": [{"prob": 1.0, "children": [{"type": 1, "disp": 1.0},
                                              {"type": 1, "disp": -1.0}]}]}]}


@pytest.fixture
def verdict(capfd):
    # emit the one-line verdict past pytest's capture so it shows for
    # passing criteria too, then enforce it
    def emit(num, ok, detail):
        line = f"[PRIMARY {num:>2}] {'PASS' if ok else 'FAIL'} — {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, f"criterion {num}: {detail}"

    return emit


def model_suite(model_a, model_b, model_c):
    models = [model_a, model_b, model_c]
    rng = np.random.default_rng(20240817)
    while len(models) < 23:
        models.append(random_primitive_model(rng, max_atoms=3, max_children=3))
    return models


class TestAcceptance:
    def test_01_exact_spectral_suite(self, verdict, model_a, model_b, model_c):
        t0 = time.monotonic()
        suite = model_suite(model_a, model_b, model_c)
        for model in suite:
            p = model.p
            triple = perron(model.mean_matrix())
            assert triple.residual <= 1e-10
            for t in (1.5, 2.0, 3.0):
                rho_t = perron(moment_matrix(model, t)).rho
                rho_1 = perron(n_step_moment_matrix(model, t, 1)).rho
                assert abs(rho_1 - rho_t) <= 1e-14
                for n in (2, 3, 4):
                    mn = n_step_moment_matrix(model, t, n)
                    rho_n = perron(mn).rho
                    assert rho_t**n <= rho_n + 1e-12
                    assert rho_n <= p ** ((t - 1) * (n - 1)) * rho_t**n + 1e-12
                    if n <= 3 or t == 2.0:
                        bf = brute_force_moment_matrix(model, t, n)
                        assert np.abs(mn - bf).max() <= 1e-13
        elapsed = time.monotonic() - t0
        verdict(1, elapsed < 10.0,
                f"Perron residuals, depth-1 identity, sandwich bounds and "
                f"brute-force agreement on {len(suite)} models in {elapsed:.1f}s")

    def test_02_log_convexity(self, verdict, model_a, model_b, model_c):
        suite = model_suite(model_a, model_b, model_c)
        grid = (1.0, 1.5, 2.0, 3.0)
        worst = -np.inf
        for model in suite:
            rho = {t: perron(moment_matrix(model, t)).rho for t in grid}
            rho_at = lambda t: perron(moment_matrix(model, t)).rho  # noqa: E731
            for s in grid:
                for u in grid:
                    for theta in (0.25, 0.5, 0.75):
                        mid = rho_at(theta * s + (1 - theta) * u)
                        gap = mid - rho[s] ** theta * rho[u] ** (1 - theta)
                        worst = max(worst, gap)
        verdict(2, worst <= 1e-10,
                f"eigenvalue log-convexity on the suite, worst violation "
                f"{worst:.2e}")

    def test_03_degenerate_cascades(self, verdict, model_a, model_b):
        ok = True
        for seed in (0, 7, 123456):
            for n in (1, 6, 12):
                y_a = simulate_batch(model_a, n, 1, seed).values[0]
                traj_a = [simulate_batch(model_a, m, 1, seed).values[0]
                          for m in range(n + 1)]
                ok &= y_a[0] == 1.0 and all(t[0] == 1.0 for t in traj_a)
                y_b = simulate_batch(model_b, n, 1, seed).values[0]
                ok &= bool(np.array_equal(y_b, [1.0, 1.0]))
        verdict(3, ok, "binary and idempotent-chain cascades are bitwise "
                       "exact for n <= 12 across seeds")

    def test_04_martingale_mean(self, verdict, model_c):
        t0 = time.monotonic()
        passes = 0
        for seed in (1, 2, 3):
            batch = simulate_batch(model_c, 8, 10**5, seed)
            mean = batch.values.mean(axis=0)
            se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
            if np.all(np.abs(mean - 1.0) <= 4 * se + EPS):
                passes += 1
        elapsed = time.monotonic() - t0
        verdict(4, passes >= 2 and elapsed < 60.0,
                f"batch mean within 4*SE of V in {passes}/3 seeds, "
                f"{elapsed:.1f}s")

    def test_05_moment_dichotomy(self, verdict, model_c, model_d2):
        t0 = time.monotonic()
        # bounded side: second norm-moment stable across depths
        cis = []
        for n in (6, 8, 10):
            batch = simulate_batch(model_c, n, 10**5, 1)
            est = estimate_moment(batch, 2, target="norm")
            cis.append(est.ci95)
        stable = all(a[0] - 1e-12 <= b[1] and b[0] - 1e-12 <= a[1]
                     for a in cis for b in cis)
        # unbounded side: scalar second moment grows
        lo = estimate_moment(simulate_batch(model_d2, 4, 10**5, 1), 2, target=0)
        hi = estimate_moment(simulate_batch(model_d2, 8, 10**5, 1), 2, target=0)
        growth = hi.point / lo.point
        elapsed = time.monotonic() - t0
        verdict(5, stable and growth >= 2.0 and elapsed < 120.0,
                f"stable CIs where the criterion holds, growth x{growth:.1f} "
                f"where it fails, {elapsed:.1f}s")

    def test_06_fixed_point_check(self, verdict, model_c):
        passes = 0
        for seed in (1, 2, 3):
            rep = fixed_point_check(model_c, 8, 10**4, seed)
            if all(p > 0.01 for _, p in rep.ks.values()):
                passes += 1
        mutated = fixed_point_check(model_c, 8, 10**4, 1,
                                    skip_root_weights=True)
        verdict(6, passes >= 2 and mutated.min_pvalue < 1e-6,
                f"recursion KS clean in {passes}/3 seeds; seeded root "
                f"mutation detected at p={mutated.min_pvalue:.1e}")

    def test_07_harmonic_tail_chain(self, verdict, model_c):
        t0 = time.monotonic()
        y = np.array([1.0, 1.0])
        ests = []
        batches = {}
        for n in (6, 8, 10):
            batches[n] = simulate_batch(model_c, n, 10**5, 1)
            ests.append(estimate_harmonic(batches[n], 1.0, y))
        finite = all(np.isfinite(e.point) for e in ests)
        stable = all(abs(a.point - b.point) <= 4 * (a.stderr + b.stderr) + EPS
                     for a in ests for b in ests)
        # tail ratio bounded, no upward drift over one decade (lambda_m = 2)
        pts = tail_curve(batches[8], y, np.geomspace(0.15, 1.5, 10), lam=2.0)
        if all(q.cdf == 0.0 for q in pts):
            no_drift = True  # empirical tail identically zero: bounded
        else:
            drift, _, _ = tail_slope_test(pts, level=0.05)
            no_drift = not drift
        bounded = max(q.ratio for q in pts) < np.inf
        curve = estimate_laplace(batches[8],
                                 [s * y for s in np.geomspace(0.05, 20, 50)])
        fit = fit_power_decay(curve, replicates=10**5)
        elapsed = time.monotonic() - t0
        verdict(7, finite and stable and bounded and no_drift
                and fit.exponent >= 1.6 and elapsed < 120.0,
                f"harmonic estimate {ests[1].point:.4f} stable across depths, "
                f"tail ratio bounded, decay exponent {fit.exponent:.2f} >= 1.6, "
                f"{elapsed:.1f}s")

    def test_08_stretched_exponential_regime(self, verdict, model_c):
        t0 = time.monotonic()
        batch = simulate_batch(model_c, 6, 10**6, 1)
        y = np.ones(2)
        curve = estimate_laplace(batch,
                                 [s * y for s in np.geomspace(0.5, 8.0, 40)])
        fit = fit_stretched_exponential(curve, replicates=batch.replicates)
        gamma = math.log(2) / math.log(5)
        elapsed = time.monotonic() - t0
        ok = (0.28 <= fit.exponent <= 0.63 and fit.r2 >= 0.98
              and elapsed < 300.0)
        verdict(8, ok,
                f"fitted stretching exponent {fit.exponent:.4f} vs predicted "
                f"{gamma:.4f} envelope [0.28, 0.63], r2={fit.r2:.4f}, "
                f"{elapsed:.1f}s")

    def test_09_mbrw_reduction(self, verdict):
        ok = True
        details = []
        for doc, t in ((TT1, 1.0), (PM1, 1.0)):
            spec = spec_from_dict(doc)
            model = build_cascade_from_mbrw(spec, t)
            sp = mbrw_spectral(spec, t)
            ok &= np.abs(model.mean_matrix()
                         - sp.m_tilde / sp.rho_tilde).max() <= 1e-12
            for alpha in (1.25, 1.5, 2.0, 3.0):
                lhs = perron(moment_matrix(model, alpha)).rho
                rhs = (mbrw_spectral(spec, alpha * t).rho_tilde
                       / sp.rho_tilde ** alpha)
                ok &= abs(lhs - rhs) <= 1e-12
            v = perron(model.mean_matrix()).v
            batch = simulate_batch(model, 4, 5000, 3)
            w = batch.values / v
            mean = w.mean(axis=0)
            se = w.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
            ok &= bool(np.all(np.abs(mean - 1.0) <= 4 * se + EPS))
            details.append(f"p={spec.p}: mean dev {np.abs(mean - 1).max():.1e}")
        verdict(9, ok, "reduction identities to 1e-12 and unit martingale "
                       "means (" + "; ".join(details) + ")")

    def test_10_complex_case(self, verdict):
        # modulus criterion on the random-phase model
        phases = make_model(
            1, [(0.25, [[[0.5 + 0j]], [[0.5 + 0j]]]),
                (0.25, [[[0.5 + 0j]], [[-0.5 + 0j]]]),
                (0.25, [[[-0.5 + 0j]], [[0.5 + 0j]]]),
                (0.25, [[[-0.5 + 0j]], [[-0.5 + 0j]]])],
            field_kind="complex")
        rep = check_complex(phases, 2)
        criterion_ok = (rep.verdict == "holds"
                        and abs(rep.quantities["rho_hat(alpha)"] - 0.5) < 1e-12)
        # deterministic phase accumulation: A_k = 0.5i, Y_3 = e^{3 i pi/2}
        det = make_model(1, [(1.0, [[[0.5j]], [[0.5j]]])], field_kind="complex")
        y3 = simulate_batch(det, 3, 1, 0).values[0]
        exact_ok = y3[0] == -1j
        # complex batch mean against V
        vals = simulate_batch(phases, 5, 10**4, 1, 10**7).ok_values()[:, 0]
        mean = vals.mean()
        se_re = vals.real.std(ddof=1) / np.sqrt(vals.size)
        se_im = vals.imag.std(ddof=1) / np.sqrt(vals.size)
        mean_ok = (abs(mean.real - 1.0) <= 4 * se_re + EPS
                   and abs(mean.imag) <= 4 * se_im + EPS)
        verdict(10, criterion_ok and exact_ok and mean_ok,
                f"modulus criterion {rep.verdict}; deterministic phase exact: "
                f"{exact_ok}; complex batch mean {mean:.4f} vs V=1 "
                f"(4*SE = {4 * max(se_re, se_im):.1e})")

    def test_11_reproducibility(self, verdict, tmp_path):
        model_doc = {"p": 2, "atoms": [{"prob": 1.0, "matrices": [
            [[0.3, 0.2], [0.1, 0.4]], [[0.2, 0.3], [0.4, 0.1]]]}]}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        runs = []
        for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "8")):
            out = tmp_path / name
            code = cli_main(["simulate", "--model", str(model_path), "--n",
                             "5", "--replicates", "200", "--seed", "11",
                             "--workers", workers, "--out", str(out)])
            assert code == 0
            runs.append(out)
        sim_ok = all(
            (runs[0] / f).read_bytes() == (other / f).read_bytes()
            for other in runs[1:] for f in ("batch.csv", "batch.bin"))
        checks = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert cli_main(["check", "--model", str(model_path), "--alpha",
                             "2", "--lambda", "1", "--out", str(out)]) == 0
            checks.append((out / "conditions.json").read_bytes())
        ests = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert cli_main(["estimate", "--model", str(model_path), "--batch",
                             str(runs[0]), "--alpha", "2", "--out",
                             str(out)]) == 0
            ests.append((out / "estimates.json").read_bytes())
        verdict(11, sim_ok and checks[0] == checks[1] and ests[0] == ests[1],
                "reruns with identical flags and seed are bitwise identical, "
                "independent of --workers")
