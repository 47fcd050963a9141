import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matcascade import spectral
from matcascade.conditions import check_alpha_moments
from matcascade.model import MatcascadeError, offspring_law
from matcascade.spectral import (IntensityMeasure, intensity_measure, matrix_norm,
                                 moment_matrix, n_step_moment_matrix, perron)
from matcascade.mbrw import build_cascade_from_mbrw, spec_from_dict
from conftest import (brute_force_moment_matrix, eig_perron_oracle, make_model,
                      random_primitive_model, reference_deepest_level,
                      reference_intensity_measure, reference_power_sum)


class TestMatrixNorm:
    def test_entrywise_sum(self):
        assert matrix_norm([[1.0, -2.0], [3.0, -4.0]]) == 10.0

    def test_scalar(self):
        assert matrix_norm([[2.5]]) == 2.5


class TestPerron:
    def test_model_a(self, model_a):
        t = perron(model_a.mean_matrix())
        assert t.rho == pytest.approx(1.0, abs=1e-14)
        assert t.u[0] == 1.0 and t.v[0] == 1.0
        assert t.residual <= 1e-10

    def test_model_c(self, model_c):
        t = perron(model_c.mean_matrix())
        assert t.rho == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(t.u, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(t.v, [1.0, 1.0], atol=1e-12)

    def test_normalization_invariants(self):
        mat = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.4], [0.1, 0.2, 0.7]])
        t = perron(mat)
        assert t.u.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(t.u @ t.v) == pytest.approx(1.0, abs=1e-12)
        assert t.residual <= 1e-10

    def test_non_primitive_rejected(self):
        with pytest.raises(MatcascadeError, match="primitive"):
            perron(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_negative_rejected(self):
        with pytest.raises(MatcascadeError, match="negative entries"):
            perron(np.array([[-1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(MatcascadeError, match="square matrix"):
            perron(np.ones((2, 3)))

    @pytest.mark.parametrize("mat", [
        [[1e-4, 1.0], [1.0, 0.0]], [[1e-5, 1.0], [1.0, 0.0]],
        [[1e-6, 1.0], [1.0, 0.0]],
        [[1e-6, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        [[1.0, 1e-5], [4e-5, 1.0]]])
    def test_second_eigenvalue_near_rho_in_modulus(self, mat):
        # near-cyclic (second eigenvalue near -rho or rho e^{2 pi i/3}) and
        # nearly reducible (near +rho): plain iteration does not converge
        t = perron(np.array(mat))
        rho, u, v = eig_perron_oracle(mat)
        assert t.rho == pytest.approx(rho, rel=1e-12)
        np.testing.assert_allclose(t.u, u, atol=1e-10)
        np.testing.assert_allclose(t.v, v, atol=1e-10)

    def test_slow_but_converging_plain_iteration_kept(self):
        # within the plain budget: the same steps, and bits, as ever
        t = perron(np.array([[1e-2, 1.0], [1.0, 0.0]]))
        assert t.iterations == 2395
        assert t.rho == 1.0050124999218766

    @pytest.mark.parametrize("x", [0.5, 1.0, 0.7320508075688772, 3.0, 1e300,
                                   1e-300, 5e-324])
    def test_scalar_is_its_own_root(self, x):
        # the power iteration stops after one step on a 1 x 1 matrix
        t = perron(np.array([[x]]))
        assert t.rho == x  # bitwise
        np.testing.assert_array_equal(t.u, [1.0])
        np.testing.assert_array_equal(t.v, [1.0])
        assert t.residual == 0.0
        assert t.iterations == 1

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_against_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 5))
        mat = rng.uniform(0.05, 2.0, (p, p))
        t = perron(mat)
        rho, u, v = eig_perron_oracle(mat)
        assert t.rho == pytest.approx(rho, rel=1e-10)
        np.testing.assert_allclose(t.u, u, atol=1e-9)
        np.testing.assert_allclose(t.v, v, atol=1e-9)
        assert t.residual <= 1e-10


class TestMomentMatrix:
    def test_model_a_t2(self, model_a):
        np.testing.assert_allclose(moment_matrix(model_a, 2), [[0.5]], atol=0)

    def test_model_c_t2(self, model_c):
        # oracle: entrywise squares 0.09+0.04, 0.04+0.09, 0.01+0.16, 0.16+0.01
        np.testing.assert_allclose(moment_matrix(model_c, 2),
                                   [[0.13, 0.13], [0.17, 0.17]], atol=1e-15)
        assert perron(moment_matrix(model_c, 2)).rho == pytest.approx(0.3, abs=1e-13)

    def test_t1_is_mean_matrix(self, model_c):
        np.testing.assert_array_equal(moment_matrix(model_c, 1),
                                      model_c.mean_matrix())

    def test_negative_t_zero_entry_rejected(self):
        m = make_model(2, [(1.0, [[[0.5, 0.0], [0.5, 0.5]]])])
        with pytest.raises(MatcascadeError, match="zero entry"):
            moment_matrix(m, -1.0)

    def test_negative_t_positive_entries(self, model_c):
        out = moment_matrix(model_c, -1.0)
        # entry (0,0): 1/0.3 + 1/0.2
        assert out[0, 0] == pytest.approx(1 / 0.3 + 1 / 0.2, rel=1e-14)

    def test_complex_uses_modulus(self):
        m = make_model(1, [(1.0, [[[0.5j]], [[-0.5 + 0j]]])],
                       field_kind="complex")
        np.testing.assert_allclose(moment_matrix(m, 2), [[0.5]], atol=1e-15)


def _mean_offspring(model):
    """E N, from the law of the child count."""
    return sum(n * q for n, q in offspring_law(model.atoms).items())


class TestIntensityMeasure:
    def test_model_a_depth2(self, model_a):
        nu = intensity_measure(model_a, 2)
        assert nu.weights.shape == (1,)
        assert nu.weights.sum() == pytest.approx(_mean_offspring(model_a) ** 2,
                                                 abs=1e-12)
        np.testing.assert_allclose(nu.matrices[0], [[0.25]], atol=0)

    def test_model_b_depth3(self, model_b):
        nu = intensity_measure(model_b, 3)
        assert len(nu.weights) == 1
        assert nu.weights.sum() == pytest.approx(_mean_offspring(model_b) ** 3,
                                                 abs=1e-12)
        np.testing.assert_allclose(nu.matrices[0],
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_model_c_depth2(self, model_c):
        nu = intensity_measure(model_c, 2)
        assert len(nu.weights) == 4
        np.testing.assert_allclose(nu.weights, np.ones(4), atol=1e-15)
        # oracle: the four products A_i A_j by hand
        a1 = np.array([[0.3, 0.2], [0.1, 0.4]])
        a2 = np.array([[0.2, 0.3], [0.4, 0.1]])
        expected = [a1 @ a1, a1 @ a2, a2 @ a1, a2 @ a2]
        for want in expected:
            assert any(np.abs(got - want).max() <= 1e-15
                       for got in nu.matrices)

    def test_support_cap(self, model_c, monkeypatch):
        monkeypatch.setattr(spectral, "SUPPORT_CAP", 10)
        with pytest.raises(MatcascadeError, match="cap"):
            intensity_measure(model_c, 4)

    def test_cap_counts_merged_support(self, model_a):
        # 2^30 paths, but every depth's support is the single product 2^-30
        nu = intensity_measure(model_a, 30)
        assert len(nu.weights) == 1
        assert nu.weights[0] == 2.0**30
        assert nu.matrices[0, 0, 0] == 0.5**30

    def test_cap_refuses_depth_by_products_formed(self, model_c, monkeypatch):
        # no products merge: depth 3 forms 8 products, depth 4 would form 16
        monkeypatch.setattr(spectral, "SUPPORT_CAP", 8)
        assert len(intensity_measure(model_c, 3).weights) == 8
        monkeypatch.setattr(spectral, "SUPPORT_CAP", 15)
        with pytest.raises(MatcascadeError, match="depth 4 would form 16 products"):
            intensity_measure(model_c, 4)

    @given(seed=st.integers(0, 300), n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_total_weight_is_mean_offspring_power(self, seed, n):
        model = random_primitive_model(np.random.default_rng(seed))
        nu = intensity_measure(model, n)
        assert nu.weights.sum() == pytest.approx(_mean_offspring(model) ** n,
                                                 rel=1e-12)


def _walk_model():
    """Two-type walk with extinction: type-inconsistent products vanish,
    so many depth-n products are bitwise equal."""
    def children(*cs):
        return [{"type": j, "disp": d} for j, d in cs]

    spec = spec_from_dict({"p": 2, "types": [
        {"offspring": [{"prob": 0.1, "children": []},
                       {"prob": 0.2, "children": children((2, 0.3))},
                       {"prob": 0.7, "children": children((1, -0.2), (2, 0.5))}]},
        {"offspring": [{"prob": 0.1, "children": []},
                       {"prob": 0.2, "children": children((1, -0.4))},
                       {"prob": 0.7, "children": children((2, 0.1), (1, 0.6))}]}]})
    return build_cascade_from_mbrw(spec, 1.0)


def _repeated_child_model(field_kind):
    """Random p = 2 model in which one child matrix occurs twice."""
    rng = np.random.default_rng(11)
    shape = (3, 2, 2)
    a, b, c = rng.uniform(0.05, 0.6, shape)
    if field_kind == "complex":
        a, b, c = (x * np.exp(2j * np.pi * rng.random((2, 2))) for x in (a, b, c))
    return make_model(2, [(0.4, [a, b, a]), (0.6, [c, b])], field_kind=field_kind)


def _scalar_model():
    """p = 1 with three children: 26 distinct depth-5 products, more than
    the 8 terms from which a numpy sum over axis 0 adds pairwise."""
    return make_model(1, [(0.5, [[[0.3]], [[0.5]]]), (0.5, [[[0.45]]])])


# (model, depth); in each, some depth-n products are bitwise equal
REFERENCE_CASES = {
    "model-a-depth-30": (lambda: make_model(1, [(1.0, [[[0.5]], [[0.5]]])]), 30),
    "walk-depth-6": (_walk_model, 6),
    "repeated-child-depth-4": (lambda: _repeated_child_model("real"), 4),
    "complex-depth-4": (lambda: _repeated_child_model("complex"), 4),
    "scalar-depth-5": (_scalar_model, 5),
}


class TestAgainstReference:
    """The array merge and power sums against the reference that takes one
    product at a time: equal bits, in the same support order.  The depth-n
    power sum is over the unmerged depth-n level, which is never merged."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_intensity_measure_bitwise(self, case):
        make, n = REFERENCE_CASES[case]
        model = make()
        want_w, want_m = reference_intensity_measure(model, n)
        assert len(want_w) < sum(a.n_children for a in model.atoms)**n
        nu = intensity_measure(model, n)
        assert nu.weights.dtype == want_w.dtype
        assert nu.matrices.dtype == want_m.dtype
        assert nu.weights.tobytes() == want_w.tobytes()
        assert nu.matrices.tobytes() == want_m.tobytes()

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_levels_bitwise(self, case):
        make, n = REFERENCE_CASES[case]
        model = make()
        nu = intensity_measure(model, n)
        depths = []
        while nu.below is not None:
            depths.append(nu.depth)
            want_w, want_m = reference_intensity_measure(model, nu.depth)
            assert nu.weights.dtype == want_w.dtype
            assert nu.matrices.dtype == want_m.dtype
            assert nu.weights.tobytes() == want_w.tobytes()
            assert nu.matrices.tobytes() == want_m.tobytes()
            nu = nu.below
        assert depths + [nu.depth] == list(range(n, 0, -1))
        # depth 1 is the child stack: bitwise-equal children stay apart
        assert nu.weights.tobytes() == np.array(
            [a.prob for a in model.atoms for _ in a.matrices]).tobytes()
        assert nu.matrices.tobytes() == np.concatenate(
            [a.matrices for a in model.atoms]).tobytes()

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_power_sums_bitwise(self, case):
        make, n = REFERENCE_CASES[case]
        model = make()
        level = reference_deepest_level(model, n)
        probs = np.array([a.prob for a in model.atoms for _ in a.matrices])
        children = np.stack([m for a in model.atoms for m in a.matrices])
        for t in (1, 1.5, 2, 3):
            for got, want in (
                    (n_step_moment_matrix(model, t, n),
                     reference_power_sum(*level, t)),
                    (moment_matrix(model, t), reference_power_sum(probs, children, t)),
                    (n_step_moment_matrix(model, t, 1), moment_matrix(model, t))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


# p = 3, seven children in three atoms, as the exact_moments benchmark
# workload: no two products of depth 2 or more are bitwise equal
NO_MERGE_MODEL = [
    (0.3, [[[0.24, 0.47, 0.17], [0.08, 0.19, 0.37], [0.4, 0.29, 0.19]],
           [[0.46, 0.47, 0.25], [0.23, 0.33, 0.37], [0.33, 0.24, 0.25]]]),
    (0.3, [[[0.34, 0.46, 0.07], [0.09, 0.39, 0.26], [0.4, 0.29, 0.26]],
           [[0.48, 0.22, 0.34], [0.29, 0.1, 0.13], [0.42, 0.29, 0.36]]]),
    (0.4, [[[0.25, 0.43, 0.43], [0.24, 0.11, 0.42], [0.27, 0.3, 0.28]],
           [[0.07, 0.28, 0.09], [0.08, 0.42, 0.11], [0.37, 0.25, 0.28]],
           [[0.28, 0.13, 0.08], [0.34, 0.1, 0.08], [0.07, 0.32, 0.48]]]),
]


class TestMergePrecheck:
    """When no two products hash equal, _merge returns its input, which is
    what the full merge gives; any equal hash falls back to the full
    merge.  HASH_BASE = 0 makes every hash 0, so it forces the full merge."""

    def full_merge(self, weights, mats, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(spectral, "HASH_BASE", 0)
            return spectral._merge(weights, mats)

    @pytest.mark.parametrize("p, field_kind, seed", [
        (1, "real", 0), (2, "real", 1), (3, "real", 2), (1, "complex", 3),
        (2, "complex", 4)])
    def test_no_merge_returns_input(self, p, field_kind, seed, monkeypatch):
        # random matrices, no two equal, as the products of a model whose
        # products never coincide (p = 1 products commute, so they merge)
        rng = np.random.default_rng(seed)
        weights = rng.random(2000)
        products = rng.uniform(0.05, 1.0, (2000, p, p))
        if field_kind == "complex":
            products = products * np.exp(2j * np.pi * rng.random((2000, p, p)))
        merged_w, merged_m = spectral._merge(weights, products)
        assert merged_w is weights and merged_m is products
        want_w, want_m = self.full_merge(weights, products, monkeypatch)
        assert len(want_w) == len(weights)  # none merged
        assert merged_w.dtype == want_w.dtype and merged_m.dtype == want_m.dtype
        assert merged_w.tobytes() == want_w.tobytes()
        assert merged_m.tobytes() == want_m.tobytes()

    def test_exact_moments_model_against_reference(self):
        model = make_model(3, NO_MERGE_MODEL)
        nu = intensity_measure(model, 5)
        for depth in (5, 4):
            want_w, want_m = reference_intensity_measure(model, depth)
            assert len(want_w) == 7 ** depth
            assert nu.depth == depth
            assert nu.weights.tobytes() == want_w.tobytes()
            assert nu.matrices.tobytes() == want_m.tobytes()
            nu = nu.below

    def test_planted_collision_falls_back(self, monkeypatch):
        # every hash equal: the full merge runs, with the same output
        model = make_model(3, NO_MERGE_MODEL)
        weights, products = reference_deepest_level(model, 4)
        fast_w, fast_m = spectral._merge(weights, products)
        unique = np.unique
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        full_w, full_m = self.full_merge(weights, products, monkeypatch)
        assert calls == [1] and full_m is not products
        assert full_w.tobytes() == fast_w.tobytes()
        assert full_m.tobytes() == fast_m.tobytes()
        want_w, want_m = reference_intensity_measure(model, 4)
        assert full_w.tobytes() == want_w.tobytes()
        assert full_m.tobytes() == want_m.tobytes()


class TestLeftProducts:
    """_left_products against np.einsum("apq,mqr->ampr"): the same bytes
    and dtype, C-contiguous, since _merge reads each row as uint64 words."""

    @pytest.mark.parametrize("field_kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bytes_equal_einsum(self, p, field_kind):
        rng = np.random.default_rng(100 * p + len(field_kind))
        for _ in range(25):
            base = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 8)), p, p))
            mats = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 300)), p, p))
            if field_kind == "complex":
                base = base + 1j * rng.uniform(-1.0, 1.0, base.shape)
                mats = mats + 1j * rng.uniform(-1.0, 1.0, mats.shape)
            for x in (base, mats):  # signed zeros, in real and imaginary parts
                parts = x.view(np.float64)
                parts[rng.random(parts.shape) < 0.3] = 0.0
                parts[rng.random(parts.shape) < 0.2] = -0.0
            got = spectral._left_products(base, mats)
            want = np.einsum("apq,mqr->ampr", base, mats).reshape(-1, p, p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def _complex_no_merge_model():
    """Random complex p = 2 model, three distinct children: no products of
    any depth merge."""
    rng = np.random.default_rng(5)
    a, b, c = rng.uniform(0.05, 0.6, (3, 2, 2)) * np.exp(
        2j * np.pi * rng.random((3, 2, 2)))
    return make_model(2, [(0.5, [a, b]), (0.5, [c])], field_kind="complex")


# (model, depth, SUM_BLOCK); the first two merge no products, the others
# merge below depth n or at it
DEEPEST_CASES = {
    # depth 5 holds 7^5 products, so each child's slices cross SUM_BLOCK
    "no-merge-depth-6": (lambda: make_model(3, NO_MERGE_MODEL), 6,
                         spectral.SUM_BLOCK),
    "complex-depth-4": (_complex_no_merge_model, 4, 7),
    # p = 1 products commute: depth 1 merges nothing, depth 2 merges
    "first-merge-at-deepest": (
        lambda: make_model(1, [(0.5, [[[0.3]], [[0.7]]]), (0.5, [[[0.45]]])]),
        2, spectral.SUM_BLOCK),
    "merged-below-walk": (_walk_model, 6, spectral.SUM_BLOCK),
    "merged-below-scalar": (_scalar_model, 5, 4),
    "complex-repeated-child": (lambda: _repeated_child_model("complex"), 3, 7),
}


class TestDeepestPowerSums:
    """_deepest_power_sums against the reference power sum over the
    unmerged depth-n level, one product at a time: the same bits, whether
    or not products merge, with depth n formed one child per block."""

    @pytest.mark.parametrize("case", sorted(DEEPEST_CASES))
    def test_bitwise_against_reference(self, case, monkeypatch):
        make, n, block = DEEPEST_CASES[case]
        model = make()
        branch = sum(a.n_children for a in model.atoms)
        want_w, want_m = reference_deepest_level(model, n)
        monkeypatch.setattr(spectral, "SUM_BLOCK", block)
        # the base sizes of the _left_products calls that form depth n:
        # one child per call, one call per child and SUM_BLOCK slice
        calls = []
        build, left = spectral.intensity_measure, spectral._left_products

        def building(model, n):
            nu = build(model, n)
            calls.clear()
            return nu

        def recording(base, mats):
            calls.append(len(base))
            return left(base, mats)

        monkeypatch.setattr(spectral, "intensity_measure", building)
        monkeypatch.setattr(spectral, "_left_products", recording)
        ts = (1, 1.5, 2, 3)
        below, sums, nonzero = spectral._deepest_power_sums(model, ts, n)
        assert calls == [1] * (branch * math.ceil(len(below.weights) / block))
        for t, got in zip(ts, sums):
            want = reference_power_sum(want_w, want_m, t)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert n_step_moment_matrix(model, t, n).tobytes() == want.tobytes()
        assert nonzero == want_m.any()
        below_w, below_m = reference_intensity_measure(model, n - 1)
        assert below.depth == n - 1
        if n > 2:  # depth 1 is stored unmerged
            assert below.weights.tobytes() == below_w.tobytes()
            assert below.matrices.tobytes() == below_m.tobytes()

    @pytest.mark.parametrize("case", sorted(DEEPEST_CASES))
    def test_cap_applies_at_depth_n(self, case, monkeypatch):
        # the refusal of the stored build, at the same depth with the same text
        make, n, _ = DEEPEST_CASES[case]
        model = make()
        formed = (sum(a.n_children for a in model.atoms)
                  * len(reference_intensity_measure(model, n - 1)[0]))
        monkeypatch.setattr(spectral, "SUPPORT_CAP", formed - 1)
        with pytest.raises(MatcascadeError) as stored:
            intensity_measure(model, n)
        with pytest.raises(MatcascadeError) as streamed:
            spectral._deepest_power_sums(model, [2], n)
        assert str(streamed.value) == str(stored.value) == (
            f"depth {n} would form {formed} products, exceeding cap "
            f"{formed - 1}; use a smaller depth")


class TestDeepestLevelMemory:
    """The deepest level is never stored: the peak stays below half of that
    level's bytes on a model whose products do not merge, and below twice
    them on one whose products merge, where the stored levels below are
    no longer small beside it."""

    @pytest.mark.parametrize("call", [
        lambda model: check_alpha_moments(model, [1.5, 2, 3], 6),
        lambda model: n_step_moment_matrix(model, 2, 6)],
        ids=["check_alpha_moments", "n_step_moment_matrix"])
    def test_peak_below_half_the_deepest_level(self, call):
        model = make_model(3, NO_MERGE_MODEL)
        level = 7 ** 6 * (1 + 9) * np.float64().itemsize  # weights, matrices
        tracemalloc.start()
        try:
            call(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < level / 2

    def test_merging_model_peak_below_twice_the_deepest_level(self):
        model = _repeated_child_model("real")
        formed = 5 * len(intensity_measure(model, 9).weights)
        assert formed == 98_415
        level = formed * (1 + 4) * np.float64().itemsize  # weights, matrices
        tracemalloc.start()
        try:
            check_alpha_moments(model, [1.5, 2, 3], 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * level


class TestPowerSumMemory:
    def test_peak_below_one_and_a_quarter_stacks(self):
        # the powers are the one (N, p, p) array the sum allocates
        nu = intensity_measure(make_model(3, NO_MERGE_MODEL), 6)
        assert nu.matrices.shape == (7 ** 6, 3, 3)
        tracemalloc.start()
        try:
            spectral._power_sum(nu.weights, nu.matrices, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nu.matrices.nbytes


def _one_pass_power_sum(weights, mats, t):
    """The power sum as one pass over the whole stack: the (N, p^2) powers
    formed at once, scaled in place and summed over axis 0 from zero, the
    scalars of p = 1 accumulated in order."""
    n, p = mats.shape[:2]
    a = np.abs(mats) if np.iscomplexobj(mats) else np.asarray(mats, dtype=float)
    with np.errstate(over="ignore"):
        terms = np.power(a, t).reshape(n, p * p)
    terms *= weights[:, None]
    if p == 1:
        return np.add.accumulate(np.append(0.0, terms))[-1:].reshape(1, 1)
    return np.add.reduce(terms, axis=0, initial=0.0).reshape(p, p)


def _signed_zero_stack(rng, n, p, field_kind):
    """n random p x p matrices, real nonnegative or complex, about a third
    of whose entries (real and imaginary parts apart) are 0.0 or -0.0."""
    mats = rng.uniform(0.0, 1.0, (n, p, p))
    if field_kind == "complex":
        mats = mats + 1j * rng.uniform(-1.0, 1.0, mats.shape)
    parts = mats.view(np.float64)
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(parts.shape) < 0.15] = -0.0
    return mats


class TestBlockedPowerSum:
    """_power_sum streams the stack through SUM_BLOCK rows at a time; at
    every block size, including one row and blocks that end exactly at,
    before or past the stack's end, it gives the bits of the one-pass sum
    and of the one-term-at-a-time reference."""

    N = 23

    @pytest.mark.parametrize("block", [1, 2, 3, 5, N - 1, N, N + 1])
    @pytest.mark.parametrize("field_kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bytes_equal_one_pass(self, p, field_kind, block, monkeypatch):
        monkeypatch.setattr(spectral, "SUM_BLOCK", block)
        rng = np.random.default_rng(10 * p + len(field_kind) + block)
        mats = _signed_zero_stack(rng, self.N, p, field_kind)
        weights = rng.uniform(0.0, 1.0, self.N)
        for t in (1, 1.5, 2, 2.5, 3):
            got = spectral._power_sum(weights, mats, t)
            for want in (_one_pass_power_sum(weights, mats, t),
                         reference_power_sum(weights, mats, t)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3, 5, N - 1, N, N + 1])
    @pytest.mark.parametrize("field_kind", ["real", "complex"])
    def test_zero_entry_refused_at_nonpositive_t(self, field_kind, block,
                                                 monkeypatch):
        monkeypatch.setattr(spectral, "SUM_BLOCK", block)
        rng = np.random.default_rng(block)
        mats = _signed_zero_stack(rng, self.N, 2, field_kind)
        mats.view(np.float64)[:] = np.abs(mats.view(np.float64)) + 0.5
        mats[-1, 1, 0] = 0.0  # in the last block, whatever its size
        for t in (0, -1.5):
            with pytest.raises(MatcascadeError, match="zero entry"):
                spectral._power_sum(np.ones(self.N), mats, t)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, N - 1, N, N + 1])
    @pytest.mark.parametrize("field_kind", ["real", "complex"])
    def test_overflow_is_inf_without_warning(self, field_kind, block,
                                             monkeypatch):
        monkeypatch.setattr(spectral, "SUM_BLOCK", block)
        mats = np.full((self.N, 2, 2), 0.5, dtype=complex if field_kind ==
                       "complex" else float)
        mats[self.N // 2, 0, 1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral._power_sum(np.full(self.N, 0.25), mats, 2)
        assert got[0, 1] == np.inf
        assert np.isfinite(got[[0, 1, 1], [0, 0, 1]]).all()


class TestBlockedPowerSumMemory:
    """No power sum holds a second array of its stack's size."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_check_alpha_moments_peak_below_1_4_levels(self):
        # the build of the deepest level sets the peak; the one-pass power
        # sums added a copy of it, 1.78 times the levels' bytes
        model = make_model(3, NO_MERGE_MODEL)
        nu = intensity_measure(model, 6)
        levels = 0
        while nu is not None:
            levels += nu.weights.nbytes + nu.matrices.nbytes
            nu = nu.below
        peak = self.peak(lambda: check_alpha_moments(model, [1.5, 2, 3], 6))
        assert peak <= 1.4 * levels

    def test_power_sum_peak_set_by_the_block(self):
        # depths 5 and 6 hold 7^5 and 7^6 matrices, both past one block
        nu = intensity_measure(make_model(3, NO_MERGE_MODEL), 6)
        buffer = (spectral.SUM_BLOCK + 1) * 9 * np.float64().itemsize
        for level in (nu, nu.below):
            assert len(level.weights) > spectral.SUM_BLOCK
            peak = self.peak(lambda: spectral._power_sum(level.weights,
                                                         level.matrices, 2.5))
            assert peak <= 1.5 * buffer

    def test_complex_entry_power_peak_one_float_array(self):
        # the moduli are raised in place, in the array they are written to
        rng = np.random.default_rng(7)
        mats = rng.random((100_000, 3, 3)) * np.exp(
            2j * np.pi * rng.random((100_000, 3, 3)))
        floats = mats.real.nbytes
        peak = self.peak(lambda: spectral._entry_power(mats, 2.5,
                                                      np.empty(mats.shape)))
        assert peak <= 1.25 * floats


class TestNStepMomentMatrix:
    def test_model_a_t2_n2(self, model_a):
        out = n_step_moment_matrix(model_a, 2, 2)
        np.testing.assert_allclose(out, [[0.25]], atol=1e-15)
        assert perron(out).rho == pytest.approx(0.25, abs=1e-14)

    def test_n1_identical_to_moment_matrix(self, model_c):
        np.testing.assert_array_equal(n_step_moment_matrix(model_c, 2, 1),
                                      moment_matrix(model_c, 2))

    def test_model_c_t2_n2_frozen(self, model_c):
        out = n_step_moment_matrix(model_c, 2, 2)
        # oracle: entrywise squares of the four depth-2 products, summed
        np.testing.assert_allclose(out, [[0.0654, 0.0654], [0.0686, 0.0686]],
                                   atol=1e-15)
        assert perron(out).rho == pytest.approx(0.134, abs=1e-13)

    def test_against_brute_force(self, model_c):
        for t in (1.5, 2, 3):
            for n in (2, 3):
                got = n_step_moment_matrix(model_c, t, n)
                want = brute_force_moment_matrix(model_c, t, n)
                np.testing.assert_allclose(got, want, atol=1e-14)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_brute_force_random_models(self, seed):
        model = random_primitive_model(np.random.default_rng(seed))
        for t in (1.5, 2):
            got = n_step_moment_matrix(model, t, 2)
            want = brute_force_moment_matrix(model, t, 2)
            np.testing.assert_allclose(got, want, atol=1e-13, rtol=1e-13)


class TestSpectralInequalities:
    @given(seed=st.integers(0, 300), t=st.sampled_from([1.5, 2.0, 3.0]),
           n=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_sandwich_bounds(self, seed, t, n):
        model = random_primitive_model(np.random.default_rng(seed))
        p = model.p
        rho_t = perron(moment_matrix(model, t)).rho
        rho_n = perron(n_step_moment_matrix(model, t, n)).rho
        assert rho_t**n <= rho_n * (1 + 1e-12) + 1e-15
        assert rho_n <= p ** ((t - 1) * (n - 1)) * rho_t**n * (1 + 1e-12)

    @given(seed=st.integers(0, 300),
           s=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           u=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           theta=st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=40, deadline=None)
    def test_log_convexity(self, seed, s, u, theta):
        model = random_primitive_model(np.random.default_rng(seed))
        rho = lambda t: perron(moment_matrix(model, t)).rho  # noqa: E731
        mid = rho(theta * s + (1 - theta) * u)
        assert mid <= rho(s) ** theta * rho(u) ** (1 - theta) + 1e-10
