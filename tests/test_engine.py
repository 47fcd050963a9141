import numpy as np
import pytest

from matcascade.engine import (SimulationError, batch_from_binary,
                               batch_to_binary, batch_to_csv, replicate_rng,
                               simulate_batch, simulate_complex, simulate_Yn,
                               simulate_tilted, _sampler_draw, _simulate)
from matcascade.model import model_from_dict, normalize_model
from matcascade.spectral import moment_matrix, perron
from conftest import make_model, random_primitive_model


def complex_model(entries):
    """p=1 complex model, one atom, children given as complex scalars."""
    return make_model(1, [(1.0, [[[e]] for e in entries])],
                      field_kind="complex")


class TestDegenerateCascades:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_model_a_exact(self, model_a, n, seed):
        y, traj, capped = simulate_Yn(model_a, n, seed)
        assert not capped
        assert y[0] == 1.0  # bitwise: 2^n nodes, products are powers of two
        for t in traj:
            assert t[0] == 1.0

    @pytest.mark.parametrize("seed", [0, 3, 999])
    def test_model_b_exact(self, model_b, seed):
        y, traj, capped = simulate_Yn(model_b, 5, seed)
        assert not capped
        np.testing.assert_array_equal(y, [1.0, 1.0])


class TestSeedMatchedOracle:
    def oracle(self, model, n, seed, identity_root=False):
        """Direct per-node expansion consuming the same Philox stream;
        identity_root replaces the root's child matrices by I."""
        v = perron(model.mean_matrix()).v
        cum = np.cumsum([a.prob for a in model.atoms])
        cum[-1] = 1.0
        rng = replicate_rng(seed, 0)
        prods = [np.eye(model.p)]
        for gen in range(n):
            draws = rng.random(len(prods))
            nxt = []
            for x, d in zip(prods, draws):
                atom = model.atoms[int(np.searchsorted(cum, d, side="left"))]
                for mat in atom.matrices:
                    if identity_root and gen == 0:
                        mat = np.eye(model.p)
                    nxt.append(x @ mat)
            prods = nxt
        return sum((x @ v for x in prods), start=np.zeros(model.p))

    @pytest.mark.parametrize("seed", [42, 7, 1001])
    def test_random_model(self, model_rand, seed):
        y, _, capped = simulate_Yn(model_rand, 3, seed)
        assert not capped
        np.testing.assert_allclose(y, self.oracle(model_rand, 3, seed),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", [42, 7, 1001])
    def test_identity_root(self, model_rand, seed):
        values, _, _, capped, _ = _simulate(model_rand, 3, 1, seed, 10**7, None,
                                            False, identity_root=True)
        assert not capped[0]
        np.testing.assert_allclose(
            values[0], self.oracle(model_rand, 3, seed, identity_root=True),
            rtol=1e-12)

    def test_scalar_model(self, model_d1):
        for seed in (1, 2, 3):
            y, _, _ = simulate_Yn(model_d1, 4, seed)
            np.testing.assert_allclose(y, self.oracle(model_d1, 4, seed),
                                       rtol=1e-12)

    def sampler_oracle(self, model, n, seed, r):
        """Per-node expansion of replicate r drawing each node's matrices
        from the same sampler stream."""
        v = perron(model.mean_matrix()).v
        rng = replicate_rng(seed, r)
        prods = [np.eye(model.p)]
        for _ in range(n):
            draws = _sampler_draw(model, rng, len(prods))
            prods = [x @ mat for x, mats in zip(prods, draws) for mat in mats]
        return sum((x @ v for x in prods), start=np.zeros(model.p))

    @pytest.mark.parametrize("seed", [5, 77])
    def test_uniform_sampler_model(self, seed):
        model = model_from_dict({"p": 2, "mode": "sampler", "sampler": {
            "family": "uniform",
            "params": {"n_children": 2, "low": 0.1, "high": 0.4}}})
        batch = simulate_batch(model, 4, 3, seed)
        assert not batch.capped.any()
        for r in range(3):
            np.testing.assert_allclose(batch.values[r],
                                       self.sampler_oracle(model, 4, seed, r),
                                       rtol=1e-12)


SAMPLERS = {
    "uniform": {"family": "uniform",
                "params": {"n_children": 2, "low": 0.1, "high": 0.4}},
    "lognormal": {"family": "lognormal",
                  "params": {"n_children": 3, "mu": -1.5, "sigma": 0.4}},
}


class TestSamplerMeanMatrix:
    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_closed_form_matches_draws(self, family):
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS[family]})
        sums = _sampler_draw(model, np.random.default_rng(3), 10**5).sum(axis=1)
        se = sums.std(axis=0) / np.sqrt(len(sums))
        assert np.all(np.abs(sums.mean(axis=0) - model.mean_matrix()) <= 5 * se)

    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_v_does_not_depend_on_seed(self, family):
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS[family]})
        # Y_0 = V
        np.testing.assert_array_equal(simulate_batch(model, 0, 1, 1).values,
                                      simulate_batch(model, 0, 1, 2).values)


class TestDeterminism:
    def test_rerun_bitwise(self, model_rand):
        b1 = simulate_batch(model_rand, 4, 50, 11)
        b2 = simulate_batch(model_rand, 4, 50, 11)
        np.testing.assert_array_equal(b1.values, b2.values)

    def test_chunk_independence(self, model_rand):
        args = (model_rand, 4, 10, 7, 10**7, None, False)
        v_small = _simulate(*args, chunk=3)[0]
        v_big = _simulate(*args, chunk=4096)[0]
        np.testing.assert_array_equal(v_small, v_big)

    def test_replicate_prefix_property(self, model_rand):
        b_small = simulate_batch(model_rand, 4, 8, 99)
        b_big = simulate_batch(model_rand, 4, 20, 99)
        np.testing.assert_array_equal(b_small.values, b_big.values[:8])

    def test_seed_sensitivity(self, model_rand):
        b1 = simulate_batch(model_rand, 4, 20, 1)
        b2 = simulate_batch(model_rand, 4, 20, 2)
        assert not np.array_equal(b1.values, b2.values)


class TestMartingaleMean:
    def test_model_c_batch_mean(self, model_c):
        batch = simulate_batch(model_c, 8, 10**4, 1)
        mean = batch.values.mean(axis=0)
        se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        # the cascade is deterministic, so allow machine rounding at SE = 0
        assert np.all(np.abs(mean - 1.0) <= 3 * se + 1e-13)

    def test_random_model_batch_mean(self, model_rand):
        v = perron(model_rand.mean_matrix()).v
        batch = simulate_batch(model_rand, 6, 20000, 5)
        mean = batch.values.mean(axis=0)
        se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        assert np.all(np.abs(mean - v) <= 4 * se + 1e-13)


class TestExtinctionAndCap:
    def test_extinction_flags(self):
        model = make_model(1, [(0.5, []), (0.5, [[[0.5]], [[0.5]]])])
        batch = simulate_batch(model, 6, 500, 3)
        assert 0 < batch.extinct_count < 500
        np.testing.assert_array_equal(batch.values[batch.extinct],
                                      np.zeros((batch.extinct_count, 1)))

    def test_cap_breach(self, model_a):
        batch = simulate_batch(model_a, 8, 4, 1, cap=10)
        assert batch.capped_count == 4
        assert np.isnan(batch.values).all()
        assert batch.ok_values().shape == (0, 1)

    def test_partial_cap_breach(self):
        # random child counts (including none), so capped replicates leave
        # gaps in the node offsets of the replicates that keep growing
        mats = [[[0.82, 0.83], [0.56, 0.36]], [[0.15, 0.45], [0.47, 0.14]],
                [[0.14, 1.0], [0.69, 0.31]], [[0.49, 0.98], [0.91, 0.86]],
                [[0.45, 0.54], [0.71, 0.15]], [[0.6, 0.34], [0.89, 0.16]]]
        model = normalize_model(make_model(
            2, [(0.2, []), (0.3, mats[:1]), (0.3, mats[1:3]),
                (0.2, mats[3:])]))
        full = simulate_batch(model, 6, 200, 3)
        args = (model, 6, 200, 3, 20, None, False)
        values, _, extinct, capped, _ = _simulate(*args, chunk=4096)
        assert 0 < capped.sum() < 200
        assert not full.capped.any()
        np.testing.assert_array_equal(values[~capped], full.values[~capped])
        assert np.isnan(values[capped]).all()
        np.testing.assert_array_equal(extinct, full.extinct)
        small = _simulate(*args, chunk=3)
        np.testing.assert_array_equal(small[0], values)
        np.testing.assert_array_equal(small[2], extinct)
        np.testing.assert_array_equal(small[3], capped)

    def test_cap_trajectory_marker(self, model_a):
        _, traj, capped = simulate_Yn(model_a, 8, 1, cap=10)
        assert capped

    def test_bad_arguments(self, model_a):
        with pytest.raises(SimulationError):
            simulate_batch(model_a, -1, 10, 0)
        with pytest.raises(SimulationError):
            simulate_batch(model_a, 2, 0, 0)


class TestTilted:
    def test_model_a_t2_exact(self, model_a):
        batch = simulate_tilted(model_a, 2, 4, 10, 1)
        # 2^4 nodes x (1/4)^4 / (1/2)^4 = 1 exactly
        np.testing.assert_array_equal(batch.values, np.ones((10, 1)))

    def test_t1_matches_untilted(self, model_c):
        tilted = simulate_tilted(model_c, 1, 5, 50, 9)
        plain = simulate_batch(model_c, 5, 50, 9)
        np.testing.assert_array_equal(tilted.values, plain.values)

    def test_model_c_t2_mean(self, model_c):
        v2 = perron(moment_matrix(model_c, 2)).v
        batch = simulate_tilted(model_c, 2, 6, 10**4, 1)
        mean = batch.values.mean(axis=0)
        se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        assert np.all(np.abs(mean - v2) <= 3 * se + 1e-12)
        assert batch.tilt == 2
        np.testing.assert_allclose(batch.raw_values,
                                   batch.values * perron(moment_matrix(model_c, 2)).rho**6)

    def test_random_model_tilted_mean(self, model_rand):
        v15 = perron(moment_matrix(model_rand, 1.5)).v
        batch = simulate_tilted(model_rand, 1.5, 5, 20000, 2)
        mean = batch.values.mean(axis=0)
        se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        assert np.all(np.abs(mean - v15) <= 4 * se + 1e-12)


class TestComplex:
    def test_deterministic_phase_exact(self):
        # A_k = 0.5i exactly; each depth-3 product is (0.5i)^3 = -0.125i
        model = complex_model([0.5j, 0.5j])
        y, _, capped = simulate_complex(model, 3, 0)
        assert not capped
        assert y[0] == -1j

    def test_phase_pi_over_3(self):
        a = 0.5 * np.exp(1j * np.pi / 3)
        model = complex_model([a, a])
        y, _, _ = simulate_complex(model, 3, 0)
        np.testing.assert_allclose(y[0], np.exp(1j * np.pi), atol=1e-12)

    def test_zero_phase_reduces_to_real(self):
        model = complex_model([0.5 + 0j, 0.5 + 0j])
        y, _, _ = simulate_complex(model, 6, 4)
        assert y[0] == 1.0 + 0j

    def test_hat_companion(self):
        model = make_model(
            1, [(0.25, [[[0.5]], [[0.5]]]), (0.25, [[[0.5]], [[-0.5]]]),
                (0.25, [[[-0.5]], [[0.5]]]), (0.25, [[[-0.5]], [[-0.5]]])],
            field_kind="complex")
        y, traj, capped, y_hat, traj_hat = simulate_complex(
            model, 5, 2, with_hat=True)
        assert y_hat[0] == 1.0  # modulus companion is the binary cascade
        assert abs(y[0]) <= 1.0 + 1e-12

    def test_real_model_rejected(self, model_a):
        with pytest.raises(SimulationError):
            simulate_complex(model_a, 2, 0)


class TestSerialization:
    def test_csv_format(self, model_c, tmp_path):
        batch = simulate_batch(model_c, 3, 5, 1)
        path = tmp_path / "b.csv"
        batch_to_csv(batch, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "replicate,extinct,capped,Y1,Y2"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == batch.values[0, 0]

    def test_csv_rerun_bitwise(self, model_rand, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        batch_to_csv(simulate_batch(model_rand, 4, 30, 5), str(p1))
        batch_to_csv(simulate_batch(model_rand, 4, 30, 5), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_binary_roundtrip(self, model_rand, tmp_path):
        batch = simulate_batch(model_rand, 4, 30, 5)
        path = tmp_path / "b.bin"
        batch_to_binary(batch, str(path))
        again = batch_from_binary(str(path))
        np.testing.assert_array_equal(batch.values, again.values)
        np.testing.assert_array_equal(batch.extinct, again.extinct)
        np.testing.assert_array_equal(batch.capped, again.capped)
        assert again.n == batch.n and again.replicates == batch.replicates

    def test_binary_roundtrip_complex(self, tmp_path):
        model = complex_model([0.5j, 0.5j])
        values, _, extinct, capped, _ = _simulate(model, 3, 7, 1, 10**7,
                                                  None, False)
        from matcascade.engine import SampleBatch
        batch = SampleBatch(model_id="x", n=3, replicates=7, values=values,
                            master_seed=1, field_kind="complex",
                            extinct=extinct, capped=capped)
        path = tmp_path / "c.bin"
        batch_to_binary(batch, str(path))
        again = batch_from_binary(str(path))
        assert again.field_kind == "complex"
        np.testing.assert_array_equal(batch.values, again.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SimulationError, match="magic"):
            batch_from_binary(str(path))

    @pytest.mark.parametrize("keep", [28, -8, -1])
    def test_truncated(self, model_c, tmp_path, keep):
        # header (28 bytes) + R flag bytes + 8 R p value bytes
        path = tmp_path / "b.bin"
        batch_to_binary(simulate_batch(model_c, 2, 3, 1), str(path))
        blob = path.read_bytes()
        assert len(blob) == 28 + 3 + 8 * 3 * 2
        path.write_bytes(blob[:keep])
        with pytest.raises(SimulationError, match=f"{len(blob[:keep])} bytes"):
            batch_from_binary(str(path))


class TestReplicateStreams:
    def test_streams_differ(self):
        a = replicate_rng(1, 0).random(4)
        b = replicate_rng(1, 1).random(4)
        assert not np.array_equal(a, b)

    def test_streams_reproducible(self):
        a = replicate_rng(123, 45).random(8)
        b = replicate_rng(123, 45).random(8)
        np.testing.assert_array_equal(a, b)
