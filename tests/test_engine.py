import bisect
import cProfile
import ctypes
import hashlib
import io
import math
import multiprocessing
import os
import pstats
import struct
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from matcascade import engine
from matcascade.engine import (SampleBatch, batch_from_binary, batch_to_binary,
                               replicate_rng, simulate_batch)
from matcascade.model import (MatcascadeError, model_from_dict, normalize_model,
                              tilt_model)
from matcascade.spectral import moment_matrix, perron
from conftest import make_model, random_primitive_model, reference_fold


@pytest.fixture
def one_process(monkeypatch):
    """Keep every simulate_batch call in this process, so that a test that
    shrinks CHUNK forks no pool per call (TestWorkers covers the pool)."""
    monkeypatch.setattr(engine, "usable_cores", lambda: 1)


def complex_model(entries):
    """p=1 complex model, one atom, children given as complex scalars."""
    return make_model(1, [(1.0, [[[e]] for e in entries])],
                      field_kind="complex")


class TestDegenerateCascades:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_model_a_exact(self, model_a, n, seed):
        batch = simulate_batch(model_a, n, 1, seed)
        assert not batch.capped[0]
        # bitwise: 2^n nodes, products are powers of two
        assert batch.values[0, 0] == 1.0
        for m in range(n + 1):
            assert simulate_batch(model_a, m, 1, seed).values[0, 0] == 1.0

    @pytest.mark.parametrize("seed", [0, 3, 999])
    def test_model_b_exact(self, model_b, seed):
        batch = simulate_batch(model_b, 5, 1, seed)
        assert not batch.capped[0]
        np.testing.assert_array_equal(batch.values[0], [1.0, 1.0])


class TestSeedMatchedOracle:
    def oracle(self, model, n, seed, identity_root=False, r=0):
        """Direct per-node expansion of replicate r consuming the same
        Philox stream; identity_root replaces the root's child matrices
        by I."""
        v = perron(model.mean_matrix()).v
        cum = np.cumsum([a.prob for a in model.atoms])
        cum[-1] = 1.0
        rng = replicate_rng(seed, r)
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
        batch = simulate_batch(model_rand, 3, 1, seed)
        assert not batch.capped[0]
        np.testing.assert_allclose(batch.values[0], self.oracle(model_rand, 3, seed),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_tilted_model(self, model_rand, seed):
        tilted = tilt_model(model_rand, 1.5)
        batch = simulate_batch(tilted, 3, 1, seed)
        np.testing.assert_allclose(batch.values[0], self.oracle(tilted, 3, seed),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", [42, 7, 1001])
    def test_identity_root(self, model_rand, seed):
        batch = simulate_batch(model_rand, 3, 1, seed, identity_root=True)
        assert not batch.capped[0]
        np.testing.assert_allclose(
            batch.values[0], self.oracle(model_rand, 3, seed, identity_root=True),
            rtol=1e-12)

    @pytest.mark.usefixtures("one_process")
    def test_later_chunks(self, model_rand, monkeypatch):
        # chunks of 4: replicates 5 and 6 are in the second chunk, 9 in the
        # third; a window of 5 uniforms is outgrown at depth 2, so most
        # draws resume the stream past it
        monkeypatch.setattr(engine, "CHUNK", 4)
        monkeypatch.setattr(engine, "WINDOW", 5)
        batch = simulate_batch(model_rand, 4, 10, 42)
        assert not batch.capped.any()
        for r in (5, 6, 9):
            np.testing.assert_allclose(batch.values[r],
                                       self.oracle(model_rand, 4, 42, r=r),
                                       rtol=1e-12, atol=1e-14)

    def test_scalar_model(self, model_d1):
        for seed in (1, 2, 3):
            y = simulate_batch(model_d1, 4, 1, seed).values[0]
            np.testing.assert_allclose(y, self.oracle(model_d1, 4, seed),
                                       rtol=1e-12)

    def test_many_atoms_some_empty(self):
        # 40 atoms, 8 of them of probability zero (repeated cumulative
        # bounds): every node's atom is the one searchsorted picks
        rng = np.random.default_rng(40)
        probs = rng.random(40)
        probs[rng.choice(40, 8, replace=False)] = 0.0
        model = make_model(2, [(prob, rng.uniform(0.05, 0.5, (int(rng.integers(1, 4)), 2, 2)))
                               for prob in probs / probs.sum()])
        batch = simulate_batch(model, 3, 30, 9)
        for r in range(30):
            np.testing.assert_allclose(batch.values[r], self.oracle(model, 3, 9, r=r),
                                       rtol=1e-12, atol=1e-14)

    @staticmethod
    def node_matrices(model, rng):
        """One node's (N, p, p) child matrices, drawn from the next outputs
        of rng: uniform entries by numpy's Generator.uniform, lognormal ones
        by Box-Muller on N p^2 uniforms (one more if that is odd), a scalar
        at a time."""
        params = model.sampler["params"]
        shape = (params["n_children"], model.p, model.p)
        if model.sampler["family"] == "uniform":
            return rng.uniform(params["low"], params["high"], shape)
        size = math.prod(shape)
        u = rng.random(size + size % 2)
        z = []
        for u1, u2 in zip(u[0::2], u[1::2]):
            radius = math.sqrt(-2 * math.log(1 - u1))
            z += [radius * math.cos(2 * math.pi * u2),
                  radius * math.sin(2 * math.pi * u2)]
        return np.reshape([math.exp(params["mu"] + params["sigma"] * x)
                           for x in z[:size]], shape)

    def sampler_oracle(self, model, n, seed, r, identity_root=False):
        """Per-node expansion of replicate r, each node drawing its matrices
        from the next uniforms of the replicate's stream; identity_root
        replaces the root's drawn matrices by I."""
        v = perron(model.mean_matrix()).v
        rng = replicate_rng(seed, r)
        prods = [np.eye(model.p)]
        for gen in range(n):
            nxt = []
            for x in prods:
                mats = self.node_matrices(model, rng)
                if identity_root and gen == 0:
                    mats = np.broadcast_to(np.eye(model.p), mats.shape)
                nxt += [x @ mat for mat in mats]
            prods = nxt
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

    @pytest.mark.parametrize("seed", [5, 77])
    def test_lognormal_sampler_model(self, seed):
        # p = 3 and three children: 27 entries, so 28 uniforms per node, and
        # the 13 nodes above depth 3 outrun the window of 256
        model = model_from_dict({"p": 3, "mode": "sampler",
                                 "sampler": SAMPLERS["lognormal"]})
        assert engine._uniforms_per_node(model) == 28
        batch = simulate_batch(model, 3, 3, seed)
        assert not batch.capped.any()
        for r in range(3):
            np.testing.assert_allclose(batch.values[r],
                                       self.sampler_oracle(model, 3, seed, r),
                                       rtol=1e-12)

    @pytest.mark.parametrize("seed", [5, 77])
    def test_sampler_identity_root(self, seed):
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS["lognormal"]})
        batch = simulate_batch(model, 3, 3, seed, identity_root=True)
        plain = simulate_batch(model, 3, 3, seed)
        assert not batch.capped.any()
        assert not np.allclose(batch.values, plain.values)
        for r in range(3):
            np.testing.assert_allclose(
                batch.values[r],
                self.sampler_oracle(model, 3, seed, r, identity_root=True),
                rtol=1e-12)


class TestAtomDraw:
    """A node's atom is the number of cumulative bounds below its uniform,
    the index np.searchsorted(cum, u, side="left") gives, element for
    element."""

    @staticmethod
    def probs_with_empty_atoms(count, empty, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(count)
        probs[rng.choice(count, empty, replace=False)] = 0.0
        return probs / probs.sum()

    PROBS = {
        "three": [0.3, 0.3, 0.4],
        "one": [1.0],
        # zero-probability atoms repeat a bound, first, inside and last
        "empty-atoms": [0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0],
        "forty": probs_with_empty_atoms(40, 8, 3),
    }

    @pytest.mark.parametrize("case", sorted(PROBS))
    def test_equals_searchsorted(self, case):
        cum = np.cumsum(self.PROBS[case])
        cum[-1] = 1.0
        bounds = cum[:-1]
        # every bound and the doubles either side of it, 0, the largest
        # double below 1, and uniforms drawn at random
        u = np.concatenate([bounds, np.nextafter(bounds, 0), np.nextafter(bounds, 1),
                            [0.0, np.nextafter(1.0, 0)],
                            np.random.default_rng(1).random(10**4)])
        u = u[u < 1]
        assert np.isin(bounds[bounds < 1], u).all()
        np.testing.assert_array_equal(engine._draw_atoms(bounds, u),
                                      np.searchsorted(cum, u, side="left"))


class TestLastGeneration:
    """The last generation counts each replicate's children without forming
    the depth-n population or a replicate index for it, and the fold is
    still told that population's size."""

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("cap", [10**7, 100])
    def test_no_depth_n_array(self, cap, monkeypatch):
        # two or three children per node, so every depth outnumbers the one
        # above it; a cap of 100 halts some replicates in the last generation
        model, n, reps = TestDrawWindow.BRANCHING, 5, 50
        lengths = []
        repeat = np.repeat

        def recording_repeat(*args, **kwargs):
            out = repeat(*args, **kwargs)
            lengths.append(out.size)
            return out

        trees = []
        fold = engine._fold

        def recording_fold(levels, sizes, depth, v):
            trees.append((levels, sizes))
            return fold(levels, sizes, depth, v)

        monkeypatch.setattr(np, "repeat", recording_repeat)
        monkeypatch.setattr(engine, "_fold", recording_fold)
        batch = simulate_batch(model, n, reps, 2, cap)
        monkeypatch.undo()
        if cap < 10**7:
            before = simulate_batch(model, n - 1, reps, 2, cap).capped
            assert (batch.capped & ~before).any()
        (levels, sizes), = trees
        # one state per depth n - 1 node, 0 or 1 + its atom, and N children
        # for a node of an N-matrix atom
        states, stacks = levels[n - 1]
        assert states.dtype == np.uint8 and len(states) == sizes[n - 1]
        population = sum(len(stacks[s - 1]) for s in states.tolist() if s)
        assert len(sizes) == n + 1 and sizes[n] == population
        assert lengths and max(lengths) < population


def per_node_replicate(model, n, seed, r, cap=engine.DEFAULT_CAP, identity_root=False):
    """(value, extinct, capped) of replicate r, grown node by node from its
    Philox stream and folded node by node: coordinate i of A y is
    a_i0 y_0 + a_i1 y_1 + ..., and a node's children are added in order,
    which is the order of each sum the engine forms.  Each node's values
    are a (p,) array, so a product rounds as numpy's multiply rounds it
    (with an FMA for complex numbers on some CPUs).  The atom of a uniform
    is bisect_left over the cumulative probabilities; a childless node is
    zero and every depth-n node is V.  A replicate whose population at
    some depth exceeds cap is capped, with value None."""
    dtype = complex if model.is_complex else float
    cum = np.cumsum([a.prob for a in model.atoms]).tolist()
    cum[-1] = 1.0
    eye = np.eye(model.p, dtype=dtype)
    rng = replicate_rng(seed, r)
    tree = []  # per depth: each node's child matrices
    nodes = 1
    for gen in range(n):
        kids = [model.atoms[bisect.bisect_left(cum, u)].matrices.astype(dtype)
                for u in rng.random(nodes).tolist()]
        if identity_root and gen == 0:
            kids = [[eye] * len(k) for k in kids]
        nodes = sum(map(len, kids))
        if nodes > cap:
            return None, False, True
        tree.append(kids)

    def apply(a, y):
        out = a[:, 0] * y[0]
        for q in range(1, len(y)):
            out = out + a[:, q] * y[q]
        return out

    values = [perron(model.mean_matrix()).v.astype(dtype)] * nodes
    for kids in reversed(tree):
        children = iter(values)
        values = []
        for mats in kids:
            acc = np.zeros(model.p, dtype=dtype)
            for k, a in enumerate(mats):
                term = apply(a, next(children))
                acc = term if k == 0 else acc + term
            values.append(acc)
    return values[0], nodes == 0, False


class TestFoldTables:
    """A finite-atom law's depth-(n - 1) nodes take A + 1 values and its
    depth-(n - 2) groups may read a table over their children's states;
    every value keeps the bits of the per-node simulator."""

    @staticmethod
    def check(model, n, replicates, seed, cap=engine.DEFAULT_CAP, identity_root=False):
        batch = simulate_batch(model, n, replicates, seed, cap, identity_root)
        dtype = complex if model.is_complex else float
        for r in range(replicates):
            value, extinct, capped = per_node_replicate(model, n, seed, r, cap,
                                                        identity_root)
            assert (batch.extinct[r], batch.capped[r]) == (extinct, capped)
            if not capped:
                assert batch.values[r].tobytes() == np.array(value, dtype).tobytes()
        return batch

    @staticmethod
    @st.composite
    def cases(draw):
        p = draw(st.integers(1, 3), label="p")
        children = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any),
                        label="children")
        weights = draw(st.lists(st.integers(1, 4), min_size=len(children),
                                max_size=len(children)), label="weights")
        # complex when p >= 2: a p = 1 complex row is not bitwise
        # reproducible per node (TestComplex's xfail)
        field = draw(st.sampled_from(["real", "complex"] if p > 1 else ["real"]),
                     label="field")
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="entries"))
        probs = (np.array(weights) / sum(weights)).tolist()
        probs[-1] = 1.0 - sum(probs[:-1])
        atoms = []
        for prob, count in zip(probs, children):
            mats = rng.uniform(0.05, 0.6, (count, p, p))
            if field == "complex":
                mats = mats * np.exp(1j * rng.uniform(-3, 3, mats.shape))
            atoms.append((prob, mats))
        model = make_model(p, atoms, field_kind=field)
        return (model, draw(st.integers(1, 5), label="n"),
                draw(st.integers(1, 24), label="replicates"),
                draw(st.integers(0, 2**64 - 1), label="seed"),
                draw(st.sampled_from([engine.DEFAULT_CAP, 6, 30]), label="cap"),
                draw(st.booleans(), label="identity_root"))

    @given(cases())
    @settings(deadline=None)
    def test_random_models_bitwise(self, case):
        self.check(*case)

    @staticmethod
    def recorded(model, n, replicates, seed, monkeypatch):
        """The check's batch, and the (levels, sizes) of its one chunk."""
        trees = []
        fold = engine._fold

        def recording(levels, sizes, depth, v):
            trees.append((levels, sizes))
            return fold(levels, sizes, depth, v)

        monkeypatch.setattr(engine, "_fold", recording)
        batch = TestFoldTables.check(model, n, replicates, seed)
        (levels, sizes), = trees
        return batch, levels

    @staticmethod
    def tabled(levels, n):
        """For each depth-(n - 2) group, whether it reads a table."""
        base = len(levels[n - 1][1]) + 1
        return [base ** len(mats) <= len(first) for _, first, mats in levels[n - 2]]

    @pytest.mark.usefixtures("one_process")
    def test_tables(self, monkeypatch):
        # A = 4 (one childless) and N <= 3: at most 125 combinations per
        # group, against hundreds of depth-3 nodes in each
        model = varying_offspring_model()
        _, levels = self.recorded(model, 5, 400, 3, monkeypatch)
        assert self.tabled(levels, 5) == [True, True, True]

    @pytest.mark.usefixtures("one_process")
    def test_per_node(self, monkeypatch):
        # six atoms with 4 children: 7^4 = 2401 combinations outnumber the
        # nodes of each depth-2 group of 10 replicates
        rng = np.random.default_rng(12)
        model = make_model(2, [(1 / 6, rng.uniform(0.05, 0.3, (4, 2, 2)))
                               for _ in range(6)])
        _, levels = self.recorded(model, 4, 10, 5, monkeypatch)
        assert len(levels[2]) == 6 and not any(self.tabled(levels, 4))

    @pytest.mark.usefixtures("one_process")
    def test_300_atoms(self, monkeypatch):
        # states up to 300 need two bytes; atom 0, of one child and
        # probability 1/2, has a depth-1 group of more than 301 nodes, so it
        # reads a table, and the other 299 atoms' groups fold per node
        rng = np.random.default_rng(300)
        counts = rng.integers(0, 3, 300)
        counts[0] = 1
        probs = [0.5] + [0.5 / 299] * 299
        model = make_model(2, [(prob, rng.uniform(0.05, 0.5, (count, 2, 2)))
                               for prob, count in zip(probs, counts)])
        batch, levels = self.recorded(model, 3, 1000, 8, monkeypatch)
        assert levels[2][0].dtype == np.uint16
        tabled = self.tabled(levels, 3)
        assert tabled[0] and not any(tabled[1:])
        assert 0 < batch.extinct.sum() < 1000

    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_root(self, n):
        # the tables fold the root's identity stacks at n = 1 and 2
        self.check(varying_offspring_model(), n, 300, 4, identity_root=True)


def varying_offspring_model():
    """p = 2 model with 0, 1, 2 or 3 children per node."""
    mats = [[[0.82, 0.83], [0.56, 0.36]], [[0.15, 0.45], [0.47, 0.14]],
            [[0.14, 1.0], [0.69, 0.31]], [[0.49, 0.98], [0.91, 0.86]],
            [[0.45, 0.54], [0.71, 0.15]], [[0.6, 0.34], [0.89, 0.16]]]
    return normalize_model(make_model(
        2, [(0.2, []), (0.3, mats[:1]), (0.3, mats[1:3]), (0.2, mats[3:])]))


class TestDrawWindow:
    """The window of uniforms drawn up front is a speed setting only."""

    # two or three children: a replicate has used 7 to 13 draws before
    # depth 3, and its 8 to 27 nodes there mostly straddle a small window
    BRANCHING = make_model(1, [(0.5, [[[0.3]], [[0.9]]]),
                               (0.5, [[[0.2]], [[0.5]], [[0.4]]])])

    CASES = {
        "straddle": lambda: (TestDrawWindow.BRANCHING, 5, 10, 3, 10**7, False),
        "capped": lambda: (varying_offspring_model(), 6, 40, 3, 20, False),
        "random-p3": lambda: (random_primitive_model(
            np.random.default_rng(11), p=3, min_atoms=3), 4, 12, 8, 10**7, False),
        "complex": lambda: (make_model(1, [(0.5, [[[0.5j]], [[0.25 + 0.25j]]]),
                                           (0.5, [[[0.1]], [[0.3j]], [[0.2]]])],
                                       field_kind="complex"), 5, 10, 6, 10**7, False),
        "identity-root": lambda: (varying_offspring_model(), 5, 20, 7, 10**7, True),
        # 28 uniforms per node, so nodes straddle every window edge
        "lognormal-sampler": lambda: (model_from_dict(
            {"p": 3, "mode": "sampler", "sampler": SAMPLERS["lognormal"]}),
            3, 6, 5, 10**7, False),
    }

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_window_size_changes_nothing(self, case, monkeypatch):
        # windows of 1, 2, 3 and 5 make spills resume the stream at every
        # offset within a counter block of 4 uniforms
        model, n, replicates, seed, cap, identity_root = self.CASES[case]()
        monkeypatch.setattr(engine, "CHUNK", 3)
        runs = []
        for window in (1, 2, 3, 5, engine.WINDOW):
            monkeypatch.setattr(engine, "WINDOW", window)
            runs.append([simulate_batch(model, m, replicates, seed, cap=cap,
                                        identity_root=identity_root)
                         for m in range(n + 1)])
        if case == "capped":
            assert 0 < runs[0][-1].capped.sum() < replicates
        for traj in runs[1:]:
            for batch, batch0 in zip(traj, runs[0]):
                np.testing.assert_array_equal(batch.values, batch0.values)
                np.testing.assert_array_equal(batch.extinct, batch0.extinct)
                np.testing.assert_array_equal(batch.capped, batch0.capped)

    # sha256 of simulate_batch(uniform sampler, 5, 300, 11).values: the bits
    # numpy's Generator.uniform draws node by node from each replicate's
    # stream, whatever the window and chunk sizes
    UNIFORM_PIN = "06e184f864510969441d28e46ceaa73c75068541c2ca0d6ce7198db611002f28"

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("chunk", [4096, 37])
    @pytest.mark.parametrize("window", [256, 5, 1])
    def test_uniform_sampler_pinned(self, window, chunk, monkeypatch):
        monkeypatch.setattr(engine, "WINDOW", window)
        monkeypatch.setattr(engine, "CHUNK", chunk)
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS["uniform"]})
        values = simulate_batch(model, 5, 300, 11).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == self.UNIFORM_PIN

    @pytest.mark.parametrize("nmax, n, width", [
        (3, 0, 0), (3, 1, 1), (0, 4, 1), (1, 6, 6), (3, 5, 121), (2, 8, 255),
        (2, 9, 256), (3, 40, 256)])
    def test_width_sized_from_the_law(self, nmax, n, width):
        # sum_{g<n} nmax^g uniforms at most, capped at WINDOW
        assert engine.WINDOW == 256
        assert engine._window_width(nmax, n) == width


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
        u = np.random.default_rng(3).random((10**5, engine._uniforms_per_node(model)))
        sums = engine._sampler_matrices(model, u).sum(axis=1)
        se = sums.std(axis=0) / np.sqrt(len(sums))
        assert np.all(np.abs(sums.mean(axis=0) - model.mean_matrix()) <= 5 * se)

    def test_lognormal_entries_ks(self, monkeypatch):
        # the root's child matrices of 2 000 replicates, 24 000 entries:
        # those made from Box-Muller cosines and those from sines are each
        # lognormal(mu, sigma)
        params = SAMPLERS["lognormal"]["params"]
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS["lognormal"]})
        roots = []
        fold = engine._fold

        def recording(levels, sizes, depth, v):
            roots.append(levels[0][0][2])  # (N, p, p, replicates)
            return fold(levels, sizes, depth, v)

        monkeypatch.setattr(engine, "_fold", recording)
        simulate_batch(model, 1, 2000, 9)
        entries = np.moveaxis(np.concatenate(roots, axis=-1), -1, 0).reshape(2000, -1)
        law = stats.lognorm(s=params["sigma"], scale=math.exp(params["mu"]))
        for half in (entries[:, 0::2], entries[:, 1::2]):
            assert stats.kstest(half.ravel(), law.cdf).pvalue > 0.01

    @pytest.mark.parametrize("family", sorted(SAMPLERS))
    def test_v_does_not_depend_on_seed(self, family):
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS[family]})
        # Y_0 = V
        np.testing.assert_array_equal(simulate_batch(model, 0, 1, 1).values,
                                      simulate_batch(model, 0, 1, 2).values)


class TestFoldReference:
    """The (p, nodes) fold that starts from V at depth n - 1 gives the bits
    of the row-major one that gathers a row of V per depth-n leaf
    (conftest.reference_fold)."""

    @staticmethod
    def cases():
        rand = random_primitive_model(np.random.default_rng(5), p=3, min_atoms=2)
        # p = 3 and three children, so that a sum taken in another order
        # changes bits
        pick = np.random.default_rng(6)
        cx = make_model(3, [(0.25, []),
                            (0.75, pick.uniform(0.1, 0.5, (3, 3, 3))
                             * np.exp(1j * pick.uniform(-3, 3, (3, 3, 3))))],
                        field_kind="complex")
        sampler = model_from_dict({"p": 3, "mode": "sampler", "sampler": {
            "family": "uniform", "params": {"n_children": 3, "low": 0.1, "high": 0.4}}})
        lognormal = model_from_dict({"p": 2, "mode": "sampler",
                                     "sampler": SAMPLERS["lognormal"]})
        # (model, n, replicates, cap, identity_root); the fold loops over
        # the p coordinates, so p = 1 and p = 2 (the walk workload's) too
        return {
            "p1": (random_primitive_model(np.random.default_rng(7), p=1, min_atoms=2),
                   6, 40, 10**7, False),
            "p2-extinct": (varying_offspring_model(), 6, 60, 10**7, False),
            "p2-sampler": (lognormal, 4, 20, 10**7, False),
            "real": (rand, 5, 40, 10**7, False),
            "complex-extinct": (cx, 6, 40, 10**7, False),
            "tilted": (tilt_model(rand, 2.0), 4, 30, 10**7, False),
            "identity-root": (rand, 4, 30, 10**7, True),
            "cap-last-generation": (varying_offspring_model(), 6, 200, 20, False),
            "sampler": (sampler, 3, 12, 10**7, False),
            "n0": (rand, 0, 5, 10**7, False),
        }

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("want_traj", [False, True])
    @pytest.mark.parametrize("case", ["real", "complex-extinct", "tilted",
                                      "identity-root", "cap-last-generation",
                                      "sampler", "n0", "p1", "p2-extinct",
                                      "p2-sampler"])
    def test_bitwise_equal_to_leaf_gathering_fold(self, case, want_traj,
                                                  monkeypatch):
        # want_traj compares the runs at every depth m <= n, not only at n
        model, n, reps, cap, identity_root = self.cases()[case]
        depths = range(n + 1) if want_traj else [n]
        monkeypatch.setattr(engine, "CHUNK", 7)
        new = [simulate_batch(model, m, reps, 1, cap, identity_root)
               for m in depths]
        monkeypatch.setattr(engine, "_fold", reference_fold)
        old = [simulate_batch(model, m, reps, 1, cap, identity_root)
               for m in depths]
        if case == "cap-last-generation":
            # some replicates first breach the cap in the last generation
            before = simulate_batch(model, n - 1, reps, 1, cap).capped
            assert (new[-1].capped & ~before).any() and before.any()
        if case in ("complex-extinct", "p2-extinct"):
            assert 0 < new[-1].extinct.sum() < reps
        for b_new, b_old in zip(new, old):
            np.testing.assert_array_equal(b_new.values, b_old.values)
            np.testing.assert_array_equal(b_new.extinct, b_old.extinct)
            np.testing.assert_array_equal(b_new.capped, b_old.capped)


class TestDepthPrefix:
    """A depth-m run draws a prefix of a depth-n run's stream, so it is the
    depth-n run's tree folded at depth m, bit for bit."""

    @staticmethod
    def cases():
        cx = TestFoldReference.cases()["complex-extinct"][0]
        lognormal = model_from_dict({"p": 2, "mode": "sampler",
                                     "sampler": SAMPLERS["lognormal"]})
        # (model, n, replicates, cap, identity_root)
        return {
            "varying": (varying_offspring_model(), 7, 300, 10**7, False),
            "varying-capped": (varying_offspring_model(), 7, 300, 20, False),
            "varying-identity-root": (varying_offspring_model(), 7, 300, 10**7, True),
            "varying-capped-identity-root": (varying_offspring_model(), 7, 300, 20,
                                             True),
            "lognormal-sampler": (lognormal, 5, 200, 10**7, False),
            "complex-extinct": (cx, 6, 200, 10**7, False),
        }

    @pytest.mark.parametrize("case", ["varying", "varying-capped",
                                      "varying-identity-root",
                                      "varying-capped-identity-root",
                                      "lognormal-sampler", "complex-extinct"])
    def test_shallow_run_is_deep_run_folded(self, case, monkeypatch):
        model, n, reps, cap, identity_root = self.cases()[case]
        trees = []  # (levels, sizes, v) of each chunk of the depth-n run
        fold = engine._fold

        def recording(levels, sizes, depth, v):
            trees.append((levels, sizes, v))
            return fold(levels, sizes, depth, v)

        monkeypatch.setattr(engine, "_fold", recording)
        deep = simulate_batch(model, n, reps, 4, cap, identity_root)
        monkeypatch.setattr(engine, "_fold", fold)
        assert len(trees) == 1
        levels, sizes, v = trees[0]
        if cap < 10**7:
            assert 0 < deep.capped.sum() < reps
        if case == "complex-extinct":
            assert 0 < deep.extinct.sum() < reps
        before = simulate_batch(model, 0, reps, 4, cap, identity_root)
        for m in range(n + 1):
            run = simulate_batch(model, m, reps, 4, cap, identity_root)
            ok = ~run.capped
            np.testing.assert_array_equal(run.values[ok],
                                          fold(levels, sizes, m, v)[ok])
            assert np.isnan(run.values[run.capped]).all()
            # a flag, once set, stays set at every greater depth
            assert not (before.capped & ~run.capped).any()
            assert not (before.extinct & ~run.extinct).any()
            before = run
        np.testing.assert_array_equal(run.values, deep.values)
        np.testing.assert_array_equal(run.extinct, deep.extinct)
        np.testing.assert_array_equal(run.capped, deep.capped)


class TestDeterminism:
    def test_rerun_bitwise(self, model_rand):
        b1 = simulate_batch(model_rand, 4, 50, 11)
        b2 = simulate_batch(model_rand, 4, 50, 11)
        np.testing.assert_array_equal(b1.values, b2.values)

    @pytest.mark.usefixtures("one_process")
    def test_chunk_independence(self, model_rand, monkeypatch):
        args = (model_rand, 4, 10, 7, 10**7)
        monkeypatch.setattr(engine, "CHUNK", 3)
        v_small = simulate_batch(*args).values
        monkeypatch.setattr(engine, "CHUNK", 4096)
        v_big = simulate_batch(*args).values
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

    def test_extinct_count_matches_offspring_law(self):
        # a two-type model whose types share the wide_walk walk's offspring
        # law P(N = 0, 1, 2) = (0.1, 0.2, 0.7): P(extinct by depth n) is
        # f^n(0), f(s) = 0.1 + 0.2 s + 0.7 s^2, whatever the matrices (row:
        # the parent's type, column: the child's)
        model = make_model(2, [
            (0.1, []),
            (0.2, [[[0.0, 0.9], [0.8, 0.0]]]),
            (0.35, [[[0.5, 0.0], [0.0, 0.3]], [[0.0, 0.4], [0.6, 0.0]]]),
            (0.35, [[[0.45, 0.0], [0.35, 0.0]], [[0.0, 0.55], [0.0, 0.25]]])])
        n, reps = 4, 100_000
        q = 0.0
        for _ in range(n):
            q = 0.1 + 0.2 * q + 0.7 * q * q
        assert q == pytest.approx(0.140417026679863, rel=1e-14)
        batch = simulate_batch(model, n, reps, 1)
        assert batch.capped_count == 0
        # binomial z of the extinct count; 4 leaves a false alarm at 6e-5
        z = (batch.extinct_count - reps * q) / math.sqrt(reps * q * (1 - q))
        assert abs(z) < 4
        np.testing.assert_array_equal(batch.values[batch.extinct], 0.0)

    def test_cap_breach(self, model_a):
        batch = simulate_batch(model_a, 8, 4, 1, cap=10)
        assert batch.capped_count == 4
        assert np.isnan(batch.values).all()
        assert batch.ok_values().shape == (0, 1)

    @pytest.mark.usefixtures("one_process")
    def test_partial_cap_breach(self, monkeypatch):
        # random child counts (including none), so capped replicates leave
        # gaps in the node offsets of the replicates that keep growing
        model = varying_offspring_model()
        full = simulate_batch(model, 6, 200, 3)
        args = (model, 6, 200, 3, 20)
        monkeypatch.setattr(engine, "CHUNK", 4096)
        batch = simulate_batch(*args)
        values, extinct, capped = batch.values, batch.extinct, batch.capped
        assert 0 < capped.sum() < 200
        assert not full.capped.any()
        np.testing.assert_array_equal(values[~capped], full.values[~capped])
        assert np.isnan(values[capped]).all()
        np.testing.assert_array_equal(extinct, full.extinct)
        monkeypatch.setattr(engine, "CHUNK", 3)
        small = simulate_batch(*args)
        np.testing.assert_array_equal(small.values, values)
        np.testing.assert_array_equal(small.extinct, extinct)
        np.testing.assert_array_equal(small.capped, capped)

    def test_cap_trajectory_marker(self, model_a):
        traj = [simulate_batch(model_a, m, 1, 1, cap=10) for m in range(9)]
        assert traj[-1].capped[0]

    def test_bad_arguments(self, model_a):
        with pytest.raises(MatcascadeError, match="n must be >= 0"):
            simulate_batch(model_a, -1, 10, 0)
        with pytest.raises(MatcascadeError, match="replicates must be >= 1"):
            simulate_batch(model_a, 2, 0, 0)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        # at cap = -1 a root without children would breach it, and be
        # flagged capped rather than extinct
        model = make_model(1, [(0.5, []), (0.5, [[[1.0]]])])
        with pytest.raises(MatcascadeError, match="cap"):
            simulate_batch(model, 3, 8, 1, cap=cap)


class TestTilted:
    def test_model_a_t2_exact(self, model_a):
        batch = simulate_batch(tilt_model(model_a, 2), 4, 10, 1)
        # 2^4 nodes x (1/4)^4 / (1/2)^4 = 1 exactly
        np.testing.assert_array_equal(batch.values, np.ones((10, 1)))

    def test_t1_matches_untilted(self, model_c):
        tilted = simulate_batch(tilt_model(model_c, 1), 5, 50, 9)
        plain = simulate_batch(model_c, 5, 50, 9)
        np.testing.assert_array_equal(tilted.values, plain.values)

    def test_model_c_t2_mean(self, model_c):
        v2 = perron(moment_matrix(model_c, 2)).v
        batch = simulate_batch(tilt_model(model_c, 2), 6, 10**4, 1)
        mean = batch.values.mean(axis=0)
        se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        assert np.all(np.abs(mean - v2) <= 3 * se + 1e-12)

    def test_random_model_tilted_mean(self, model_rand):
        v15 = perron(moment_matrix(model_rand, 1.5)).v
        batch = simulate_batch(tilt_model(model_rand, 1.5), 5, 20000, 2)
        mean = batch.values.mean(axis=0)
        se = batch.values.std(axis=0, ddof=1) / np.sqrt(batch.replicates)
        assert np.all(np.abs(mean - v15) <= 4 * se + 1e-12)


class TestComplex:
    # numpy multiplies complex arrays with an FMA on some CPUs, but rounds a
    # one-element 2-D product the plain way, so when p = 1 a node alone in
    # its atom's group at its depth rounds differently than in a larger one
    @pytest.mark.xfail(reason="a p = 1 complex row depends on the replicate count "
                              "on CPUs where numpy's complex multiply uses an FMA")
    def test_scalar_row_does_not_depend_on_replicate_count(self):
        model = make_model(1, [(0.5, [[[0.3 + 0.4j]], [[-0.2 + 0.5j]]]),
                               (0.5, [[[0.7 - 0.1j]]])], field_kind="complex")
        for seed in range(20):
            full = simulate_batch(model, 3, 12, seed).values
            for r in range(12):
                row = simulate_batch(model, 3, r + 1, seed).values[r]
                assert row.tobytes() == full[r].tobytes()

    def test_deterministic_phase_exact(self):
        # A_k = 0.5i exactly; each depth-3 product is (0.5i)^3 = -0.125i
        model = complex_model([0.5j, 0.5j])
        batch = simulate_batch(model, 3, 1, 0)
        assert not batch.capped[0]
        assert batch.values[0, 0] == -1j

    def test_phase_pi_over_3(self):
        a = 0.5 * np.exp(1j * np.pi / 3)
        model = complex_model([a, a])
        y = simulate_batch(model, 3, 1, 0).values[0]
        np.testing.assert_allclose(y[0], np.exp(1j * np.pi), atol=1e-12)

    def test_zero_phase_reduces_to_real(self):
        model = complex_model([0.5 + 0j, 0.5 + 0j])
        y = simulate_batch(model, 6, 1, 4).values[0]
        assert y[0] == 1.0 + 0j

    def test_hat_companion(self):
        model = make_model(
            1, [(0.25, [[[0.5]], [[0.5]]]), (0.25, [[[0.5]], [[-0.5]]]),
                (0.25, [[[-0.5]], [[0.5]]]), (0.25, [[[-0.5]], [[-0.5]]])],
            field_kind="complex")
        # the modulus companion: the same atoms with |entries|, as a real
        # model, run on the same stream
        hat = make_model(1, [(a.prob, [np.abs(m) for m in a.matrices])
                             for a in model.atoms])
        y = simulate_batch(model, 5, 1, 2).values[0]
        y_hat = simulate_batch(hat, 5, 1, 2).values[0]
        assert y_hat[0] == 1.0  # modulus companion is the binary cascade
        assert abs(y[0]) <= 1.0 + 1e-12

    def test_batch_mean_nonzero_complex_mean(self):
        # random phases with E sum_k A_k ~ 0.70 + 0.30j, so Y_n is random
        # and E Y_n != 0; the modulus mean E sum_k |A_k| is 1, so V = 1
        w = 0.5 * np.exp(1j * np.pi / 3)
        model = make_model(
            1, [(0.5, [[[w]], [[0.4]]]),
                (0.5, [[[0.3j]], [[0.6]], [[0.2 * np.exp(-1j * np.pi / 4)]]])],
            field_kind="complex")
        m = sum(a.prob * sum(np.asarray(x)[0, 0] for x in a.matrices)
                for a in model.atoms)
        y = simulate_batch(model, 4, 20000, 6).values[:, 0]
        target = m**4 * perron(model.mean_matrix()).v[0]
        assert abs(target) > 0.05
        for part in (np.real, np.imag):
            se = part(y).std(ddof=1) / np.sqrt(len(y))
            assert abs(part(y.mean()) - part(target)) <= 5 * se


class TestSerialization:
    def test_csv_format(self, model_c):
        csv = io.BytesIO()
        batch = simulate_batch(model_c, 3, 5, 1, csv=csv)
        lines = csv.getvalue().decode().strip().split("\n")
        assert lines[0] == "replicate,extinct,capped,Y1,Y2"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == batch.values[0, 0]

    def test_csv_rerun_bitwise(self, model_rand):
        first, second = io.BytesIO(), io.BytesIO()
        simulate_batch(model_rand, 4, 30, 5, csv=first)
        simulate_batch(model_rand, 4, 30, 5, csv=second)
        assert first.getvalue() == second.getvalue()

    @staticmethod
    def reference_csv_rows(batch, start=0):
        """The data rows, written one replicate at a time, the first being
        replicate `start`."""
        columns = np.ascontiguousarray(batch.values).view(np.float64)
        return "".join(
            f"{r},{int(e)},{int(c)}," + ",".join(map(repr, row)) + "\n"
            for r, (e, c, row) in enumerate(zip(batch.extinct, batch.capped,
                                                columns.tolist()), start))

    def assert_rows_match(self, values, start=0, flags=None):
        """_csv_rows of the (rows, p) values, replicates start, start + 1,
        ..., equals the per-row writer's bytes; flags is extinct + 2 capped
        per row, 0 by default."""
        flags = np.zeros(len(values), dtype=int) if flags is None else np.asarray(flags)
        batch = SampleBatch(n=0, values=values, extinct=flags % 2 == 1, capped=flags >= 2)
        rows = engine._csv_rows((start, start + len(values)), batch.values,
                                batch.extinct, batch.capped)
        assert rows == self.reference_csv_rows(batch, start).encode()

    # float64 bit patterns: any uint64, or the bits of a float hypothesis
    # favours (nan, inf, subnormals, +-0, round numbers)
    float_bits = st.one_of(
        st.integers(0, 2**64 - 1),
        st.floats().map(lambda v: struct.unpack("<Q", struct.pack("<d", v))[0]))

    @given(st.data())
    def test_rows_match_repr(self, data):
        rows = data.draw(st.integers(0, 6), label="rows")
        p = data.draw(st.integers(1, 4), label="p")
        is_complex = data.draw(st.booleans(), label="complex")
        cols = 2 * p if is_complex else p
        bits = data.draw(st.lists(self.float_bits, min_size=rows * cols,
                                  max_size=rows * cols), label="bits")
        values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)
        self.assert_rows_match(values.view(complex) if is_complex else values,
                               start=data.draw(st.integers(0, 2**63), label="start"),
                               flags=data.draw(st.lists(st.integers(0, 3), min_size=rows,
                                                        max_size=rows), label="flags"))

    @pytest.mark.parametrize("case", ["subnormals", "powers-of-two", "pinned"])
    def test_rows_match_repr_at_edges(self, case):
        if case == "subnormals":  # mantissa 1 ... 10^5
            values = np.arange(1, 10**5 + 1, dtype=np.uint64).view(np.float64)
        elif case == "powers-of-two":  # 2^-1074 ... 2^1023, both signs
            values = np.ldexp(1.0, np.arange(-1074, 1024))
            values = np.concatenate([values, -values])
        else:
            values = np.array([1e-5, 1e-4, 1e15, 1e16, 2**53 - 1, 2**53 + 1, 0.1, 0.3,
                               2 / 3, sys.float_info.max, 0.0, -0.0, math.inf,
                               -math.inf, math.nan])
        self.assert_rows_match(values[:, None])

    @pytest.mark.parametrize("case", ["chunk-boundary", "complex", "capped"])
    def test_csv_matches_per_row_writer(self, case, model_rand):
        csv = io.BytesIO()
        if case == "chunk-boundary":
            batch = simulate_batch(model_rand, 2, engine.CHUNK + 3, 4, csv=csv)
        elif case == "complex":
            batch = simulate_batch(complex_model([0.5j, 0.25 + 0.25j, 0.1]), 3, 9, 2,
                                   csv=csv)
        else:
            batch = simulate_batch(varying_offspring_model(), 6, 50, 3, cap=20, csv=csv)
            assert 0 < batch.capped_count < 50
        rows = csv.getvalue().split(b"\n", 1)[1]
        assert rows == self.reference_csv_rows(batch).encode()

    def test_g_table_exact(self):
        # g(k) = floor(10^-k 2^-r) + 1 with 2^125 <= 10^-k 2^-r < 2^126, for
        # every decimal exponent k of a float64, from exact rationals
        table = engine._g_table()
        assert table.shape == (617, 2) and table.dtype == np.uint64
        for (g1, g0), k in zip(table.tolist(), range(-324, 293)):
            x = Fraction(10) ** -k
            r = math.floor(math.log2(x.numerator) - math.log2(x.denominator)) - 125
            while x / Fraction(2) ** r >= 2**126:
                r += 1
            while x / Fraction(2) ** r < 2**125:
                r -= 1
            assert g0 < 2**63
            assert g1 * 2**63 + g0 == math.floor(x / Fraction(2) ** r) + 1, k

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
        batch = simulate_batch(complex_model([0.5j, 0.5j]), 3, 7, 1)
        path = tmp_path / "c.bin"
        batch_to_binary(batch, str(path))
        again = batch_from_binary(str(path))
        assert np.iscomplexobj(again.values)
        np.testing.assert_array_equal(batch.values, again.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MatcascadeError, match="magic"):
            batch_from_binary(str(path))

    @pytest.mark.parametrize("keep", [28, -8, -1])
    def test_truncated(self, model_c, tmp_path, keep):
        # header (28 bytes) + R flag bytes + 8 R p value bytes
        path = tmp_path / "b.bin"
        batch_to_binary(simulate_batch(model_c, 2, 3, 1), str(path))
        blob = path.read_bytes()
        assert len(blob) == 28 + 3 + 8 * 3 * 2
        path.write_bytes(blob[:keep])
        with pytest.raises(MatcascadeError, match=f"{len(blob[:keep])} bytes"):
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

    @staticmethod
    def keys():
        """(master_seed, r) pairs: random ones, then ones near, at and past
        2^64 and negative ones, which key by their residues mod 2^64."""
        pick = np.random.default_rng(8)
        top = 2**64 - 1
        keys = [(int(pick.integers(0, 2**63)), int(pick.integers(0, 2**63)))
                for _ in range(20)]
        return keys + [(top, 0), (0, top), (top, top - 1), (top - 2, 5),
                       (2**64, 3), (2**64 + 7, 2**65 + 1), (3 * 2**64 - 1, 2**64),
                       (-1, 0), (0, -5), (-2**64 - 3, -2**63)]

    @staticmethod
    def assert_same_stream(rng, seed, r):
        keyed = np.random.Generator(np.random.Philox(
            key=np.array([seed % 2**64, r % 2**64], dtype=np.uint64)))
        np.testing.assert_array_equal(rng.random(9), keyed.random(9))
        np.testing.assert_array_equal(
            rng.integers(0, 2**32, size=5, dtype=np.uint32),
            keyed.integers(0, 2**32, size=5, dtype=np.uint32))

    def test_rekeyed_equals_new(self):
        rng = replicate_rng(0, 0)
        for i, (seed, r) in enumerate(self.keys()):
            # leave the generator mid-buffer, with a buffered 32-bit half
            rng.random(i % 7)
            rng.integers(0, 2**31, size=i % 3 + 1, dtype=np.uint32)
            assert replicate_rng(seed, r, rng) is rng
            self.assert_same_stream(rng, seed, r)

    def test_built_equals_keyed(self):
        for seed, r in self.keys():
            self.assert_same_stream(replicate_rng(seed, r), seed, r)

    def test_built_without_os_entropy(self):
        # Philox(key=...) calls os.urandom for a seed that the key overrides
        profile = cProfile.Profile()
        profile.runcall(replicate_rng, 5, 7)
        called = {name for _, _, name in pstats.Stats(profile).stats}
        assert "replicate_rng" in called
        assert not any("urandom" in name or "getrandbits" in name for name in called)

    def test_state_dict_per_thread(self):
        # a thread rewrites a state dict of its own at every keying
        here = engine._philox_state(1, 2, 0)
        there = []
        thread = threading.Thread(
            target=lambda: there.append(engine._philox_state(1, 2, 0)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert there[0] is not here
        assert engine._philox_state(3, 4, 5) is here

    def test_threads_simulate_at_once(self, model_rand, monkeypatch):
        # three threads, switched every microsecond, key their generators
        # in turn; a window of 3 makes most replicates re-key for spills too
        monkeypatch.setattr(engine, "WINDOW", 3)
        seeds = (1, 2, 3)
        alone = {seed: simulate_batch(model_rand, 4, 2000, seed) for seed in seeds}
        together = {}
        start = threading.Barrier(len(seeds))

        def run(seed):
            start.wait()
            together[seed] = simulate_batch(model_rand, 4, 2000, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert together[seed].values.tobytes() == alone[seed].values.tobytes()
            np.testing.assert_array_equal(together[seed].extinct, alone[seed].extinct)

    @staticmethod
    def count_philox(monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return built

    def test_one_generator_per_run(self, model_rand, monkeypatch):
        # three chunks in this process re-key one generator, so no
        # replicate builds a bit generator or reads OS entropy
        built = self.count_philox(monkeypatch)
        monkeypatch.setattr(engine, "CHUNK", 4)
        monkeypatch.setattr(engine, "usable_cores", lambda: 1)
        assert engine.process_count(10) == 1
        simulate_batch(model_rand, 3, 10, 1)
        assert len(built) == 1

    def test_sampler_one_generator_per_chunk_slot(self, monkeypatch):
        # a sampler law reads its entries from the same stream window, so
        # its three chunk slots share the run's one generator as well
        built = self.count_philox(monkeypatch)
        monkeypatch.setattr(engine, "CHUNK", 4)
        monkeypatch.setattr(engine, "usable_cores", lambda: 1)
        assert engine.process_count(10) == 1
        model = model_from_dict({"p": 2, "mode": "sampler",
                                 "sampler": SAMPLERS["uniform"]})
        simulate_batch(model, 2, 10, 1)
        assert len(built) == 1

    @pytest.mark.parametrize("window", [256, 3])
    def test_one_keying_per_replicate(self, model_rand, window, monkeypatch):
        # the window covers every draw (depth 3 needs at most 13), or a
        # window of 3 makes most replicates resume their streams past it;
        # either way replicate_rng keys each replicate once
        calls = []
        keyed = engine.replicate_rng

        def counting(*args):
            calls.append(args[1])
            return keyed(*args)

        # three chunks in this process, which alone sees the calls
        monkeypatch.setattr(engine, "replicate_rng", counting)
        monkeypatch.setattr(engine, "CHUNK", 4)
        monkeypatch.setattr(engine, "usable_cores", lambda: 1)
        monkeypatch.setattr(engine, "WINDOW", window)
        simulate_batch(model_rand, 3, 10, 1)
        assert calls == list(range(10))


class TestKeepHeap:
    """The pool initializer sets glibc's two thresholds, and returns quietly
    where it cannot; a fake C library stands in for the real allocator."""

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Libc:
            def __init__(self, name):
                assert name is None
                self.mallopt = lambda param, value: calls.append((param, value)) or 1

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        assert engine._keep_heap() is None
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    def test_no_library(self, monkeypatch):
        def missing(name):
            raise OSError("no such library")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert engine._keep_heap() is None

    def test_no_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert engine._keep_heap() is None


class TestShards:
    """A run's rows split into the fewest shards of at most CHUNK rows whose
    count is a multiple of the process count, as equal as whole rows allow."""

    def test_twenty_thousand_rows_over_two_processes(self):
        # 5 chunks of CHUNK rows would give one process 3 and the other 2
        shards = engine._shards(20_000, 2)
        assert len(shards) == 6
        assert max(stop - start for start, stop in shards) == 3334

    @pytest.mark.parametrize("chunk", [2, 7, 4096])
    @pytest.mark.parametrize("processes", [1, 2, 3, 5])
    def test_cover_balanced_and_at_most_chunk(self, chunk, processes, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        for replicates in [1, 2, 3, chunk, chunk + 1, 2 * chunk + 17,
                           5 * chunk, 5 * chunk + 1, 20_000]:
            used = min(processes, -(-replicates // chunk))  # as process_count
            shards = engine._shards(replicates, used)
            sizes = [stop - start for start, stop in shards]
            assert [start for start, _ in shards] == [0] + np.cumsum(sizes)[:-1].tolist()
            assert sum(sizes) == replicates
            assert 0 < min(sizes) and max(sizes) <= chunk
            assert max(sizes) - min(sizes) <= 1
            assert len(shards) % used == 0
            # fewest such shards: one shard fewer per process breaks the cap
            assert len(shards) == used or replicates > (len(shards) - used) * chunk


class TestWorkers:
    """Chunks sharded over forked workers give the one-process batch and
    file bytes, bit for bit; the process count follows from the usable
    cores, the rows and the threads the caller runs."""

    CASES = {
        "finite-atom": lambda: (random_primitive_model(
            np.random.default_rng(7), p=2, min_atoms=2), 4, 10**7),
        "complex": lambda: (complex_model([0.5j, 0.25 + 0.25j, 0.1]), 3, 10**7),
        "uniform-sampler": lambda: (model_from_dict(
            {"p": 2, "mode": "sampler", "sampler": SAMPLERS["uniform"]}), 3, 10**7),
        "lognormal-sampler": lambda: (model_from_dict(
            {"p": 2, "mode": "sampler", "sampler": SAMPLERS["lognormal"]}), 3, 10**7),
        "extinct": lambda: (make_model(1, [(0.5, []), (0.5, [[[0.5]], [[0.5]]])]),
                            6, 10**7),
        "capped": lambda: (varying_offspring_model(), 6, 20),
    }

    @pytest.fixture(autouse=True)
    def chunks_of_seven(self, monkeypatch):
        # eight chunks of 7 replicates
        monkeypatch.setattr(engine, "CHUNK", 7)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_one_process(self, case, tmp_path, monkeypatch):
        model, n, cap = self.CASES[case]()
        files = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(engine, "usable_cores", lambda: cores)
            assert engine.process_count(50) == cores
            csv, binary = io.BytesIO(), tmp_path / f"{cores}.bin"
            batch = simulate_batch(model, n, 50, 4, cap=cap, csv=csv)
            batch_to_binary(batch, str(binary))
            files[cores] = (batch, csv.getvalue(), binary.read_bytes())
        one, csv1, bin1 = files[1]
        assert csv1.split(b"\n", 1)[1] == TestSerialization.reference_csv_rows(one).encode()
        if case == "extinct":
            assert 0 < one.extinct_count < 50
        if case == "capped":
            assert 0 < one.capped_count < 50
        for batch, csv, binary in (files[2], files[3]):
            assert batch.values.tobytes() == one.values.tobytes()
            np.testing.assert_array_equal(batch.extinct, one.extinct)
            np.testing.assert_array_equal(batch.capped, one.capped)
            assert csv == csv1 and binary == bin1

    def test_tables_built_before_fork(self, model_rand, monkeypatch):
        # the forking process builds each formatting table once, before the
        # pool starts, so that no worker builds its own
        tables = (engine._templates, engine._four_digits, engine._g_table)
        for table in tables:
            table.cache_clear()
        built = []
        in_workers = engine._in_workers

        def recording(*args):
            built.append([table.cache_info().currsize for table in tables])
            return in_workers(*args)

        monkeypatch.setattr(engine, "usable_cores", lambda: 2)
        monkeypatch.setattr(engine, "_in_workers", recording)
        simulate_batch(model_rand, 3, 50, 1, csv=io.BytesIO())
        assert built == [[1, 1, 1]]
        assert [table.cache_info().misses for table in tables] == [1, 1, 1]
        assert multiprocessing.active_children() == []

    @staticmethod
    def logged_pids(monkeypatch, log, replicates):
        """Run a batch whose every chunk, in this process or a worker, logs
        its process id to the file log; return the batch and those ids."""
        run_chunk = engine._run_chunk

        def logging_pid(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return run_chunk(*args)

        with monkeypatch.context() as m:
            m.setattr(engine, "_run_chunk", logging_pid)
            batch = simulate_batch(
                random_primitive_model(np.random.default_rng(1), p=2), 2, replicates, 1)
        return batch, set(map(int, log.read_text().split()))

    @pytest.mark.parametrize("replicates, cores, forked", [
        (50, 3, 3), (50, 2, 2), (15, 8, 3), (14, 8, 2), (7, 8, 0), (50, 1, 0)])
    def test_process_count(self, replicates, cores, forked, monkeypatch, tmp_path):
        monkeypatch.setattr(engine, "usable_cores", lambda: cores)
        assert engine.process_count(replicates) == max(forked, 1)
        _, pids = self.logged_pids(monkeypatch, tmp_path / "pids", replicates)
        # a run of at most one chunk, or on one worker, stays in this process;
        # otherwise only workers simulate, and a worker may take more chunks
        if forked == 0:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and len(pids) <= forked
        assert multiprocessing.active_children() == []

    def test_threaded_caller_stays_in_process(self, monkeypatch, tmp_path):
        # a child forked beside another thread would copy the locks that
        # thread holds but not the thread, so such a caller never forks
        monkeypatch.setattr(engine, "usable_cores", lambda: 2)
        alone, forked = self.logged_pids(monkeypatch, tmp_path / "alone", 50)
        assert os.getpid() not in forked
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            assert engine.process_count(50) == 1
            beside, pids = self.logged_pids(monkeypatch, tmp_path / "beside", 50)
        finally:
            release.set()
            waiting.join()
        assert pids == {os.getpid()}
        assert beside.values.tobytes() == alone.values.tobytes()
        np.testing.assert_array_equal(beside.extinct, alone.extinct)
        np.testing.assert_array_equal(beside.capped, alone.capped)
        assert multiprocessing.active_children() == []
