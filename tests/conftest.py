"""Shared fixtures: reference models and independent oracles."""

import os
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from matcascade.model import CascadeModel, Atom, model_from_dict

# HYPOTHESIS_PROFILE=ci runs more examples of every property test without
# its own max_examples
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_model(p, atoms, field_kind="real"):
    """Finite-atom model from (prob, matrices) pairs; each atom's matrices
    become one (N, p, p) array of the field's dtype."""
    dtype = complex if field_kind == "complex" else float
    return CascadeModel(
        p=p, mode="finite-atom", field_kind=field_kind,
        atoms=[Atom(prob=prob, matrices=np.array(mats, dtype=dtype).reshape(-1, p, p))
               for prob, mats in atoms])


@pytest.fixture
def model_a():
    # symmetric binary scalar cascade: two children, both weights 1/2
    return make_model(1, [(1.0, [[[0.5]], [[0.5]]])])


@pytest.fixture
def model_b():
    # single chain with the idempotent rank-one matrix
    return make_model(2, [(1.0, [[[0.5, 0.5], [0.5, 0.5]]])])


@pytest.fixture
def model_c():
    return make_model(2, [(1.0, [[[0.3, 0.2], [0.1, 0.4]],
                                 [[0.2, 0.3], [0.4, 0.1]]])])


@pytest.fixture
def model_d1():
    # scalar, two i.i.d. children, weights in {0.7, 0.3}: second moment holds
    a, b = 0.7, 0.3
    return make_model(1, [(0.25, [[[a]], [[a]]]),
                          (0.25, [[[a]], [[b]]]),
                          (0.25, [[[b]], [[a]]]),
                          (0.25, [[[b]], [[b]]])])


@pytest.fixture
def model_d2():
    # scalar, two i.i.d. children, weights in {1.9 w.p. 1/4, 1/30 w.p. 3/4}:
    # mean one but second moment blows up
    a, b = 1.9, 0.1 / 3
    return make_model(1, [(0.0625, [[[a]], [[a]]]),
                          (0.1875, [[[a]], [[b]]]),
                          (0.1875, [[[b]], [[a]]]),
                          (0.5625, [[[b]], [[b]]])])


@pytest.fixture
def wide_walk_doc(monkeypatch):
    """The seed-1 spec document of the wide_walk benchmark workload, from
    perfbench/inputs.py."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs
    return inputs.generate("wide_walk", 1)


@pytest.fixture
def model_rand():
    # nondegenerate random 2x2 model used for distributional tests
    return random_primitive_model(np.random.default_rng(2024), p=2,
                                  min_atoms=2)


def random_primitive_model(rng, p=None, max_atoms=3, max_children=3,
                           min_atoms=1):
    """Random all-positive finite-atom model normalized to spectral radius 1."""
    from matcascade.model import normalize_model

    if p is None:
        p = int(rng.integers(1, 4))
    n_atoms = int(rng.integers(min_atoms, max_atoms + 1))
    raw = rng.random(n_atoms) + 0.1
    probs = raw / raw.sum()
    atoms = []
    for a in range(n_atoms):
        n_children = int(rng.integers(1, max_children + 1))
        mats = [rng.uniform(0.05, 1.0, size=(p, p)) for _ in range(n_children)]
        atoms.append((probs[a], mats))
    # make probabilities sum to exactly 1 in float arithmetic
    atoms[-1] = (1.0 - sum(pr for pr, _ in atoms[:-1]), atoms[-1][1])
    return normalize_model(make_model(p, atoms))


# ---------------------------------------------------------------------------
# independent oracles

def eig_perron_oracle(mat):
    """Dominant eigentriple via the dense eigensolver (independent of the
    power-iteration code path)."""
    mat = np.asarray(mat, dtype=float)
    w, vr = np.linalg.eig(mat)
    wl, vl = np.linalg.eig(mat.T)
    i = int(np.argmax(w.real))
    j = int(np.argmax(wl.real))
    rho = float(w[i].real)
    v = np.abs(vr[:, i].real)
    u = np.abs(vl[:, j].real)
    u = u / u.sum()
    v = v / float(u @ v)
    return rho, u, v


def enumerate_paths(model, n):
    """All depth-n (probability-weight, product) pairs by direct expansion.

    Enumerates per-level (atom, child) choices independently of the
    convolution code: a depth-n path picks an atom and a child at every
    level; its weight is the product of atom probabilities.
    """
    level = [(a.prob, np.asarray(m, dtype=float))
             for a in model.atoms for m in a.matrices]
    paths = [(1.0, np.eye(model.p))]
    for _ in range(n):
        paths = [(w * lw, x @ lm) for w, x in paths for lw, lm in level]
    return paths


def brute_force_moment_matrix(model, t, n):
    """M_n(t) by exhaustive path enumeration (entrywise powers of products)."""
    out = np.zeros((model.p, model.p))
    for w, x in enumerate_paths(model, n):
        out += w * np.power(x, t)
    return out



def _reference_child_stack(model):
    """Atom probability and matrix of every child, in atom order."""
    dtype = complex if model.is_complex else float
    return (np.array([a.prob for a in model.atoms for _ in a.matrices]),
            np.stack([np.asarray(m, dtype=dtype)
                      for a in model.atoms for m in a.matrices]))


def reference_intensity_measure(model, n):
    """(weights, matrices) of the depth-n intensity measure, with bitwise
    equal products merged through a dict keyed on their bytes: the support
    in order of first occurrence, each weight summed in input order.  The
    products come from np.einsum, which the library no longer uses: an
    independent oracle of the bits its own passes form."""
    base_w, base_m = _reference_child_stack(model)

    def merge(weights, mats):
        seen = {}
        out_w, out_m = [], []
        for w, m in zip(weights, mats):
            key = m.tobytes()
            if key in seen:
                out_w[seen[key]] += w
            else:
                seen[key] = len(out_w)
                out_w.append(w)
                out_m.append(m)
        return np.array(out_w), np.stack(out_m)

    weights, mats = merge(base_w, base_m)
    for _ in range(n - 1):
        new_w = np.multiply.outer(base_w, weights).reshape(-1)
        new_m = np.einsum("apq,mqr->ampr", base_m, mats)
        weights, mats = merge(new_w, new_m.reshape(-1, model.p, model.p))
    return weights, mats


def reference_deepest_level(model, n):
    """(weights, matrices) of the unmerged depth-n level, n >= 2: each
    child times each product of level n - 1 as the library stores it (the
    unmerged child stack at n = 2, reference_intensity_measure deeper),
    child-major, the products by np.einsum and the weights as an outer
    product."""
    base_w, base_m = _reference_child_stack(model)
    below_w, below_m = ((base_w, base_m) if n == 2
                        else reference_intensity_measure(model, n - 1))
    return (np.multiply.outer(base_w, below_w).reshape(-1),
            np.einsum("apq,mqr->ampr", base_m, below_m).reshape(-1, model.p, model.p))


def reference_power_sum(weights, mats, t):
    """sum_i weights[i] * |mats[i]|^t entrywise, one term at a time."""
    out = np.zeros(mats.shape[1:])
    for w, m in zip(weights, mats):
        out += w * np.power(np.abs(m), t)
    return out


def _row_apply(mats, y):
    """Row-wise products A y for the rows y of an (m, p) array, mats one
    (p, p) matrix (or a (1, p, p) stack) shared by every row or an
    (m, p, p) stack: the arithmetic the engine folded with in the
    row-major layout, kept here apart from engine._apply."""
    out = mats[..., :, 0] * y[:, :1]
    for q in range(1, y.shape[1]):
        out += mats[..., :, q] * y[:, q:q + 1]
    return out


def reference_fold(levels, sizes, depth, v):
    """Root values as engine._fold computes them, with every depth-`depth`
    leaf built as a row of V and gathered per child slot, each depth's
    values a row-major (nodes, p) array.  The engine records a group's
    slot matrices as (N, p, p, 1) or (N, p, p, nodes); here they become
    (N, 1 or nodes, p, p) stacks of rows.  The engine records no offsets
    for the depth - 1 groups, so the leaves' offsets are worked out here:
    each group's child count N placed at its nodes, then the exclusive
    prefix sum.  A finite-atom law records depth - 1 as one state per node
    (0 without children, else 1 + its atom) beside every atom's slot
    matrices; each node of state 1 + a becomes a node of atom a's group
    here, so its value is rebuilt per node from that atom's matrices and
    the leaves' rows of V."""
    y = np.broadcast_to(v, (sizes[depth], v.size))
    levels = list(levels[:depth])
    if depth and isinstance(levels[-1], tuple):
        states, stacks = levels[-1]
        levels[-1] = [(np.flatnonzero(states == 1 + a), None, mats)
                      for a, mats in enumerate(stacks) if len(mats)]
    for d in range(depth - 1, -1, -1):
        parent = np.zeros((sizes[d], v.size), dtype=v.dtype)
        if d == depth - 1:
            children = np.zeros(sizes[d], dtype=np.int64)
            for sel, _, mats in levels[d]:
                children[sel] = len(mats)
            leaf_first = np.cumsum(children) - children
        for sel, first, mats in levels[d]:
            if d == depth - 1:
                first = leaf_first[sel]
            rows = np.moveaxis(mats, -1, 1)
            acc = _row_apply(rows[0], y[first])
            for k in range(1, len(rows)):
                acc += _row_apply(rows[k], y[first + k])
            parent[sel] = acc
        y = parent
    return y
