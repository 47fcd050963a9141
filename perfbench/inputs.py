"""Seeded inputs for the two workloads, generated without matcascade.

Each generator draws from ``np.random.default_rng([seed, tag, index])``
with a per-workload tag and the index of the pass in the run, so one
seed gives the same sequence of files on every run.  The
shape of every input (dimension, atoms, child counts, probabilities) is
fixed and only the matrix entries or displacements are random, so the
amount of work a workload does barely moves with the seed.
"""

from __future__ import annotations

import json

import numpy as np

from oracles import perron_root

# child counts and probabilities of the atoms, fixed per workload
EXACT_MOMENTS_ATOMS = ((0.3, 2), (0.3, 2), (0.4, 3))
P = 3

# two-type walk: per parent type, (prob, child types); the child-count law
# P(N=0) = 0.1, P(N=1) = 0.2, P(N=2) = 0.7 is shared by both types
WALK_CONFIGS = (
    ((0.1, ()), (0.2, (2,)), (0.35, (1, 2)), (0.35, (1, 1))),
    ((0.1, ()), (0.2, (1,)), (0.7, (2, 1))),
)
WALK_T = 1.0

TAGS = {"wide_walk": 2, "exact_moments": 3}


def random_model(rng, atoms, p=P, low=0.05, high=1.0):
    """Finite-atom model with uniform entries, scaled so rho(E sum A_k) = 1."""
    mats = [[rng.uniform(low, high, size=(p, p)) for _ in range(k)]
            for _, k in atoms]
    mean = sum(prob * sum(ms) for (prob, _), ms in zip(atoms, mats))
    scale = 1.0 / perron_root(mean)
    return {"p": p, "field": "real", "mode": "finite-atom",
            "atoms": [{"prob": prob,
                       "matrices": [(scale * m).tolist() for m in ms]}
                      for (prob, _), ms in zip(atoms, mats)]}


def walk_spec(rng):
    """Two-type branching random walk with normal displacements."""
    types = []
    for configs in WALK_CONFIGS:
        offspring = []
        for prob, children in configs:
            disp = rng.normal(0.0, 0.5, size=len(children))
            offspring.append({"prob": prob, "children": [
                {"type": j, "disp": float(d)} for j, d in zip(children, disp)]})
        types.append({"offspring": offspring})
    return {"p": 2, "types": types}


def generate(workload, seed, index=0):
    """The input document of a workload's pass ``index``: a model, or a
    walk spec."""
    rng = np.random.default_rng([seed, TAGS[workload], index])
    if workload == "exact_moments":
        return random_model(rng, EXACT_MOMENTS_ATOMS)
    return walk_spec(rng)


def write(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")
