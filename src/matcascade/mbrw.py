"""Multitype branching random walk specs and their cascade reduction.

A spec lists, per parent type, a finite-atom law over offspring
configurations (child type, displacement).  Exponentially tilting the
displacements and dividing by the maximal eigenvalue turns the walk into
a cascade model whose weight matrices carry the child types as indicator
columns; matrix products then vanish on type-inconsistent paths, so the
simulation engine enforces type bookkeeping for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import ConditionReport, offspring_law_assumptions
from .model import (PROB_SUM_TOL, Atom, CascadeModel, ModelError, offspring_law,
                    parses, read_json)
from .spectral import SpectralError, perron

BUILD_TOL = 1e-12


@dataclass
class OffspringConfig:
    prob: float
    children: list  # list of (type j in 1..p, displacement)

    @property
    def n_children(self):
        return len(self.children)


@dataclass
class MbrwSpec:
    p: int
    offspring: list  # per parent type: list of OffspringConfig


@dataclass
class MbrwSpectral:
    t: float
    m_tilde: np.ndarray
    rho_tilde: float
    v_tilde: np.ndarray


def load_mbrw_spec(path):
    """Read an MBRW spec file (JSON): per type, offspring configurations."""
    _, doc = read_json(path, "spec", ModelError)
    return spec_from_dict(doc)


@parses(ModelError, "spec")
def spec_from_dict(doc):
    p = int(doc["p"])
    if p < 1:
        raise ModelError("p must be >= 1")
    types = doc["types"]
    if len(types) != p:
        raise ModelError(f"expected {p} type entries, got {len(types)}")
    offspring = []
    for i, entry in enumerate(types):
        configs = []
        total = 0.0
        for raw in entry["offspring"]:
            prob = float(raw["prob"])
            if not 0.0 < prob <= 1.0:
                raise ModelError(f"config probability {prob} outside (0, 1]")
            children = []
            for ch in raw["children"]:
                j = float(ch["type"])
                if not (j.is_integer() and 1 <= j <= p):
                    raise ModelError(
                        f"child type {ch['type']!r} is not an integer in 1..{p}")
                children.append((int(j), float(ch["disp"])))
            configs.append(OffspringConfig(prob=prob, children=children))
            total += prob
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ModelError(
                f"type {i+1} offspring probabilities sum to {total!r}")
        offspring.append(configs)
    spec = MbrwSpec(p=p, offspring=offspring)
    _check_common_offspring_law(spec)
    return spec


def _check_common_offspring_law(spec):
    """The child-count distribution must not depend on the parent type."""
    laws = [offspring_law(cfgs) for cfgs in spec.offspring]
    ref = laws[0]
    for i, law in enumerate(laws[1:], start=2):
        keys = set(ref) | set(law)
        for k in keys:
            if abs(ref.get(k, 0.0) - law.get(k, 0.0)) > 1e-12:
                raise ModelError(
                    "offspring-count law differs between parent types 1 and "
                    f"{i}: P(N={k}) is {ref.get(k, 0.0)} vs {law.get(k, 0.0)}")
    return ref


def _tilted_weight(x):
    """exp(x) for an exponent -s * displacement; ModelError if it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ModelError(f"tilted displacement weight exp({x!r}) overflows "
                         "the float range") from None


def mbrw_spectral(spec, t):
    """Tilted reproduction matrix and its Perron data.

    Entry (i, j): expected sum over first-generation children of type j
    of exp(-t * displacement), the parent being of type i.
    """
    p = spec.p
    m = np.zeros((p, p))
    for i, configs in enumerate(spec.offspring):
        for c in configs:
            for j, disp in c.children:
                m[i, j - 1] += c.prob * _tilted_weight(-t * disp)
    try:
        triple = perron(m)
    except SpectralError as e:
        raise ModelError(f"tilted reproduction matrix: {e}") from e
    return MbrwSpectral(t=t, m_tilde=m, rho_tilde=triple.rho, v_tilde=triple.v)


def _coupled_atoms(spec):
    """Joint offspring configurations across parent types, grouped by
    child count.

    Couples the per-type laws through the shared child-count variable:
    first draw N from the common law, then independently a conditional
    configuration for every parent type.  The coupling is a modeling
    choice; all per-type marginals are exact.
    """
    n_law = _check_common_offspring_law(spec)
    atoms = []
    for n_children, pn in sorted(n_law.items()):
        if pn <= 0:
            continue
        per_type = []
        for configs in spec.offspring:
            matching = [c for c in configs if c.n_children == n_children]
            total = sum(c.prob for c in matching)
            per_type.append([(c, c.prob / total) for c in matching])
        # cartesian product over types of the conditional choices
        joint = [([], 1.0)]
        for choices in per_type:
            joint = [(picked + [c], w * q) for picked, w in joint
                     for c, q in choices]
        for picked, w in joint:
            atoms.append((pn * w, n_children, picked))
    return atoms


def build_cascade_from_mbrw(spec, t):
    """Cascade model equivalent to the tilted, normalized branching walk.

    Child k's matrix has, in row i, the tilted displacement weight of the
    k-th child of a type-i parent, placed in the column of that child's
    type.  The mean matrix of the result equals the tilted reproduction
    matrix divided by its eigenvalue (checked at build time), and the
    right eigenvector is preserved.
    """
    sp = mbrw_spectral(spec, t)
    rho = sp.rho_tilde
    p = spec.p
    atoms = []
    for w, n_children, picked in _coupled_atoms(spec):
        mats = []
        for k in range(n_children):
            a = np.zeros((p, p))
            for i, config in enumerate(picked):
                j, disp = config.children[k]
                a[i, j - 1] = _tilted_weight(-t * disp) / rho
            mats.append(a)
        atoms.append(Atom(prob=w, matrices=mats))
    model = CascadeModel(p=p, mode="finite-atom", field_kind="real", atoms=atoms)

    mean = model.mean_matrix()
    expected = sp.m_tilde / rho
    if np.abs(mean - expected).max() > BUILD_TOL:
        raise ModelError("built cascade mean matrix mismatch")
    v = perron(mean).v
    if np.abs(v - sp.v_tilde).max() > 1e-10:
        raise ModelError("built cascade right eigenvector mismatch")
    return model


def mbrw_condition_report(spec, t, alpha=None, lam=None, epsilon=0.0):
    """Moment criteria evaluated directly on the walk's tilted spectra.

    Positive-order part: p^(alpha-1) rho~(alpha t) / rho~(t)^alpha < 1.
    Negative-order part: both printed readings of the single-child
    expectation (with and without t in the exponent) are computed and
    labeled; no intent is guessed between them.
    """
    reports = []
    p = spec.p
    if alpha is not None:
        if not 1 < alpha < math.inf:
            raise ModelError("alpha must be > 1 and finite")
        sp = mbrw_spectral(spec, t)
        sp_a = mbrw_spectral(spec, alpha * t)
        crit = p ** (alpha - 1) * sp_a.rho_tilde / sp.rho_tilde ** alpha
        quantities = {
            "alpha": alpha, "t": t,
            "rho_tilde(t)": sp.rho_tilde,
            "rho_tilde(alpha*t)": sp_a.rho_tilde,
            "p^(alpha-1)*rho_tilde(alpha*t)/rho_tilde(t)^alpha": crit,
        }
        verdict = "holds" if crit < 1 else "undecided"
        notes = ["first-generation alpha-moments are finite sums here"]
        reports.append(ConditionReport(theorem="C2.4a", verdict=verdict,
                                       quantities=quantities, notes=notes))
    if lam is not None:
        if not 0 < lam < math.inf:
            raise ModelError("lambda must be positive and finite")
        if not math.isfinite(epsilon):
            raise ModelError("epsilon must be finite")
        p_n0, p_n1, assumptions = offspring_law_assumptions(spec.offspring[0])
        quantities = {"lambda": lam, "epsilon": epsilon, "t": t,
                      "P(N=0)": p_n0, "P(N=1)": p_n1}

        def first_child(config, scale):
            """exp(-(lam+eps) * scale * S_1), S_1 the first child's disp."""
            return _tilted_weight(-(lam + epsilon) * scale * config.children[0][1])

        # max_i E exp(-(lam+eps) t S_1^i): first-child displacement per type
        quantities["max_i E exp(-(lam+eps)*t*S_1^i)"] = max(
            sum(c.prob * first_child(c, t) for c in configs if c.n_children >= 1)
            for configs in spec.offspring)
        # E max_i ... 1{N=1}: joint over types via the child-count coupling,
        # as printed (scale 1) and with t in the exponent
        single = [(w, picked) for w, n_children, picked in _coupled_atoms(spec)
                  if n_children == 1]
        readings = []
        for scale, key in ((1.0, "E max_i exp(-(lam+eps)*S_1^i);N=1 (as printed)"),
                           (t, "E max_i exp(-(lam+eps)*t*S_1^i);N=1 (t-reading)")):
            em = 0.0
            for w, picked in single:
                em += w * max(first_child(c, scale) for c in picked)
            quantities[key] = em
            readings.append(em)
        em_plain, em_tilted = readings
        ok = (p_n0 == 0 and p_n1 < 1 and em_plain < 1)
        notes = [
            "both exponent readings reported; verdict follows the printed one",
            f"t-reading verdict would be {'holds' if em_tilted < 1 else 'fails'}",
        ]
        verdict = "holds" if ok else ("not-applicable"
                                      if (p_n0 > 0 or p_n1 >= 1) else "fails")
        reports.append(ConditionReport(theorem="C2.4b", verdict=verdict,
                                       quantities=quantities,
                                       assumptions_checked=assumptions,
                                       notes=notes))
    return reports
