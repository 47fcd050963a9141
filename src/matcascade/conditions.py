"""Exact evaluation of the moment-criterion hypotheses for finite-atom models.

Every quantity here is a finite sum or an eigenvalue of an exactly
computed matrix, so reports are deterministic and reproducible.  The
alpha-moment criteria of several orders are checked in one call, which
builds each depth-n intensity measure once and reads rho_n(alpha) for
every order off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .model import ModelError
from .spectral import (SpectralError, _power_sum, intensity_measure,
                       matrix_norm, moment_matrix, perron)


@dataclass
class ConditionReport:
    theorem: str  # T2.1a | T2.1b | T2.2 | T2.2-product | T2.3a | T2.3b | T6.1 | C2.4a | C2.4b
    verdict: str  # holds | fails | undecided | not-applicable
    quantities: dict = field(default_factory=dict)
    assumptions_checked: list = field(default_factory=list)  # (name, status)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def _assumption_h_status(model):
    from .model import validate_model

    report = validate_model(model)
    return ("assumption-H", "ok" if report.holds else report.assumption_h), report


def positive_column_probability(model):
    """Exact probability that every drawn matrix has an all-positive column.

    For realizations with no children the event holds vacuously.
    """
    model._require_finite_atom()
    total = 0.0
    for atom in model.atoms:
        ok = all(
            bool(np.any(np.all(np.abs(np.asarray(m)) > 0, axis=0)))
            for m in atom.matrices
        )
        if ok:
            total += atom.prob
    return total


def _norm_moment(model, alpha):
    """E ||sum_k |A_k|||^alpha, an exact finite sum over the atoms."""
    p = model.p
    return sum(
        a.prob * matrix_norm(sum((np.abs(np.asarray(m)) for m in a.matrices),
                                 start=np.zeros((p, p)))) ** alpha
        for a in model.atoms)


def check_alpha_moments(model, alphas, n_max=3, support_cap=1_000_000):
    """Sufficient and necessary moment criteria at each order alpha > 1.

    Sufficient side: some depth n <= n_max has p^(alpha-1) rho_n(alpha) < 1.
    Necessary side (contrapositive diagnostic): finiteness forces
    rho_n(alpha) <= 1 for all n, strictly when the positive-column event
    has positive probability.  Verdict "undecided" covers the gap.

    Returns one report per alpha, in the given order.  Every alpha uses
    the same depth-n intensity measure, so each is built at most once.
    An alpha whose Perron solve fails at depth n stops there.
    """
    if any(alpha <= 1 for alpha in alphas):
        raise ModelError("alpha must be > 1")
    model._require_finite_atom()
    h_status, _ = _assumption_h_status(model)
    pcp = positive_column_probability(model)
    p = model.p
    measures = {}  # depth -> intensity measure

    def moments(alpha, n):
        """M_n(alpha), as n_step_moment_matrix forms it."""
        if n == 1:
            return moment_matrix(model, alpha)
        if n not in measures:
            measures[n] = intensity_measure(model, n, support_cap=support_cap)
        return _power_sum(measures[n].weights, measures[n].matrices, alpha)

    reports = []
    for alpha in alphas:
        quantities = {
            "E||sum_k A_k||^alpha": _norm_moment(model, alpha),
            "positive_column_probability": pcp,
            "alpha": alpha,
        }
        notes = []
        sufficient_at = None
        necessary_violated_at = None
        for n in range(1, n_max + 1):
            mn = moments(alpha, n)
            try:
                rho_n = perron(mn).rho
            except SpectralError as e:
                notes.append(f"rho_{n}(alpha) unavailable: {e}")
                break
            crit = p ** (alpha - 1) * rho_n
            quantities[f"rho_{n}(alpha)"] = rho_n
            quantities[f"p^(alpha-1)*rho_{n}(alpha)"] = crit
            if sufficient_at is None and crit < 1:
                sufficient_at = n
            if rho_n > 1 or (pcp > 0 and rho_n >= 1):
                if necessary_violated_at is None:
                    necessary_violated_at = n

        if h_status[1] != "ok":
            verdict = "not-applicable"
        elif sufficient_at is not None:
            verdict = "holds"
            notes.append(f"sufficient condition met at n={sufficient_at}")
        elif necessary_violated_at is not None:
            verdict = "fails"
            notes.append(
                f"necessary condition violated at n={necessary_violated_at}: "
                "the alpha-moment is not in (0, inf)")
        else:
            verdict = "undecided"
            notes.append(
                "neither the sufficient nor the necessary criterion resolved "
                "within the tested depths")
        if any(a.n_children == 0 for a in model.atoms):
            notes.append("model carries zero-offspring realizations")
        reports.append(ConditionReport(theorem="T2.1a", verdict=verdict,
                                       quantities=quantities,
                                       assumptions_checked=[h_status],
                                       notes=notes))
    return reports


def _min_row_sums(model):
    """Per atom: min over rows of the row sums, for each child matrix."""
    out = []
    for atom in model.atoms:
        sums = [float(np.abs(np.asarray(m)).sum(axis=1).min())
                for m in atom.matrices]
        out.append((atom.prob, sums))
    return out


def check_harmonic(model, lam):
    """Harmonic-moment criterion at order lambda > 0.

    Needs every realization to have at least one child and the law not
    concentrated on single children; the key quantities are negative
    powers of the minimal row sum of the first child matrix.
    """
    if lam <= 0:
        raise ModelError("lambda must be positive")
    model._require_finite_atom()
    assumptions = []
    pcp = positive_column_probability(model)
    assumptions.append(("positive-column-event",
                        "ok" if pcp > 0 else "fails: probability 0"))
    law = model.offspring_probabilities()
    p_n0 = law.get(0, 0.0)
    p_n1 = law.get(1, 0.0)
    assumptions.append(("no-extinction P(N=0)=0",
                        "ok" if p_n0 == 0 else f"fails: P(N=0)={p_n0}"))
    assumptions.append(("branching P(N=1)<1",
                        "ok" if p_n1 < 1 else "fails: P(N=1)=1"))

    quantities = {"lambda": lam, "P(N=0)": p_n0, "P(N=1)": p_n1,
                  "positive_column_probability": pcp}
    notes = []
    if p_n0 > 0 or p_n1 >= 1 or pcp == 0:
        return ConditionReport(theorem="T2.2", verdict="not-applicable",
                               quantities=quantities,
                               assumptions_checked=assumptions,
                               notes=["offspring-law assumptions violated"])

    atoms = _min_row_sums(model)
    zero_row = any(s == 0 for _, sums in atoms for s in sums[:1])
    if zero_row:
        quantities["E(min_row_sum(A_1))^-lambda"] = math.inf
        return ConditionReport(theorem="T2.2", verdict="fails",
                               quantities=quantities,
                               assumptions_checked=assumptions,
                               notes=["zero row sum with positive probability"])

    e_inv = sum(prob * sums[0] ** (-lam) for prob, sums in atoms)
    e_inv_n1 = sum(prob * sums[0] ** (-lam)
                   for prob, sums in atoms if len(sums) == 1)
    quantities["E(min_row_sum(A_1))^-lambda"] = e_inv
    quantities["E(min_row_sum(A_1))^-lambda;N=1"] = e_inv_n1

    m_low = model.min_offspring()
    quantities["essinf_N"] = m_low
    verdict = "holds" if e_inv_n1 < 1 else "fails"
    if verdict == "holds":
        notes.append(
            f"Laplace decay of order ||t||^-{lam}; left tail of order x^{lam}; "
            f"harmonic moments finite below order {lam}")
        if m_low > 1:
            prod_term = 0.0
            prod_ok = True
            for prob, sums in atoms:
                vals = sums[:m_low]
                if any(s == 0 for s in vals):
                    prod_ok = False
                    break
                prod_term += prob * float(np.prod([s ** (-lam) for s in vals]))
            if prod_ok:
                quantities["E prod_{k<=essinf}(min_row_sum(A_k))^-lambda"] = prod_term
                quantities["strengthened_order"] = m_low * lam
                notes.append(
                    f"strengthened conclusions at order {m_low * lam}: "
                    f"Laplace decay O(||t||^-{m_low * lam}), "
                    f"left tail O(x^{m_low * lam})")
            else:
                quantities["E prod_{k<=essinf}(min_row_sum(A_k))^-lambda"] = math.inf
    return ConditionReport(theorem="T2.2", verdict=verdict,
                           quantities=quantities,
                           assumptions_checked=assumptions, notes=notes)


def exponential_profile(model, epsilon=0.0):
    """Stretched-exponential decay profile when all early weights are
    bounded below.

    Computes the essential lower bound of the entries of the first
    essinf-N matrices, the decay exponent it implies, and the epsilon
    feasibility of the matching lower bound.
    """
    if epsilon < 0:
        raise ModelError("epsilon must be >= 0")
    model._require_finite_atom()
    assumptions = []
    pcp = positive_column_probability(model)
    assumptions.append(("positive-column-event",
                        "ok" if pcp > 0 else "fails: probability 0"))
    m_low = model.min_offspring()
    if m_low < 2:
        raise ModelError("exponential profile requires essinf N >= 2")
    p = model.p

    a_low = min(float(np.abs(np.asarray(m)).min())
                for atom in model.atoms if atom.prob > 0
                for m in atom.matrices[:m_low])
    p_nm = sum(a.prob for a in model.atoms if a.n_children == m_low)
    quantities = {"essinf_N": m_low, "a_lower": a_low, "P(N=essinf_N)": p_nm,
                  "epsilon": epsilon, "p": p}
    notes = []

    if a_low <= 0:
        verdict_a = "not-applicable"
        notes.append("zero entry among the early weights: no uniform lower bound")
    elif p_nm <= 0:
        verdict_a = "not-applicable"
        notes.append("minimal offspring count carries no probability mass")
    else:
        gamma = -math.log(m_low) / math.log(a_low * p)
        quantities["gamma"] = gamma
        if not 0 < gamma < 1:
            raise ModelError(
                f"gamma={gamma} outside (0,1): a_lower*essinf_N*p >= 1, "
                "inconsistent with a normalized primitive model")
        verdict_a = "holds"

    report_a = ConditionReport(theorem="T2.3a", verdict=verdict_a,
                               quantities=dict(quantities),
                               assumptions_checked=assumptions,
                               notes=list(notes))

    # lower-bound part: feasibility of the epsilon margin
    quantities_b = dict(quantities)
    threshold = 1.0 / (p * m_low) - a_low
    quantities_b["epsilon_threshold"] = threshold
    feasible = (a_low + epsilon) * p * m_low < 1
    quantities_b["(a_lower+eps)*p*essinf_N"] = (a_low + epsilon) * p * m_low
    event_prob = sum(
        atom.prob for atom in model.atoms
        if atom.n_children == m_low
        and all(float(np.abs(np.asarray(m)).max()) <= a_low + epsilon
                for m in atom.matrices[:m_low]))
    quantities_b["P(N=essinf_N, entries <= a_lower+eps)"] = event_prob
    if a_low > 0 and feasible:
        quantities_b["gamma(eps)"] = (-math.log(m_low)
                                      / math.log((a_low + epsilon) * p))
    verdict_b = ("holds" if a_low > 0 and feasible and event_prob > 0
                 else "not-applicable")
    report_b = ConditionReport(theorem="T2.3b", verdict=verdict_b,
                               quantities=quantities_b,
                               assumptions_checked=assumptions)
    return report_a, report_b


def check_complex(model, alpha, beta_grid=None):
    """Moment criterion for complex weights, through the modulus matrices.

    For alpha in (1,2] the test is p^(alpha-1) rho_hat(alpha) < 1; for
    alpha > 2 a beta in (1,2] must control the second-order term.  The
    two printed readings of the second-order quantity are both computed.
    """
    if alpha <= 1:
        raise ModelError("alpha must be > 1")
    if not model.is_complex:
        raise ModelError("check_complex requires a complex-mode model")
    model._require_finite_atom()
    p = model.p

    norm_moment = _norm_moment(model, alpha)
    rho_hat_alpha = perron(moment_matrix(model, alpha)).rho
    quantities = {
        "alpha": alpha,
        "E||sum_k |A_k|||^alpha": norm_moment,
        "rho_hat(alpha)": rho_hat_alpha,
        "p^(alpha-1)*rho_hat(alpha)": p ** (alpha - 1) * rho_hat_alpha,
    }
    notes = []
    assumptions = []
    hat_status, _ = _assumption_h_status(model)
    assumptions.append(hat_status)

    if alpha <= 2:
        verdict = "holds" if p ** (alpha - 1) * rho_hat_alpha < 1 else "undecided"
        return ConditionReport(theorem="T6.1", verdict=verdict,
                               quantities=quantities,
                               assumptions_checked=assumptions, notes=notes)

    if not beta_grid:
        raise ModelError("alpha > 2 requires a beta grid in (1, 2]")
    first = p ** (alpha - 1) * rho_hat_alpha
    best = None
    for beta in beta_grid:
        if not 1 < beta <= 2:
            raise ModelError(f"beta={beta} outside (1, 2]")
        rho_hat_beta = perron(moment_matrix(model, beta)).rho
        printed = p ** (alpha / beta) * rho_hat_beta
        powered = p ** (alpha / beta) * rho_hat_beta ** (alpha / beta)
        quantities[f"rho_hat({beta})"] = rho_hat_beta
        quantities[f"p^(alpha/beta)*rho_hat({beta})"] = printed
        quantities[f"p^(alpha/beta)*rho_hat({beta})^(alpha/beta)"] = powered
        if best is None or max(first, printed) < best[1]:
            best = (beta, max(first, printed), max(first, powered))
    printed_ok = best[1] < 1
    powered_ok = best[2] < 1
    quantities["best_beta"] = best[0]
    notes.append(
        "second-order readings: as-printed "
        f"{'<1' if printed_ok else '>=1'}, power-corrected "
        f"{'<1' if powered_ok else '>=1'}")
    verdict = "holds" if printed_ok else "undecided"
    return ConditionReport(theorem="T6.1", verdict=verdict,
                           quantities=quantities,
                           assumptions_checked=assumptions, notes=notes)
