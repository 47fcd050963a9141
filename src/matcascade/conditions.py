"""Exact evaluation of the moment-criterion hypotheses for finite-atom models.

Every quantity here is a finite sum or an eigenvalue of an exactly
computed matrix, so reports are deterministic and reproducible.  The
alpha-moment criteria of several orders are checked in one call, which
builds one intensity measure, to depth n_max - 1, reads rho_n(alpha) for
every order off its levels, and streams depth n_max once for all orders.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import (NORM_CONVENTION, RHO_TOL, ConditionReport,
                    MatcascadeError, offspring_law, validate_model)
from .spectral import (_deepest_power_sums, _power_sum, matrix_norm,
                       moment_matrix, perron)


def _assumption_h_status(model, validation=None):
    """The assumption-H row of a report, read off validation (the model's
    validate_model row) when the caller has already built it."""
    verdict = (validation or validate_model(model)).verdict
    return ("assumption-H", "ok" if verdict == "holds" else verdict)


def offspring_law_assumptions(items):
    """(P(N=0), P(N=1), rows) for the offspring law of items (model atoms
    or walk configurations): the no-extinction and branching hypotheses
    that T2.2 and C2.4b share."""
    law = offspring_law(items)
    p_n0 = law.get(0, 0.0)
    p_n1 = law.get(1, 0.0)
    return p_n0, p_n1, [
        ("no-extinction P(N=0)=0", "ok" if p_n0 == 0 else f"fails: P(N=0)={p_n0}"),
        ("branching P(N=1)<1", "ok" if p_n1 < 1 else "fails: P(N=1)=1"),
    ]


def positive_column_probability(model):
    """Exact probability that every drawn matrix has an all-positive column.

    For realizations with no children the event holds vacuously.
    """
    model._require_finite_atom()
    return sum((a.prob for a in model.atoms
                if (np.abs(a.matrices) > 0).all(axis=1).any(axis=1).all()), 0.0)


def _power(x, e):
    """float(x) ** e for x > 0, inf where that overflows."""
    try:
        return float(x) ** e
    except OverflowError:
        return math.inf


def _norm_moment(model, alpha):
    """E ||sum_k |A_k|||^alpha, an exact finite sum over the atoms, each
    sum_k |A_k| added in stack order."""
    return sum(a.prob * _power(matrix_norm(
        _power_sum(np.ones(a.n_children), a.matrices, 1)), alpha)
        for a in model.atoms)


def _solved_rho(mat, name, mat_name, nonzero, notes):
    """perron(mat).rho, or None with a note naming why not: mat (named
    mat_name) is the zero matrix only in floats, since nonzero says some
    product it sums is nonzero, or its Perron solve failed."""
    if nonzero and not mat.any():
        notes.append(f"{name} unavailable: {mat_name} underflows to the "
                     "zero matrix")
        return None
    try:
        return perron(mat).rho
    except MatcascadeError as e:
        notes.append(f"{name} unavailable: {e}")
        return None


def check_alpha_moments(model, alphas, n_max=3, validation=None):
    """Sufficient and necessary moment criteria at each order alpha > 1.

    Sufficient side: some depth n <= n_max has p^(alpha-1) rho_n(alpha) < 1.
    Necessary side (contrapositive diagnostic): finiteness forces
    rho_n(alpha) <= 1 for all n, strictly when the positive-column event
    has positive probability.  Verdict "undecided" covers the gap.

    Returns one report per alpha, in the given order.  The intensity
    measure is built once, to depth n_max - 1, and every alpha reads all
    its levels; depth n_max is formed once and raised to every alpha as it
    is formed, never merged or stored, so its sums equal those over the
    merged level up to rounding.  With no alpha,
    nothing is built.  An alpha whose Perron solve fails at depth n stops
    there.
    validation, the model's validate_model row if the caller has
    one, saves validating the model again.
    """
    if not all(1 < alpha < math.inf for alpha in alphas):
        raise MatcascadeError("alpha must be > 1 and finite")
    if n_max < 1:
        raise MatcascadeError("n_max must be >= 1")
    model._require_finite_atom()
    if not alphas:  # no order asked for: nothing to validate or build
        return []
    h_status = _assumption_h_status(model, validation)
    pcp = positive_column_probability(model)
    p = model.p
    below, deepest, deepest_nonzero = _deepest_power_sums(model, alphas, n_max)
    levels = []  # depths 1 to n_max - 1
    while below is not None:
        levels.insert(0, below)
        below = below.below
    nonzero = [nu.matrices.any() for nu in levels] + [deepest_nonzero]

    reports = []
    for alpha, m_deepest in zip(alphas, deepest):
        quantities = {
            "E||sum_k A_k||^alpha": _norm_moment(model, alpha),
            "positive_column_probability": pcp,
            "alpha": alpha,
        }
        notes = []
        sufficient_at = None
        necessary_violated_at = None
        sums = itertools.chain(
            (_power_sum(nu.weights, nu.matrices, alpha) for nu in levels),
            [m_deepest])
        for n, (m_n, nonzero_n) in enumerate(zip(sums, nonzero), start=1):
            rho_n = _solved_rho(m_n, f"rho_{n}(alpha)", f"M_{n}(alpha)",
                                nonzero_n, notes)
            if rho_n is None:
                break
            crit = _power(p, alpha - 1) * rho_n
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
    """Per atom: its probability and, for each child matrix, the least of
    its row sums."""
    return [(a.prob, np.abs(a.matrices).sum(axis=2).min(axis=1).tolist())
            for a in model.atoms]


def check_harmonic(model, lam):
    """Harmonic-moment criterion at order lambda > 0.

    Needs every realization to have at least one child and the law not
    concentrated on single children; the key quantities are negative
    powers of the minimal row sum of the first child matrix.
    """
    if not 0 < lam < math.inf:
        raise MatcascadeError("lambda must be positive and finite")
    model._require_finite_atom()
    pcp = positive_column_probability(model)
    p_n0, p_n1, law_rows = offspring_law_assumptions(model.atoms)
    assumptions = [("positive-column-event",
                    "ok" if pcp > 0 else "fails: probability 0"), *law_rows]
    quantities = {"lambda": lam, "P(N=0)": p_n0, "P(N=1)": p_n1,
                  "positive_column_probability": pcp}
    notes = []
    atoms = _min_row_sums(model)
    if p_n0 > 0 or p_n1 >= 1 or pcp == 0:
        verdict = "not-applicable"
        notes.append("offspring-law assumptions violated")
    elif any(s == 0 for _, sums in atoms for s in sums[:1]):
        verdict = "fails"
        quantities["E(min_row_sum(A_1))^-lambda"] = math.inf
        notes.append("zero row sum with positive probability")
    else:
        e_inv = sum(prob * _power(sums[0], -lam) for prob, sums in atoms)
        e_inv_n1 = sum(prob * _power(sums[0], -lam)
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
        if verdict == "holds" and m_low > 1:
            prod_ok = all(all(sums[:m_low]) for _, sums in atoms)
            if prod_ok:
                # in atom order, each product in child order
                prod_term = sum((prob * math.prod(_power(s, -lam) for s in sums[:m_low])
                                 for prob, sums in atoms), 0.0)
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
    if not 0 <= epsilon < math.inf:
        raise MatcascadeError("epsilon must be >= 0 and finite")
    model._require_finite_atom()
    assumptions = []
    pcp = positive_column_probability(model)
    assumptions.append(("positive-column-event",
                        "ok" if pcp > 0 else "fails: probability 0"))
    m_low = model.min_offspring()
    p = model.p
    if m_low < 2:
        assumptions.append(("essinf N >= 2", f"fails: essinf N={m_low}"))
        quantities = {"essinf_N": m_low, "epsilon": epsilon, "p": p}
        return tuple(ConditionReport(theorem, "not-applicable", quantities,
                                     assumptions) for theorem in ("T2.3a", "T2.3b"))

    a_low = min(float(np.abs(a.matrices[:m_low]).min())
                for a in model.atoms if a.prob > 0)
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
    elif a_low * p * m_low > 1 + RHO_TOL:
        # rho(M) >= min row sum of M >= a_lower*p*essinf_N, so this breaks
        # assumption H
        verdict_a = "not-applicable"
        notes.append("a_lower*p*essinf_N > 1: the mean matrix has rho > 1")
    else:
        # at a_lower*p*essinf_N = 1 every early entry is 1/(p*essinf_N),
        # Y = V and the decay is exactly exponential: gamma = 1
        quantities["gamma"] = min(1.0, -math.log(m_low) / math.log(a_low * p))
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
    event_prob = sum(a.prob for a in model.atoms if a.n_children == m_low
                     and np.abs(a.matrices).max() <= a_low + epsilon)
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


def check_complex(model, alpha, beta_grid=None, validation=None):
    """Moment criterion for complex weights, through the modulus matrices.

    For alpha in (1,2] the test is p^(alpha-1) rho_hat(alpha) < 1; for
    alpha > 2 a beta in (1,2] must control the second-order term.  The
    two printed readings of the second-order quantity are both computed.
    A failed Perron solve, or a moment matrix that underflows to zero, is
    noted on the row: of M(alpha), it leaves the row undecided; of
    M(beta), it drops that beta.
    validation is as for check_alpha_moments.
    """
    if not 1 < alpha < math.inf:
        raise MatcascadeError("alpha must be > 1 and finite")
    if not model.is_complex:
        raise MatcascadeError("check_complex requires a complex-mode model")
    if alpha > 2 and not beta_grid:
        raise MatcascadeError("alpha > 2 requires a beta grid in (1, 2]")
    for beta in beta_grid or ():
        if not 1 < beta <= 2:
            raise MatcascadeError(f"beta={beta} outside (1, 2]")
    model._require_finite_atom()
    p = model.p

    quantities = {
        "alpha": alpha,
        "E||sum_k |A_k|||^alpha": _norm_moment(model, alpha),
    }
    notes = []
    assumptions = [_assumption_h_status(model, validation)]

    def report(verdict):
        return ConditionReport(theorem="T6.1", verdict=verdict,
                               quantities=quantities,
                               assumptions_checked=assumptions, notes=notes)

    nonzero = any(a.matrices.any() for a in model.atoms)
    rho_hat_alpha = _solved_rho(moment_matrix(model, alpha), "rho_hat(alpha)",
                                "M(alpha)", nonzero, notes)
    if rho_hat_alpha is None:
        return report("undecided")
    first = _power(p, alpha - 1) * rho_hat_alpha
    quantities["rho_hat(alpha)"] = rho_hat_alpha
    quantities["p^(alpha-1)*rho_hat(alpha)"] = first
    if alpha <= 2:
        return report("holds" if first < 1 else "undecided")

    best = None
    for beta in beta_grid:
        rho_hat_beta = _solved_rho(moment_matrix(model, beta),
                                   f"rho_hat({beta})", f"M({beta})", nonzero,
                                   notes)
        if rho_hat_beta is None:
            continue
        printed = _power(p, alpha / beta) * rho_hat_beta
        powered = _power(p, alpha / beta) * _power(rho_hat_beta, alpha / beta)
        quantities[f"rho_hat({beta})"] = rho_hat_beta
        quantities[f"p^(alpha/beta)*rho_hat({beta})"] = printed
        quantities[f"p^(alpha/beta)*rho_hat({beta})^(alpha/beta)"] = powered
        if best is None or max(first, printed) < best[1]:
            best = (beta, max(first, printed), max(first, powered))
    if best is None:
        return report("undecided")
    printed_ok = best[1] < 1
    powered_ok = best[2] < 1
    quantities["best_beta"] = best[0]
    notes.append(
        "second-order readings: as-printed "
        f"{'<1' if printed_ok else '>=1'}, power-corrected "
        f"{'<1' if powered_ok else '>=1'}")
    return report("holds" if printed_ok else "undecided")
