"""Define a matrix-weighted cascade model, validate it, and run the
moment-existence condition checks.

Run:  python3 demos/01_model_and_conditions.py
"""

import numpy as np

from matcascade.conditions import (check_alpha_moments, check_harmonic,
                                   exponential_profile)
from matcascade.model import model_from_dict, validate_model
from matcascade.spectral import moment_matrix, perron

# a 2-dimensional cascade: one offspring realization with two children,
# each carrying a positive 2x2 weight matrix.  The mean matrix
# M = E sum_k A_k has spectral radius exactly 1.
DOC = {
    "p": 2,
    "atoms": [{"prob": 1.0, "matrices": [
        [[0.3, 0.2], [0.1, 0.4]],
        [[0.2, 0.3], [0.4, 0.1]]]}],
}

model = model_from_dict(DOC)
report = validate_model(model)
print("validation:", "ok" if report.holds else "FAILED")
print("  primitive:", report.primitive,
      f"(exponent {report.primitivity_exponent})")
print("  normalization:", report.assumption_h)

triple = perron(model.mean_matrix())
print(f"\nmean matrix spectral radius rho = {triple.rho:.15f}")
print("left eigenvector  u =", triple.u)
print("right eigenvector V =", triple.v)

# does E ||Y||^alpha stay bounded?  The sufficient criterion compares the
# dominant eigenvalue of the alpha-tilted moment matrix against p^(1-alpha).
alphas = (1.5, 2.0, 3.0)
for alpha, rep in zip(alphas, check_alpha_moments(model, alphas)):
    crit = rep.quantities["p^(alpha-1)*rho_1(alpha)"]
    print(f"\nalpha = {alpha}: verdict {rep.verdict} "
          f"(criterion value {crit:.4f}, needs < 1)")
    rho_a = perron(moment_matrix(model, alpha)).rho
    print(f"  tilted spectral radius rho({alpha}) = {rho_a:.6f}")

# negative moments of the total mass, via minimal row sums
rep = check_harmonic(model, 1.0)
print(f"\nharmonic moment (lambda = 1): {rep.verdict}")
for key, val in rep.quantities.items():
    print(f"  {key} = {val}")

# left-tail profile: stretched-exponential decay rate of the mass near 0
rep_a, rep_b = exponential_profile(model, epsilon=0.05)
print(f"\nleft-tail profile: upper part {rep_a.verdict}, "
      f"lower part {rep_b.verdict}")
print(f"  gamma = {rep_a.quantities['gamma']:.6f}")
