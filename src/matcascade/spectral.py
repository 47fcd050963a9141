"""Perron-Frobenius data, tilted moment matrices, and exact n-step moments.

The depth-n intensity measure (expected occupation measure of the path
products) is the linear substrate: once its finite support is known,
every entrywise power sum over depth-n products is an exact weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MatcascadeError, ModelError, primitivity

POWER_TOL = 1e-13
POWER_MAXITER = 100_000
RESIDUAL_TOL = 1e-10


class SpectralError(MatcascadeError):
    """Non-primitive input or eigensolver failure."""


@dataclass
class PerronTriple:
    """Maximal eigenvalue with positive left/right eigenvectors.

    Normalized so that sum(U) = 1 and sum(U * V) = 1.
    """

    rho: float
    u: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int


@dataclass
class IntensityMeasure:
    """Weighted support of the depth-n path-product occupation measure."""

    depth: int
    weights: np.ndarray  # (m,)
    matrices: np.ndarray  # (m, p, p)

    @property
    def total_weight(self):
        return float(self.weights.sum())


def matrix_norm(a):
    """Entrywise absolute sum (the norm convention used throughout)."""
    return float(np.abs(a).sum())


def _power_iterate(mat, tol, maxiter):
    """Dominant eigenpair by power iteration from the all-ones vector."""
    p = mat.shape[0]
    v = np.full(p, 1.0 / p)
    rho = 1.0
    for it in range(1, maxiter + 1):
        w = mat @ v
        s = w.sum()
        if s <= 0:
            raise SpectralError("power iteration collapsed to zero vector")
        rho = s
        v_new = w / s
        if np.abs(v_new - v).max() <= tol:
            v = v_new
            break
        v = v_new
    else:
        raise SpectralError(
            f"power iteration did not converge within {maxiter} iterations")
    # one Rayleigh-style refinement of rho on the converged direction
    w = mat @ v
    rho = float(w.sum() / v.sum())
    return rho, v, it


def perron(mat):
    """Perron triple of a primitive nonnegative matrix.

    Deterministic: fixed all-ones start, fixed iteration schedule on the
    matrix and its transpose.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SpectralError("perron expects a square matrix")
    if not np.all(np.isfinite(mat)):
        raise SpectralError("non-finite entries")
    if np.any(mat < 0):
        raise SpectralError("negative entries")
    primitive, _ = primitivity(mat)
    if not primitive:
        raise SpectralError("matrix is not primitive")

    p = mat.shape[0]
    if p == 1:
        rho = float(mat[0, 0])
        u = np.array([1.0])
        v = np.array([1.0])
        return PerronTriple(rho=rho, u=u, v=v, residual=0.0, iterations=0)

    rho, v, it_v = _power_iterate(mat, POWER_TOL, POWER_MAXITER)
    _, u, it_u = _power_iterate(mat.T, POWER_TOL, POWER_MAXITER)

    u = u / u.sum()
    v = v / float(u @ v)
    residual = max(np.abs(u @ mat - rho * u).max(),
                   np.abs(mat @ v - rho * v).max())
    if residual > RESIDUAL_TOL * max(1.0, rho):
        raise SpectralError(
            f"Perron residual {residual:.3e} exceeds tolerance (ill-conditioned)")
    return PerronTriple(rho=rho, u=u, v=v, residual=residual,
                        iterations=max(it_v, it_u))


def _entry_power(mat, t):
    """Entrywise t-th power with the 0^t conventions.

    0^t = 0 for t > 0; t <= 0 with a zero entry is an error (0^0 is
    ambiguous and 0^t diverges for t < 0).
    """
    a = np.abs(mat) if np.iscomplexobj(mat) else np.asarray(mat, dtype=float)
    if t <= 0 and np.any(a == 0):
        raise SpectralError(f"zero entry raised to power t={t}")
    if t == 1:
        return a.copy()
    return np.power(a, t)


def moment_matrix(model, t):
    """Tilted mean matrix: E sum_k entrywise-t-power of A_k, exact.

    Complex models use the moduli of the entries.
    """
    model._require_finite_atom()
    out = np.zeros((model.p, model.p))
    for atom in model.atoms:
        for mat in atom.matrices:
            out += atom.prob * _entry_power(mat, t)
    return out


def intensity_measure(model, n, support_cap=1_000_000):
    """Exact weighted support of the depth-n path products.

    nu_1 puts weight prob on each child matrix of each atom; nu_n is the
    left-multiplication convolution of nu_1 with nu_{n-1}.  Bitwise-equal
    matrices are merged by weight (no epsilon merging).  A depth that
    would form more than support_cap products before merging is refused.
    """
    model._require_finite_atom()
    if n < 1:
        raise SpectralError("depth n must be >= 1")
    branch = sum(a.n_children for a in model.atoms)
    if branch == 0:
        raise ModelError("model has no children in any atom")

    dtype = complex if model.is_complex else float
    base_w = []
    base_m = []
    for atom in model.atoms:
        for mat in atom.matrices:
            base_w.append(atom.prob)
            base_m.append(np.asarray(mat, dtype=dtype))
    base_w = np.array(base_w)
    base_m = np.stack(base_m)

    def merge(weights, mats):
        seen: dict[bytes, int] = {}
        out_w: list[float] = []
        out_m = []
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
    for depth in range(2, n + 1):
        if branch * len(weights) > support_cap:
            raise ModelError(
                f"depth {depth} would form {branch * len(weights)} products, "
                f"exceeding cap {support_cap}; use a smaller depth")
        # left-multiply each depth-1 matrix onto the accumulated products
        new_w = np.multiply.outer(base_w, weights).reshape(-1)
        new_m = np.einsum("apq,mqr->ampr", base_m, mats).reshape(-1, model.p, model.p)
        weights, mats = merge(new_w, new_m)
    return IntensityMeasure(depth=n, weights=weights, matrices=mats)


def n_step_moment_matrix(model, t, n, support_cap=1_000_000):
    """Exact E sum over depth-n nodes of entrywise t-powers of the products.

    For n = 1 this equals moment_matrix(model, t) exactly; its Perron
    triple carries the depth-n eigendata.
    """
    if n == 1:
        return moment_matrix(model, t)
    nu = intensity_measure(model, n, support_cap=support_cap)
    out = np.zeros((model.p, model.p))
    for w, m in zip(nu.weights, nu.matrices):
        out += w * _entry_power(m, t)
    return out
