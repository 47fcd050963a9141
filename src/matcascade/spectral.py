"""Perron-Frobenius data, tilted moment matrices, and exact n-step moments.

The depth-n intensity measure (expected occupation measure of the path
products) is the linear substrate: once its finite support is known,
every entrywise power sum over depth-n products is an exact weighted sum.
One build gives every depth up to n: each level is formed from the one
below and links down to depth 1, the child stack itself.  The support is
merged bitwise, in order of first occurrence, by array operations, and
every mean or moment matrix is one weighted power sum over a stack of
matrices, added in stack order.

A level's products are formed per depth-1 child by p^2 multiply-add
passes over column copies of the level below, summed over q in order from
zero, as np.einsum sums them, so the bits are einsum's.  A power sum
streams the stack through one buffer of SUM_BLOCK rows: each block is
raised, scaled by its weights and accumulated in order onto the running
sum, so no second array of the stack's size is made.

The deepest level a caller asks for feeds only power sums, and a power
sum does not depend on whether equal products are merged first, so that
level is never merged or stored: _deepest_power_sums forms it in blocks
of SUM_BLOCK products, in the order the build forms them, and raises each
block to every order as it forms it.  Its sums equal those over the
merged level up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MatcascadeError, primitivity

POWER_TOL = 1e-13
POWER_MAXITER = 5_000  # plain steps before the squarings of the shifted matrix
POWER_SQUARINGS = 64
RESIDUAL_TOL = 1e-10
SUPPORT_CAP = 1_000_000  # most products one intensity-measure depth may form
SUM_BLOCK = 4096  # matrices a power sum raises and adds per pass
# odd, so its powers, the per-word multipliers of _merge's hash, are invertible
# modulo 2^64: two rows that differ in one word hash differently
HASH_BASE = 0x9E3779B97F4A7C15


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
    below: IntensityMeasure | None  # the depth-(n-1) level; None at depth 1


def matrix_norm(a):
    """Entrywise absolute sum (the norm convention used throughout)."""
    return float(np.abs(a).sum())


def _power_iterate(mat):
    """(v, steps): the dominant eigenvector by power iteration from the
    all-ones vector, or (None, POWER_MAXITER) if it has not converged."""
    p = mat.shape[0]
    v = np.full(p, 1.0 / p)
    for it in range(1, POWER_MAXITER + 1):
        w = mat @ v
        s = w.sum()
        if s <= 0:
            raise MatcascadeError("power iteration collapsed to zero vector")
        v_new = w / s
        if np.abs(v_new - v).max() <= POWER_TOL:
            return v_new, it
        v = v_new
    return None, POWER_MAXITER


def _dominant_pair(mat):
    """(rho, v, steps) of a primitive matrix: v by power iteration, rho by
    one Rayleigh-style step on it.

    When the second eigenvalue is close to rho in modulus, the plain steps
    do not converge.  Then v comes from repeated squaring of
    B = mat / max + s I, s its mean row sum: B has the same eigenvectors,
    its Perron root dominates a second eigenvalue near -rho by a margin,
    and k squarings take 2^k steps, enough for one near +rho too.
    """
    v, steps = _power_iterate(mat)
    if v is None:
        b = mat / mat.max()
        b = b + b.sum() / len(b) * np.eye(len(b))
        v = np.full(len(b), 1.0 / len(b))
        for k in range(1, POWER_SQUARINGS + 1):
            b = b @ b
            b /= b.sum()
            v_new = b.sum(axis=1)
            if np.abs(v_new - v).max() <= POWER_TOL:
                break
            v = v_new
        else:
            raise MatcascadeError("power iteration did not converge within "
                                  f"{POWER_SQUARINGS} squarings")
        v, steps = v_new, steps + k
    w = mat @ v
    return float(w.sum() / v.sum()), v, steps


def perron(mat):
    """Perron triple of a primitive nonnegative matrix.

    Deterministic: fixed all-ones start, fixed iteration schedule on the
    matrix and its transpose.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MatcascadeError("perron expects a square matrix")
    if not np.all(np.isfinite(mat)):
        raise MatcascadeError("non-finite entries")
    if np.any(mat < 0):
        raise MatcascadeError("negative entries")
    primitive, _ = primitivity(mat)
    if not primitive:
        raise MatcascadeError("matrix is not primitive")

    rho, v, it_v = _dominant_pair(mat)
    _, u, it_u = _dominant_pair(mat.T)

    u = u / u.sum()
    v = v / float(u @ v)
    residual = max(np.abs(u @ mat - rho * u).max(),
                   np.abs(mat @ v - rho * v).max())
    if residual > RESIDUAL_TOL * max(1.0, rho):
        raise MatcascadeError(
            f"Perron residual {residual:.3e} exceeds tolerance (ill-conditioned)")
    return PerronTriple(rho=rho, u=u, v=v, residual=residual,
                        iterations=max(it_v, it_u))


def _entry_power(mat, t, out):
    """Entrywise t-th power of mat (of its moduli when complex), written
    into out, a float array of mat's shape, and returned.

    0^t = 0 for t > 0; t <= 0 with a zero entry is an error (0^0 is
    ambiguous and 0^t diverges for t < 0).  A power that overflows is
    inf, which perron then refuses.
    """
    a = np.abs(mat, out=out) if np.iscomplexobj(mat) else mat
    if t <= 0 and np.any(a == 0):
        raise MatcascadeError(f"zero entry raised to power t={t}")
    with np.errstate(over="ignore"):
        return np.power(a, t, out=out)


def _child_stack(model):
    """Atom probability and matrix of every child of every atom, in atom
    order: the depth-1 intensity measure before merging."""
    model._require_finite_atom()
    atoms = model.atoms
    return (np.repeat([a.prob for a in atoms], [a.n_children for a in atoms]),
            np.concatenate([a.matrices for a in atoms]))


def _power_sum(weights, mats, t, start=None):
    """sum_i weights[i] * mats[i]^t, entrywise powers, added in index order
    onto start (a (p, p) running sum), or onto a zero matrix.

    The running sum is row 0 of a (SUM_BLOCK + 1, p^2) buffer.  Each block
    of SUM_BLOCK matrices is raised into the rows after it and scaled in
    place, and an accumulation down the buffer adds the rows in order, for
    every p (a sum over axis 0 would add one column pairwise); its last row
    is carried to row 0 for the next block.
    """
    n, p = mats.shape[:2]
    buf = np.zeros((min(n, SUM_BLOCK) + 1, p * p))
    if start is not None:
        buf[0] = start.reshape(p * p)
    for i in range(0, n, SUM_BLOCK):
        block = mats[i:i + SUM_BLOCK]
        rows = buf[:len(block) + 1]
        _entry_power(block, t, rows[1:].reshape(block.shape))
        rows[1:] *= weights[i:i + SUM_BLOCK, None]
        np.add.accumulate(rows, axis=0, out=rows)
        buf[0] = rows[-1]
    return buf[0].reshape(p, p).copy()


def moment_matrix(model, t):
    """Tilted mean matrix: E sum_k entrywise-t-power of A_k, exact.

    Complex models use the moduli of the entries.
    """
    return _power_sum(*_child_stack(model), t)


def _hashes(mats):
    """One uint64 per matrix: its 64-bit words weighted by the powers of
    HASH_BASE and added modulo 2^64, so bitwise-equal matrices hash equal."""
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2])
    words = flat.view(np.uint64)
    multipliers = np.uint64(HASH_BASE) ** np.arange(1, words.shape[1] + 1,
                                                    dtype=np.uint64)
    return words @ multipliers  # wraps modulo 2^64


def _merge(weights, mats):
    """Sum the weights of bitwise-equal matrices.

    The support keeps the order of first occurrence, and each weight adds
    its terms in input order.  When no two matrices hash equal, none are
    equal (equal bits hash equal), and the input is returned unchanged:
    the merge would give the same arrays, sorting 72-byte keys (p = 3) to
    find that out.
    """
    hashes = _hashes(mats)
    hashes.sort()
    if not (hashes[1:] == hashes[:-1]).any():
        return weights, mats
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2])
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # groups by first occurrence
    merged = np.zeros(len(first))
    np.add.at(merged, np.argsort(order)[group], weights)
    return merged, mats[first[order]]


def _left_products(base, mats):
    """base[a] @ mats[i] for every a and i, a-major, as a C-contiguous
    (len(base) * len(mats), p, p) stack: the bits of
    np.einsum("apq,mqr->ampr", base, mats).

    Each entry is a sum over q, in order, onto zero, of base[a, i, q] times
    the column copy of mats[:, q, r], one long array pass per (i, q); a
    complex term is re = ar br - ai bi, im = ar bi + ai br, as einsum
    forms it.
    """
    count, p = base.shape[:2]
    m = len(mats)
    parts = (mats.real, mats.imag) if np.iscomplexobj(mats) else (mats,)
    cols = np.array([x.transpose(1, 2, 0) for x in parts])  # (part, q, r, m)
    out = np.empty((count, m, p, p), mats.dtype)
    out_parts = out.view(np.float64).reshape(count, m, p, p, len(parts))
    block = np.empty((len(parts), p, p, m))
    for a in range(count):
        block.fill(0.0)
        for i in range(p):
            for q in range(p):
                x = base[a, i, q]
                if len(parts) == 1:
                    block[0, i] += x * cols[0, q]
                else:
                    block[0, i] += x.real * cols[0, q] - x.imag * cols[1, q]
                    block[1, i] += x.real * cols[1, q] + x.imag * cols[0, q]
        out_parts[a] = block.transpose(3, 1, 2, 0)
    return out.reshape(count * m, p, p)


def _check_cap(depth, formed):
    if formed > SUPPORT_CAP:
        raise MatcascadeError(
            f"depth {depth} would form {formed} products, "
            f"exceeding cap {SUPPORT_CAP}; use a smaller depth")


def intensity_measure(model, n):
    """Exact weighted support of the depth-n path products, each shallower
    depth linked below it.

    nu_1 is the child stack in atom order, unmerged, so its power sums are
    moment_matrix's; nu_d left-multiplies each matrix of that stack onto
    each product of the merged nu_{d-1} (len(stack) * len(nu_{d-1})
    products) and merges bitwise-equal ones by weight (no epsilon merging)
    in order of first occurrence, refusing more than SUPPORT_CAP products.
    """
    base_w, base_m = _child_stack(model)
    if n < 1:
        raise MatcascadeError("depth n must be >= 1")
    nu = IntensityMeasure(depth=1, weights=base_w, matrices=base_m, below=None)
    weights, mats = _merge(base_w, base_m)
    for depth in range(2, n + 1):
        _check_cap(depth, len(base_w) * len(weights))
        # left-multiply each depth-1 matrix onto the accumulated products
        new_w = np.multiply.outer(base_w, weights).reshape(-1)
        weights, mats = _merge(new_w, _left_products(base_m, mats))
        nu = IntensityMeasure(depth=depth, weights=weights, matrices=mats, below=nu)
    return nu


def _deepest_power_sums(model, ts, n):
    """(below, sums, nonzero): below is intensity_measure(model, n - 1)
    (None when n = 1), sums the depth-n power sum at each order in ts, and
    nonzero whether any depth-n product is nonzero.

    Depth n is never merged or stored: it is formed in blocks, each one
    depth-1 child times a SUM_BLOCK slice of level n - 1 as the build
    stores it (the unmerged child stack when n = 2), and each block is
    raised to every order onto that order's running sum.  The sums equal
    those over the merged intensity_measure(model, n) up to rounding.
    SUPPORT_CAP applies to the products formed at depth n.
    """
    base_w, base_m = _child_stack(model)
    if n < 1:
        raise MatcascadeError("depth n must be >= 1")
    if n == 1:
        return None, [_power_sum(base_w, base_m, t) for t in ts], base_m.any()
    below = intensity_measure(model, n - 1)
    weights, mats = below.weights, below.matrices
    _check_cap(n, len(base_w) * len(weights))
    sums = [np.zeros((model.p, model.p)) for _ in ts]
    nonzero = False
    for a in range(len(base_w)):
        for i in range(0, len(weights), SUM_BLOCK):
            block = _left_products(base_m[a:a + 1], mats[i:i + SUM_BLOCK])
            block_w = base_w[a] * weights[i:i + SUM_BLOCK]
            nonzero = nonzero or block.any()
            sums = [_power_sum(block_w, block, t, s) for t, s in zip(ts, sums)]
    return below, sums, nonzero


def n_step_moment_matrix(model, t, n):
    """Exact E sum over depth-n nodes of entrywise t-powers of the products.

    For n = 1 this is moment_matrix(model, t), bit for bit; its Perron
    triple carries the depth-n eigendata.  The depth-n level is streamed,
    never merged or stored (see _deepest_power_sums), so the sum equals
    that over the merged level up to rounding; SUPPORT_CAP still bounds
    the products it forms.
    """
    return _deepest_power_sums(model, [t], n)[1][0]
