"""Estimators over sample batches: moments, harmonic moments, Laplace
transform decay fits, tail curves, and the fixed-point distributional check.

All estimators target the depth-n martingale value at a user-chosen n;
stability across nearby n is the honest surrogate for statements about
the almost-sure limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import simulate_batch
from .model import MatcascadeError

R2_THRESHOLD = 0.98  # a decay fit below this r^2 is flagged as a family mismatch
FIXED_POINT_T_SCALES = (0.1, 0.3, 1.0, 3.0)  # Laplace residual grid, times ones


@dataclass
class MomentEstimate:
    order: float
    target: str  # "norm", "coord:<i>", or "proj:<vector>"
    point: float
    stderr: float
    ci95: tuple
    n: int
    replicates: int
    heavy_tail_flag: bool = False
    infinite_count: int = 0
    bias_note: str | None = None


@dataclass
class DecayFit:
    kind: str  # "power" | "stretched-exponential"
    exponent: float
    intercept: float
    grid: list  # (norm_t, phi) pairs actually regressed
    r2: float
    window: tuple
    r2_flag: bool = False  # set when r2 < R2_THRESHOLD (fit family mismatch)


@dataclass
class TailPoint:
    x: float
    cdf: float
    wilson_low: float
    wilson_high: float
    ratio: float  # cdf / x^lambda
    flagged: bool  # below the Monte Carlo resolution floor


@dataclass
class FixedPointReport:
    n: int
    replicates: int
    ks: dict  # projection label -> (statistic, pvalue)
    laplace_residual: float
    min_pvalue: float


def _target_values(batch, target):
    vals = batch.ok_values()
    if np.iscomplexobj(vals):
        raise MatcascadeError("real-mode estimator applied to a complex batch")
    if isinstance(target, str) and target == "norm":
        return np.abs(vals).sum(axis=1), "norm"
    if isinstance(target, int):
        return vals[:, target], f"coord:{target}"
    y = np.asarray(target, dtype=float)
    if y.shape != (batch.p,):
        raise MatcascadeError(f"projection vector must have length {batch.p}")
    return vals @ y, "proj:" + ",".join(repr(float(c)) for c in y)


def _heavy_tail_flag(g):
    """Whether the top 10 order statistics carry more than half of the
    sample sum; always when a term is infinite.  The terms are divided by
    the largest first, so a finite sample whose sum overflows is judged
    by the same share."""
    if g.size <= 10:
        return False
    g = np.sort(g)
    if g[-1] == np.inf:
        return True
    if not g[-1] > 0:
        return False
    g = g / g[-1]
    total = g.sum()
    return bool(total > 0 and g[-10:].sum() > 0.5 * total)


def _sample_mean(base, order, label, n, **extra):
    """Mean of the sample base^order with its CLT standard error, 95 %
    interval and heavy-tail flag.  Past the float range a value is inf, with
    no warning; an inf mean has stderr inf, and then ci95 is (-inf, inf)."""
    with np.errstate(over="ignore"):
        g = base ** order
        point = float(g.mean())
        stderr = (np.inf if point == np.inf else float(g.std(ddof=1) / np.sqrt(g.size))
                  if g.size > 1 else 0.0)
        flag = _heavy_tail_flag(g)
    half = 1.96 * stderr
    return MomentEstimate(
        order=order, target=label, point=point, stderr=stderr,
        ci95=(point - half, point + half) if half < np.inf else (-np.inf, np.inf),
        n=n, replicates=int(g.size), heavy_tail_flag=flag, **extra)


def estimate_moment(batch, alpha, target="norm"):
    """Sample alpha-moment of a projection of the batch values.

    target: "norm" (L1 norm), an integer coordinate, or a projection
    vector.  Standard error is the CLT estimate from the sample variance.
    """
    if not 0 < alpha < np.inf:
        raise MatcascadeError("alpha must be positive and finite")
    base, label = _target_values(batch, target)
    if base.size == 0:
        raise MatcascadeError("empty batch")
    return _sample_mean(base, alpha, label, batch.n)


def estimate_harmonic(batch, lam, y):
    """Sample mean of (y . Y_n)^(-lambda) over surviving replicates.

    Zero projections (extinct replicates) would make the integrand
    infinite; they are excluded and counted, and the estimate is flagged
    as conditionally biased.
    """
    if not 0 < lam < np.inf:
        raise MatcascadeError("lambda must be positive and finite")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or not np.any(y > 0):
        raise MatcascadeError("y must be nonnegative and nonzero")
    base, label = _target_values(batch, y)
    finite_mask = base > 0
    inf_count = int((~finite_mask).sum())
    if not finite_mask.any():
        raise MatcascadeError("no surviving replicates for harmonic estimate")
    note = None
    if inf_count:
        note = (f"{inf_count} infinite term(s) excluded; estimate is "
                "conditional on survival and biased low")
    return _sample_mean(base[finite_mask], -lam, label, batch.n,
                        infinite_count=inf_count, bias_note=note)


def estimate_laplace(batch, t_grid):
    """Empirical Laplace transform: mean of exp(-t . Y_n) per grid point."""
    t_grid = [np.asarray(t, dtype=float) for t in t_grid]
    if not t_grid:
        raise MatcascadeError("empty grid")
    vals = batch.ok_values()
    if np.iscomplexobj(vals):
        raise MatcascadeError("Laplace estimator needs a real-mode batch")
    if not len(vals):
        raise MatcascadeError("empty batch")
    out = []
    for t in t_grid:
        if t.shape != (batch.p,):
            raise MatcascadeError(f"grid vectors must have length {batch.p}")
        out.append((t, float(np.exp(-(vals @ t)).mean())))
    return out


def _loglog_fit(xs, ys):
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _curve_window(curve, lo, hi):
    pts = [(float(np.abs(np.asarray(t, dtype=float)).sum()), float(phi))
           for t, phi in curve]
    pts.sort(key=lambda q: q[0])
    return [(s, phi) for s, phi in pts if lo <= phi <= hi]


def _decay_fit(curve, replicates, kind, floor, upper, transform, sign):
    """Least-squares transform(phi) vs log ||t|| inside the window phi in
    [max(10/R, floor), upper]; the exponent is sign times the slope."""
    window = (max(10.0 / replicates, floor) if replicates else floor, upper)
    pts = _curve_window(curve, *window)
    if len(pts) < 5:
        raise MatcascadeError(
            f"only {len(pts)} grid points inside window {window}; "
            "enlarge the grid or the batch")
    xs = np.log(np.array([s for s, _ in pts]))
    ys = transform(np.array([phi for _, phi in pts]))
    slope, intercept, r2 = _loglog_fit(xs, ys)
    return DecayFit(kind=kind, exponent=sign * slope, intercept=intercept,
                    grid=pts, r2=r2, window=window,
                    r2_flag=bool(r2 < R2_THRESHOLD))


def fit_power_decay(curve, replicates=None):
    """log phi vs log ||t|| for phi in [max(10/R, 1e-4), 0.5]; the
    exponent is minus the slope."""
    return _decay_fit(curve, replicates, "power", 1e-4, 0.5, np.log, -1.0)


def fit_stretched_exponential(curve, replicates=None):
    """log(-log phi) vs log ||t|| for phi in [max(10/R, 1e-5), 0.2]; the
    slope is the stretching exponent."""
    return _decay_fit(curve, replicates, "stretched-exponential", 1e-5, 0.2,
                      lambda phi: np.log(-np.log(phi)), 1.0)


def _wilson(k, n):
    z = 1.96  # 95 % interval
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def tail_curve(batch, y, x_grid, lam):
    """Empirical left-tail CDF of y . Y_n with Wilson intervals.

    The ratio column cdf / x^lambda supports the boundedness check of the
    tail-order prediction; points with fewer than 10 hits are flagged as
    below Monte Carlo resolution.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.diff(x_grid) <= 0) or np.any(x_grid <= 0):
        raise MatcascadeError("x grid must be positive and increasing")
    proj, _ = _target_values(batch, np.asarray(y, dtype=float))
    n = proj.size
    if n == 0:
        raise MatcascadeError("empty batch")
    out = []
    for x in x_grid:
        k = int((proj <= x).sum())
        lo, hi = _wilson(k, n)
        cdf = k / n
        out.append(TailPoint(x=float(x), cdf=cdf, wilson_low=lo, wilson_high=hi,
                             ratio=cdf / x**lam, flagged=bool(k < 10)))
    return out


def tail_slope_test(points, level=0.05):
    """One-sided test for upward drift of the ratio as x decreases.

    Regresses log ratio on log x over resolvable points; a significantly
    negative slope means the ratio grows as x -> 0 (tail heavier than
    x^lambda).  Returns (drift_detected, slope, pvalue).
    """
    from scipy import stats  # deferred: slow to import, and no CLI command needs it

    usable = [q for q in points if not q.flagged and q.ratio > 0]
    if len(usable) < 3:
        raise MatcascadeError("too few resolvable points for the slope test")
    xs = np.log([q.x for q in usable])
    ys = np.log([q.ratio for q in usable])
    res = stats.linregress(xs, ys)
    one_sided = res.pvalue / 2 if res.slope < 0 else 1.0 - res.pvalue / 2
    return bool(res.slope < 0 and one_sided < level), float(res.slope), float(one_sided)


def _default_projections(p):
    labels = {}
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        labels[f"e{i+1}"] = e
    labels["ones"] = np.ones(p)
    return labels


def fixed_point_check(model, n, replicates, seed, skip_root_weights=False):
    """Two-sample check of the distributional fixed-point recursion.

    Batch B1 draws the depth-n value directly; batch B2, on an independent
    stream, draws the depth-(n+1) value, i.e. grafts one extra generation
    at the root: sum_k A_k . (depth-n value of an independent subtree).
    Matching laws is the recursion property.  Kolmogorov-Smirnov
    statistics are reported per projection, and the Laplace residual is
    the sup over the grid s * (1, ..., 1), s in FIXED_POINT_T_SCALES, of
    |phi_B1(t) - phi_B2(t)|: since E prod_k phi_n(A_k^T t) = phi_{n+1}(t),
    it is the empirical functional-equation residual, whatever the law.

    skip_root_weights replaces B2's root matrices by the identity (a
    seeded corruption used to verify the check has power).  Complex
    models have no Laplace transform here and raise MatcascadeError.
    """
    from scipy import stats  # deferred: slow to import, and no CLI command needs it

    if model.is_complex:
        raise MatcascadeError("the fixed-point check needs a real-mode model")
    b1 = simulate_batch(model, n, replicates, seed)
    b2 = simulate_batch(model, n + 1, replicates, seed + 0x9E3779B9,
                        identity_root=skip_root_weights)
    v1, v2 = b1.ok_values(), b2.ok_values()

    ks = {}
    for label, y in _default_projections(model.p).items():
        res = stats.ks_2samp(v1 @ y, v2 @ y)
        ks[label] = (float(res.statistic), float(res.pvalue))

    grid = [s * np.ones(model.p) for s in FIXED_POINT_T_SCALES]
    resid = max(abs(phi1 - phi2) for (_, phi1), (_, phi2)
                in zip(estimate_laplace(b1, grid), estimate_laplace(b2, grid)))

    return FixedPointReport(
        n=n, replicates=replicates, ks=ks, laplace_residual=resid,
        min_pvalue=min(p for _, p in ks.values()))
