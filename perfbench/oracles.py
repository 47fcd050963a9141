"""Output checks, each against a computation made apart from matcascade.

Nothing here imports matcascade.  Models and specs are read from the
JSON files the program reads or writes, Perron roots come from the dense
eigensolver, exact moments from the Kronecker lift, replicates from a
per-node expansion over ``np.random.Philox(key=(seed, r))`` streams and
estimates from numpy over the bytes of ``batch.bin``.  Every check raises
``CheckError`` with a one-line reason on the first disagreement.
"""

from __future__ import annotations

import itertools
import json
import math
import struct

import numpy as np

RHO_RTOL = 1e-10  # exact moments: lift against power iteration
VALUE_RTOL = 1e-12  # replicates and estimates
FIT_RTOL = 1e-9  # least-squares fits, solved another way than the program
MEAN_SE = 5.0  # batch mean within this many standard errors of V
H_TOL = 1e-9  # the model format's tolerance on rho(M) = 1


class CheckError(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def close(a, b, rtol, what, atol=0.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    bad = np.abs(a - b) > rtol * np.maximum(np.abs(a), np.abs(b)) + atol
    require(not bad.any(), f"{what}: {a[bad][:3]} != {b[bad][:3]} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# models, walks and their spectra

class Model:
    """Finite-atom real model as read from its JSON file."""

    def __init__(self, doc):
        self.p = int(doc["p"])
        probs = [float(a["prob"]) for a in doc["atoms"]]
        total = sum(probs)
        # the model format divides probabilities by their sum when it is not 1
        self.probs = [q / total for q in probs] if total != 1.0 else probs
        self.mats = [[np.array(m, dtype=float) for m in a["matrices"]]
                     for a in doc["atoms"]]

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f))

    def pairs(self):
        """(prob, matrices) per atom."""
        return zip(self.probs, self.mats)

    def power_sum(self, t):
        """E sum_k A_k^(entrywise t)."""
        return sum(q * sum((m ** t for m in ms), np.zeros((self.p, self.p)))
                   for q, ms in self.pairs())

    def mean(self):
        return self.power_sum(1)

    def positive_column_probability(self):
        return sum(q for q, ms in self.pairs()
                   if all((m > 0).all(axis=0).any() for m in ms))

    def offspring_law(self):
        law = {}
        for q, ms in self.pairs():
            law[len(ms)] = law.get(len(ms), 0.0) + q
        return law


def perron_root(mat):
    """Spectral radius by the dense eigensolver (the Perron root of a
    nonnegative matrix)."""
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def perron_vectors(mat):
    """(u, v) of the Perron root, sum(u) = 1 and u . v = 1."""
    w, vr = np.linalg.eig(mat)
    wl, vl = np.linalg.eig(mat.T)
    v = np.abs(vr[:, np.argmax(np.abs(w))].real)
    u = np.abs(vl[:, np.argmax(np.abs(wl))].real)
    u = u / u.sum()
    return u, v / float(u @ v)


def kron_power(a, t):
    out = a
    for _ in range(t - 1):
        out = np.kron(out, a)
    return out


def lift_rho(model, t, n):
    """rho_n(t) for integer t by the Kronecker lift.

    With K_t = E sum_k A_k^(kron t), the depth-n moment matrix M_n(t) is
    K_t^n restricted to the diagonal multi-indices (i..i) x (j..j).
    """
    p = model.p
    k = sum(q * sum(kron_power(m, t) for m in ms) for q, ms in model.pairs())
    kn = np.linalg.matrix_power(k, n)
    diag = [sum(i * p ** s for s in range(t)) for i in range(p)]
    return perron_root(kn[np.ix_(diag, diag)])


def walk_mean(spec, t):
    """Tilted reproduction matrix m~(t) of a walk spec and its Perron root."""
    p = int(spec["p"])
    m = np.zeros((p, p))
    for i, entry in enumerate(spec["types"]):
        for cfg in entry["offspring"]:
            for ch in cfg["children"]:
                m[i, int(ch["type"]) - 1] += cfg["prob"] * math.exp(-t * ch["disp"])
    return m, perron_root(m)


# ---------------------------------------------------------------------------
# check: conditions.json

def alpha_bounds(model, alpha, n):
    """(lower, upper) bounds on rho_n(alpha) for non-integer alpha > 1.

    The sandwich rho_a^n <= rho_n <= p^((a-1)(n-1)) rho_a^n with
    rho_a = rho(M(alpha)), tightened above by log-convexity in the order
    between the integer neighbours a < alpha < b (Hoelder bound).
    """
    rho_a = perron_root(model.power_sum(alpha))
    lo = rho_a ** n
    hi = model.p ** ((alpha - 1) * (n - 1)) * rho_a ** n
    a, b = math.floor(alpha), math.ceil(alpha)
    theta = b - alpha
    holder = lift_rho(model, a, n) ** theta * lift_rho(model, b, n) ** (1 - theta)
    return lo, min(hi, holder)


def check_rho(model, alpha, n, value):
    if float(alpha).is_integer():
        ref = lift_rho(model, int(alpha), n)
        close(value, ref, RHO_RTOL, f"rho_{n}({alpha:g}) against the Kronecker lift")
    else:
        lo, hi = alpha_bounds(model, alpha, n)
        slack = RHO_RTOL * hi
        require(lo - slack <= value <= hi + slack,
                f"rho_{n}({alpha:g}) = {value!r} outside [{lo!r}, {hi!r}]")


def t21_verdict(q, p, alpha, h_ok, pcp):
    """The T2.1a rule applied to the printed rho_n(alpha)."""
    if not h_ok:
        return "not-applicable"
    rhos = [q[key] for key in itertools.takewhile(
        q.__contains__, (f"rho_{n}(alpha)" for n in itertools.count(1)))]
    if any(p ** (alpha - 1) * r < 1 for r in rhos):
        return "holds"
    if any(r > 1 or (pcp > 0 and r >= 1) for r in rhos):
        return "fails"
    return "undecided"


def check_t21(row, model, n_max):
    q = row["quantities"]
    alpha = q["alpha"]
    pcp = model.positive_column_probability()
    close(q["positive_column_probability"], pcp, VALUE_RTOL, "pcp")
    h_ok = row["assumptions"][0][1] == "ok"
    require(h_ok == (abs(perron_root(model.mean()) - 1) <= H_TOL),
            "assumption H status disagrees with rho(M)")
    for n in range(1, n_max + 1):
        key = f"rho_{n}(alpha)"
        require(key in q, f"{key} missing at alpha={alpha}")
        check_rho(model, alpha, n, q[key])
        close(q[f"p^(alpha-1)*rho_{n}(alpha)"],
              model.p ** (alpha - 1) * q[key], VALUE_RTOL, "criterion")
    want = t21_verdict(q, model.p, alpha, h_ok, pcp)
    require(row["verdict"] == want,
            f"T2.1a verdict {row['verdict']!r} at alpha={alpha}, rule gives {want!r}")


def check_t22(row, model, lam):
    q = row["quantities"]
    law = model.offspring_law()
    p_n0, p_n1 = law.get(0, 0.0), law.get(1, 0.0)
    pcp = model.positive_column_probability()
    close([q["P(N=0)"], q["P(N=1)"]], [p_n0, p_n1], VALUE_RTOL, "T2.2 law")
    if p_n0 > 0 or p_n1 >= 1 or pcp == 0:
        want = "not-applicable"
    else:
        first = [(qa * ms[0].sum(axis=1).min() ** -lam, len(ms))
                 for qa, ms in model.pairs()]
        e_inv = sum(term for term, _ in first)
        e_inv_n1 = sum(term for term, k in first if k == 1)
        close(q["E(min_row_sum(A_1))^-lambda"], e_inv, VALUE_RTOL, "T2.2 E inv")
        close(q["E(min_row_sum(A_1))^-lambda;N=1"], e_inv_n1, VALUE_RTOL,
              "T2.2 E inv; N=1")
        want = "holds" if e_inv_n1 < 1 else "fails"
    require(row["verdict"] == want, f"T2.2 verdict {row['verdict']!r}, rule gives {want!r}")


def check_t23(row_a, row_b, model, eps):
    m_low = min(len(ms) for q, ms in model.pairs() if q > 0)
    a_low = min(float(m.min()) for q, ms in model.pairs() if q > 0
                for m in ms[:m_low])
    p_nm = sum(q for q, ms in model.pairs() if len(ms) == m_low)
    close(row_a["quantities"]["a_lower"], a_low, 0.0, "T2.3 a_lower")
    want_a = "holds" if a_low > 0 and p_nm > 0 else "not-applicable"
    require(row_a["verdict"] == want_a, f"T2.3a verdict {row_a['verdict']!r}")
    if want_a == "holds":
        gamma = -math.log(m_low) / math.log(a_low * model.p)
        close(row_a["quantities"]["gamma"], gamma, VALUE_RTOL, "T2.3a gamma")
    event = sum(q for q, ms in model.pairs() if len(ms) == m_low
                and all(m.max() <= a_low + eps for m in ms[:m_low]))
    feasible = (a_low + eps) * model.p * m_low < 1
    want_b = "holds" if a_low > 0 and feasible and event > 0 else "not-applicable"
    require(row_b["verdict"] == want_b, f"T2.3b verdict {row_b['verdict']!r}")


def check_validation(row, model):
    q = row["quantities"]
    close(q["mean_matrix"], model.mean(), VALUE_RTOL, "mean matrix")
    rho = perron_root(model.mean())
    close(q["rho"], rho, RHO_RTOL, "rho(M)")
    require((row["verdict"] == "holds") == (abs(rho - 1) <= H_TOL),
            f"assumption H verdict {row['verdict']!r} with rho(M) = {rho!r}")


def check_conditions(rows, model, alphas, lams, epsilons, n_max):
    """Every row of conditions.json: numbers and verdicts."""
    by = {}
    for row in rows:
        by.setdefault(row["theorem"], []).append(row)
    check_validation(by["validation"][0], model)
    t21 = by.get("T2.1a", [])
    require(len(t21) == len(alphas), f"{len(t21)} T2.1a rows for {len(alphas)} alphas")
    for row, alpha in zip(t21, alphas):
        require(row["quantities"]["alpha"] == alpha, "T2.1a rows out of order")
        check_t21(row, model, n_max)
    t22 = by.get("T2.2", [])
    require(len(t22) == len(lams), f"{len(t22)} T2.2 rows for {len(lams)} lambdas")
    for row, lam in zip(t22, lams):
        check_t22(row, model, lam)
    t23a, t23b = by.get("T2.3a", []), by.get("T2.3b", [])
    require(len(t23a) == len(t23b) == len(epsilons), "T2.3 rows missing")
    for row_a, row_b, eps in zip(t23a, t23b, epsilons):
        check_t23(row_a, row_b, model, eps)


def check_built_model(model, spec, t):
    m, rho = walk_mean(spec, t)
    close(model.mean(), m / rho, VALUE_RTOL, "built mean matrix against m~(t)/rho~(t)")


# ---------------------------------------------------------------------------
# simulate: batch.bin, batch.csv, per-node replicates

def read_batch_bin(path):
    """(n, values, extinct, capped) from the documented binary layout."""
    with open(path, "rb") as f:
        blob = f.read()
    require(blob[:4] == b"MCSB", "batch.bin: bad magic")
    version, p, r, n, cx = struct.unpack("<IIQIB3x", blob[4:28])
    require(version == 1 and cx == 0, "batch.bin: unexpected version or field")
    require(len(blob) == 28 + r + 8 * r * p,
            f"batch.bin: {len(blob)} bytes for R={r}, p={p}")
    flags = np.frombuffer(blob, dtype=np.uint8, count=r, offset=28)
    values = np.frombuffer(blob, dtype="<f8", count=r * p,
                           offset=28 + r).reshape(r, p)
    require(not (flags & ~np.uint8(3)).any(), "batch.bin: unknown flag bits")
    return n, values, (flags & 1).astype(bool), (flags & 2).astype(bool)


def check_csv(path, values, extinct, capped):
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in f]
    p = values.shape[1]
    require(header == ["replicate", "extinct", "capped"]
            + [f"Y{j + 1}" for j in range(p)], f"batch.csv header {header}")
    require(len(rows) == len(values), f"batch.csv has {len(rows)} rows")
    table = np.array(rows, dtype=float)
    require((table[:, 0] == np.arange(len(values))).all(), "batch.csv replicate ids")
    require((table[:, 1] == extinct).all(), "batch.csv extinct flags != batch.bin")
    require((table[:, 2] == capped).all(), "batch.csv capped flags != batch.bin")
    require((table[:, 3:] == values).all(), "batch.csv values != batch.bin")


def replicate(model, v, n, seed, r):
    """(Y_n, extinct) of replicate r by direct per-node expansion.

    Generation order: at each depth the replicate draws one uniform per
    node, nodes taken parent by parent and child by child, and a node
    with uniform u takes the first atom whose cumulative probability is
    >= u.  Y_n is the sum over depth-n nodes of the path product times V.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, r]))
    cum = list(itertools.accumulate(model.probs))
    cum[-1] = 1.0
    prods = [np.eye(model.p)]
    for _ in range(n):
        nxt = []
        for x, u in zip(prods, rng.random(len(prods))):
            atom = next(a for a, c in enumerate(cum) if u <= c)
            nxt.extend(x @ m for m in model.mats[atom])
        prods = nxt
    return sum((x @ v for x in prods), np.zeros(model.p)), not prods


def check_batch(sim_dir, model, n, replicates, seed, n_oracle=24):
    """All simulate outputs; returns the batch values for the estimate check."""
    bn, values, extinct, capped = read_batch_bin(f"{sim_dir}/batch.bin")
    require(bn == n and len(values) == replicates,
            f"batch.bin holds n={bn}, R={len(values)}")
    require(not capped.any(), f"{int(capped.sum())} replicates capped")
    require(not (extinct & values.any(axis=1)).any(), "extinct replicate with nonzero Y")
    check_csv(f"{sim_dir}/batch.csv", values, extinct, capped)
    with open(f"{sim_dir}/batch_meta.json", encoding="utf-8") as f:
        meta = json.load(f)
    require(meta["extinct_count"] == int(extinct.sum()), "batch_meta extinct_count")
    _, v = perron_vectors(model.mean())
    for r in sorted(set(np.linspace(0, replicates - 1, n_oracle).astype(int))):
        y, ext = replicate(model, v, n, seed, int(r))
        require(ext == extinct[r], f"replicate {r}: extinct flag {extinct[r]} != {ext}")
        close(values[r], y, VALUE_RTOL, f"replicate {r}")
    se = values.std(axis=0, ddof=1) / math.sqrt(replicates)
    dev = np.abs(values.mean(axis=0) - v)
    require((dev <= MEAN_SE * se).all(),
            f"batch mean off V by {dev / se} standard errors")
    return values


# ---------------------------------------------------------------------------
# estimate: estimates.json and the Laplace curve

def moment_of(base):
    return float(base.mean()), float(base.std(ddof=1) / math.sqrt(base.size))


def lstsq_fit(xs, ys):
    """(slope, intercept, r2) of ys on xs by numpy's least-squares solver."""
    design = np.column_stack([xs, np.ones_like(xs)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return float(slope), float(intercept), r2


def check_fit(fit, curve, kind, replicates):
    """A Laplace fit recomputed from the curve: power or stretched."""
    floor_min, hi = (1e-4, 0.5) if kind == "power" else (1e-5, 0.2)
    floor = max(10.0 / replicates, floor_min)
    pts = sorted((s, phi) for s, phi in curve if floor <= phi <= hi)
    if len(pts) < 5:
        require("error" in fit, f"{kind} fit reported on {len(pts)} points")
        return
    require("error" not in fit, f"{kind} fit refused with {len(pts)} points")
    xs = np.log([s for s, _ in pts])
    ys = np.log([phi for _, phi in pts])
    if kind != "power":
        ys = np.log(-ys)
    slope, intercept, r2 = lstsq_fit(xs, ys)
    exponent = -slope if kind == "power" else slope
    close([fit["exponent"], fit["intercept"]], [exponent, intercept], FIT_RTOL,
          f"{kind} fit", atol=1e-12)
    close(fit["r2"], r2, FIT_RTOL, f"{kind} fit r2", atol=1e-12)


def check_estimates(est_dir, values, model, alphas, lams, n_max,
                    laplace=None):
    """estimates.json (and the Laplace files) against numpy on batch.bin.

    laplace, when given, is (t_min, t_max, points) of the fitted grid.
    """
    with open(f"{est_dir}/estimates.json", encoding="utf-8") as f:
        out = json.load(f)
    r = len(values)
    require(out["replicates"] == r, "estimates.json replicate count")
    norm = np.abs(values).sum(axis=1)
    for entry, alpha in zip(out.get("moments", []), alphas, strict=True):
        est = entry["estimate"]
        close([est["point"], est["stderr"]], moment_of(norm ** alpha),
              VALUE_RTOL, f"moment {alpha:g}")
        if alpha > 1:
            check_t21(entry["condition"], model, n_max)
    total = values.sum(axis=1)
    for entry, lam in zip(out.get("harmonic", []), lams, strict=True):
        est = entry["estimate"]
        alive = total[total > 0]
        require(est["infinite_count"] == r - alive.size, "harmonic infinite count")
        close([est["point"], est["stderr"]], moment_of(alive ** -lam),
              VALUE_RTOL, f"harmonic {lam:g}")
        check_t22(entry["condition"], model, lam)
    if laplace is None:
        return
    t_min, t_max, points = laplace
    ones = np.ones(model.p)
    grid = np.geomspace(t_min, t_max, points)
    phi = np.array([np.exp(-(values @ (s * ones))).mean() for s in grid])
    curve = np.loadtxt(f"{est_dir}/laplace_curve.csv", delimiter=",", skiprows=1)
    close(curve[:, 0], grid * model.p, VALUE_RTOL, "Laplace grid")
    close(curve[:, 1], phi, VALUE_RTOL, "Laplace transform")
    pairs = list(zip(curve[:, 0], curve[:, 1]))
    for kind in ("power", "stretched"):
        check_fit(out["laplace_fits"][kind], pairs, kind, r)
