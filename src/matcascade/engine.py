"""Monte Carlo simulation of the weighted Galton-Watson tree.

Each replicate owns a counter-based (Philox) stream keyed by the master
seed and the replicate index, so a draw is reproducible from that pair
alone and independent of batch size or worker count.  A chunk of
replicates is simulated in two passes that follow the recursion
Y = sum_k A_k Y(k): a top-down pass grows only the tree topology (the
atom drawn at each node and the offset of its first child, nodes kept in
canonical (replicate, parent, child) order), and a bottom-up pass sets
every depth-n leaf to V and folds the p-vectors back to the roots.  A
node's arithmetic depends only on its own subtree, so results do not
depend on the chunking.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import MatcascadeError, ModelError
from .spectral import SpectralError, moment_matrix, perron, _entry_power

DEFAULT_CAP = 10_000_000
CHUNK = 4096

BATCH_MAGIC = b"MCSB"
BATCH_VERSION = 1


class SimulationError(MatcascadeError):
    pass


@dataclass
class SampleBatch:
    """Replicated draws of the depth-n martingale value."""

    model_id: str
    n: int
    replicates: int
    values: np.ndarray  # (R, p), float or complex
    master_seed: int
    field_kind: str
    extinct: np.ndarray  # (R,) bool: tree died out before depth n
    capped: np.ndarray  # (R,) bool: population cap breached (values are NaN)
    tilt: float | None = None
    raw_values: np.ndarray | None = None  # tilted runs: sum before 1/rho(t)^n

    @property
    def p(self):
        return self.values.shape[1]

    @property
    def extinct_count(self):
        return int(self.extinct.sum())

    @property
    def capped_count(self):
        return int(self.capped.sum())

    def ok_values(self):
        """Values of replicates that did not breach the population cap."""
        return self.values[~self.capped]


def replicate_rng(master_seed, r):
    """Philox stream for replicate r of a run keyed by master_seed."""
    key = np.array([master_seed % 2**64, r % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _atom_tables(model, tilt=None):
    """Cumulative atom probabilities and per-atom child matrix stacks."""
    probs = np.array([a.prob for a in model.atoms])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    dtype = complex if model.is_complex else float
    stacks = []
    for a in model.atoms:
        mats = np.array(a.matrices, dtype=dtype).reshape(-1, model.p, model.p)
        stacks.append(mats if tilt is None else _entry_power(mats, tilt))
    nch = np.array([a.n_children for a in model.atoms], dtype=np.int64)
    return cum, stacks, nch


def _sampler_draw(model, rng, count):
    """count draws of the child-matrix stack (count, N, p, p) for sampler laws."""
    fam = model.sampler["family"]
    params = model.sampler.get("params", {})
    n = int(params["n_children"])
    p = model.p
    shape = (count, n, p, p)
    if fam == "lognormal":
        mats = rng.lognormal(params.get("mu", 0.0), params.get("sigma", 1.0), shape)
    elif fam == "uniform":
        mats = rng.uniform(params.get("low", 0.0), params.get("high", 1.0), shape)
    else:
        raise ModelError(f"unknown sampler family {fam!r}")
    return mats


def _apply(mats, y):
    """Row-wise products A y for the rows y of an (m, p) array.

    mats is one (p, p) matrix shared by every row or an (m, p, p) stack.
    Each entry is summed over q in a fixed order by elementwise ufuncs, so
    a row's bits do not depend on how many rows are folded together; a
    BLAS matmul rounds a row differently with its position and the batch
    size, which would make the output depend on the chunking.
    """
    out = mats[..., :, 0] * y[:, :1]
    for q in range(1, y.shape[1]):
        out += mats[..., :, q] * y[:, q:q + 1]
    return out


def _select(mask):
    """Indices where mask holds, or a full slice when it holds everywhere."""
    idx = np.flatnonzero(mask)
    return slice(None) if len(idx) == len(mask) else idx


def _fold(levels, sizes, depth, v):
    """Root values when the depth-`depth` nodes are leaves carrying V.

    Folds Y(node) = sum_k A_{node,k} Y(child_k) from depth - 1 up to the
    roots; a node without children (extinct, or halted by the cap)
    folds to zero.
    """
    y = np.broadcast_to(v, (sizes[depth], v.size))
    for d in range(depth - 1, -1, -1):
        parent = np.zeros((sizes[d], v.size), dtype=v.dtype)
        for sel, first, mats in levels[d]:
            acc = _apply(mats[0], y[first])
            for k in range(1, len(mats)):
                acc += _apply(mats[k], y[first + k])
            parent[sel] = acc
        y = parent
    return y


def _run_chunk(model, n, rngs, v, cap, tilt, dtype, want_traj, identity_root=False):
    """Simulate one chunk of replicates; returns (Y array, traj, extinct, capped).

    Each replicate consumes its own stream: one uniform per alive node per
    generation for finite-atom laws, one sampler draw per node otherwise.
    A replicate whose population at the next depth would exceed cap stops
    growing there and reports NaN from that depth on.  A trajectory is the
    fold cut off at each depth.

    identity_root replaces the weight matrices of the first generation
    of a finite-atom law by the identity (same offspring law; used by the
    mutation diagnostic).
    """
    m0 = len(rngs)
    finite = model.mode == "finite-atom"
    if finite:
        cum, stacks, nch = _atom_tables(model, tilt=tilt)
        root_stacks = stacks
        if identity_root:
            eye = np.eye(model.p, dtype=dtype)
            root_stacks = [np.broadcast_to(eye, stack.shape) for stack in stacks]
    else:
        n_children = int(model.sampler["params"]["n_children"])

    rep = np.arange(m0)  # replicate of each node at the current depth
    sizes = [m0]
    levels = []  # per depth: groups of (nodes, first-child offsets, slot matrices)
    capped_at = np.full(m0, n + 1)  # depth at which the cap was breached

    for gen in range(n):
        counts = np.bincount(rep, minlength=m0)
        live = np.flatnonzero(counts)
        if finite:
            draws = np.empty(len(rep))
            pos = 0
            for i in live:
                c = counts[i]
                draws[pos:pos + c] = rngs[i].random(c)
                pos += c
            atom = np.searchsorted(cum, draws, side="left")
            k = nch[atom]
        else:
            mats = [_sampler_draw(model, rngs[i], counts[i]) for i in live]
            if mats:
                mats = np.concatenate(mats).astype(dtype, copy=False)
            k = np.full(len(rep), n_children)

        child_rep = np.repeat(rep, k)
        breach = np.bincount(child_rep, minlength=m0) > cap
        if breach.any():
            capped_at[breach] = gen + 1
            k[breach[rep]] = 0
            child_rep = np.repeat(rep, k)
        first = np.cumsum(k) - k
        grow = k > 0

        groups = []
        if finite:
            gen_stacks = root_stacks if gen == 0 else stacks
            for a, stack in enumerate(gen_stacks):
                mask = grow & (atom == a)
                if mask.any():
                    sel = _select(mask)
                    groups.append((sel, first[sel], stack))
        elif grow.any():
            sel = _select(grow)
            groups.append((sel, first[sel], mats[sel].swapaxes(0, 1)))
        levels.append(groups)
        rep = child_rep
        sizes.append(len(rep))

    capped = capped_at <= n
    extinct = (np.bincount(rep, minlength=m0) == 0) & ~capped
    traj = []
    for depth in range(n + 1) if want_traj else [n]:
        y = np.array(_fold(levels, sizes, depth, v))
        y[capped_at <= depth] = np.nan
        traj.append(y)
    return traj[-1], traj, extinct, capped


def _simulate(model, n, replicates, master_seed, cap, tilt, want_traj,
              chunk=CHUNK, identity_root=False):
    if n < 0:
        raise SimulationError("n must be >= 0")
    if replicates < 1:
        raise SimulationError("replicates must be >= 1")
    dtype = complex if model.is_complex else float
    p = model.p

    if tilt is None or tilt == 1:
        v = perron(model.mean_matrix()).v.astype(dtype)
        rho_t = 1.0
    else:
        mt = moment_matrix(model, tilt)
        try:
            triple = perron(mt)
        except SpectralError as e:
            raise SimulationError(f"tilted mean matrix: {e}") from e
        v = triple.v.astype(dtype)
        rho_t = triple.rho

    values = np.empty((replicates, p), dtype=dtype)
    extinct = np.zeros(replicates, dtype=bool)
    capped = np.zeros(replicates, dtype=bool)
    trajs = [] if want_traj else None

    for start in range(0, replicates, chunk):
        stop = min(start + chunk, replicates)
        rngs = [replicate_rng(master_seed, r) for r in range(start, stop)]
        y, traj, ext, cpd = _run_chunk(model, n, rngs, v, cap, tilt, dtype,
                                       want_traj, identity_root=identity_root)
        values[start:stop] = y
        extinct[start:stop] = ext
        capped[start:stop] = cpd
        if want_traj:
            trajs.append(traj)

    if want_traj:
        traj_full = [np.concatenate([t[g] for t in trajs]) for g in range(n + 1)]
    else:
        traj_full = None
    return values, traj_full, extinct, capped, rho_t


def simulate_Yn(model, n, seed, cap=DEFAULT_CAP):
    """One trajectory (Y_0, ..., Y_n) of the vector martingale.

    Y_0 = V; each node draws an offspring realization, and Y_m, the sum
    over depth-m nodes of path product . V, is the fold with the depth-m
    nodes as leaves.  Extinction yields the zero vector from the
    extinction depth on.  A population-cap breach returns the partial
    trajectory (NaN from the breach depth on) with the capped marker set.
    """
    values, traj, extinct, capped, _ = _simulate(
        model, n, 1, seed, cap, tilt=None, want_traj=True)
    return values[0], [t[0] for t in traj], bool(capped[0])


def simulate_batch(model, n, replicates, master_seed, cap=DEFAULT_CAP):
    """R independent trajectories with per-replicate derived seeds."""
    values, _, extinct, capped, _ = _simulate(
        model, n, replicates, master_seed, cap, tilt=None, want_traj=False)
    return SampleBatch(model_id=model.content_hash(), n=n, replicates=replicates,
                       values=values, master_seed=master_seed,
                       field_kind=model.field_kind, extinct=extinct, capped=capped)


def simulate_tilted(model, t, n, replicates, master_seed, cap=DEFAULT_CAP):
    """Batch of the tilted martingale, normalized by rho(t)^n.

    The raw sum over depth-n nodes of the t-powered path products times
    V(t) is kept alongside; dividing by rho(t)^n makes the expectation
    V(t) at every depth.
    """
    values, _, extinct, capped, rho_t = _simulate(
        model, n, replicates, master_seed, cap, tilt=t, want_traj=False)
    raw = values.copy()
    values = values / rho_t**n
    return SampleBatch(model_id=model.content_hash(), n=n, replicates=replicates,
                       values=values, master_seed=master_seed,
                       field_kind=model.field_kind, extinct=extinct, capped=capped,
                       tilt=t, raw_values=raw)


def simulate_complex(model, n, seed, cap=DEFAULT_CAP, with_hat=False):
    """One complex trajectory; optionally the modulus-weight companion.

    V is the Perron vector of the modulus mean matrix E sum_k |A_k|
    (CascadeModel.mean_matrix), so E Y_n = (E sum_k A_k)^n V, which equals
    V only when (E sum_k A_k) V = V; a random sign or phase can make the
    mean zero.  The companion run uses |entries| for every weight with the
    same tree topology draws, for diagnostics of the modulus criteria.
    """
    if not model.is_complex:
        raise SimulationError("simulate_complex requires a complex-mode model")
    y, traj, capped = simulate_Yn(model, n, seed, cap=cap)
    if not with_hat:
        return y, traj, capped
    hat = _hat_model(model)
    y_hat, traj_hat, _ = simulate_Yn(hat, n, seed, cap=cap)
    return y, traj, capped, y_hat, traj_hat


def _hat_model(model):
    """Real model with the moduli of the complex entries."""
    from .model import Atom, CascadeModel

    atoms = [Atom(prob=a.prob, matrices=[np.abs(m) for m in a.matrices])
             for a in model.atoms]
    return CascadeModel(p=model.p, mode="finite-atom", field_kind="real",
                        atoms=atoms)


# ---------------------------------------------------------------------------
# batch serialization

def _float_columns(values):
    """The (R, p) values as float64 columns, re/im interleaved when complex."""
    return np.ascontiguousarray(values).view(np.float64)


def batch_to_csv(batch, path):
    """CSV: replicate, extinct_flag, capped_flag, then Y columns.

    Complex batches write re/im column pairs.  Floats use repr so a
    rerun with identical flags reproduces the file bytes.
    """
    p = batch.p
    if np.iscomplexobj(batch.values):
        cols = [f"Y{j+1}_re,Y{j+1}_im" for j in range(p)]
    else:
        cols = [f"Y{j+1}" for j in range(p)]
    columns = _float_columns(batch.values)
    with open(path, "w", encoding="utf-8") as f:
        f.write("replicate,extinct,capped," + ",".join(cols) + "\n")
        # rows become Python floats one chunk at a time, to bound memory
        for start in range(0, batch.replicates, CHUNK):
            block = slice(start, start + CHUNK)
            rows = zip(batch.extinct[block].tolist(), batch.capped[block].tolist(),
                       columns[block].tolist())
            for r, (extinct, capped, values) in enumerate(rows, start):
                f.write(f"{r},{int(extinct)},{int(capped)},"
                        + ",".join(map(repr, values)) + "\n")


def batch_to_binary(batch, path):
    """Compact binary layout.

    Header: magic 'MCSB' (4 bytes), uint32 version, uint32 p, uint64 R,
    uint32 n, uint8 field tag (0 real, 1 complex), 3 pad bytes; then R
    flag bytes (bit 0 extinct, bit 1 capped); then the value matrix as
    little-endian float64, row-major, re/im interleaved when complex.
    """
    cx = np.iscomplexobj(batch.values)
    header = BATCH_MAGIC + struct.pack(
        "<IIQIB3x", BATCH_VERSION, batch.p, batch.replicates, batch.n, int(cx))
    flags = (batch.extinct.astype(np.uint8)
             | (batch.capped.astype(np.uint8) << 1))
    with open(path, "wb") as f:
        f.write(header)
        f.write(flags.tobytes())
        f.write(_float_columns(batch.values).astype("<f8").tobytes())


def batch_from_binary(path, model_id="", master_seed=-1):
    """Read a batch written by batch_to_binary; SimulationError unless the
    file is one, of exactly the length its header implies."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 28
    if len(blob) < off or blob[:4] != BATCH_MAGIC:
        raise SimulationError("not a batch file (bad magic or short header)")
    version, p, r, n, cx = struct.unpack("<IIQIB", blob[4:25])
    if version != BATCH_VERSION:
        raise SimulationError(f"unsupported batch version {version}")
    width = 2 * p if cx else p
    expected = off + r + 8 * r * width
    if len(blob) != expected:
        raise SimulationError(
            f"batch file has {len(blob)} bytes, its header implies {expected}")
    flags = np.frombuffer(blob[off:off + r], dtype=np.uint8)
    off += r
    payload = np.frombuffer(blob[off:], dtype="<f8").reshape(r, width)
    values = (payload.view(complex) if cx else payload).copy()
    return SampleBatch(model_id=model_id, n=n, replicates=r, values=values,
                       master_seed=master_seed,
                       field_kind="complex" if cx else "real",
                       extinct=(flags & 1).astype(bool),
                       capped=((flags >> 1) & 1).astype(bool))
