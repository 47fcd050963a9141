"""Monte Carlo simulation of the weighted Galton-Watson tree.

simulate_batch is the one entry point, and it runs every law, finite-atom
or sampler, real or complex, the same way; the population cap and the
identity-root corruption are its parameters.  Tilting is a model
transform (model.tilt_model), not an engine mode, and a trajectory
(Y_0, ..., Y_n) is n + 1 runs, since a shallower run draws a prefix of a
deeper one's stream.

Each replicate owns a counter-based (Philox) stream keyed by the master
seed and the replicate index, so a draw is reproducible from that pair
alone and independent of batch size or worker count.  A run builds one
generator per replicate slot of its first chunk and re-keys those for
every later chunk, so no replicate pays for a new bit generator or its
OS-entropy read.  For finite-atom laws each replicate's first WINDOW
uniforms are drawn in one call up front; a node reads its uniform there
by its stream position (draws its replicate used before, plus its rank
at its depth), and only the draws past the window go to the stream one
call per replicate and generation, in the same order.  A chunk of
replicates is simulated in two passes that follow the recursion
Y = sum_k A_k Y(k): a top-down pass grows only the tree topology (the
atom drawn at each node and the offset of its first child, nodes kept in
canonical (replicate, parent, child) order), and a bottom-up pass folds
the p-vectors back to the roots.  Every depth-n node carries V, so the
depth-(n-1) nodes fold their child matrices against V itself and no
depth-n leaf is ever built.  A node's arithmetic depends only on its
own subtree, so results do not depend on the chunking.

Given workers > 1, simulate_batch and batch_to_csv hand whole chunks to
forked worker processes, at most one per usable core and per chunk
(process_count), and gather the results in chunk order; a run of at
most one chunk, or a platform without fork, stays in-process.  Every
chunk is keyed and formatted as in one process, so the values and the
bytes written never depend on the worker count.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import MatcascadeError
from .spectral import perron

DEFAULT_CAP = 10_000_000
CHUNK = 4096
WINDOW = 16  # uniforms drawn per replicate up front, before any spill draws

BATCH_MAGIC = b"MCSB"
BATCH_VERSION = 1


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


def replicate_rng(master_seed, r, rng=None):
    """Philox stream for replicate r of a run keyed by master_seed.

    Given a Philox Generator rng, re-keys it in place (counter and buffer
    reset, as on a new one) and returns it, rather than building a new
    bit generator, which costs ten times more and reads OS entropy that
    the key then overrides.
    """
    key = (master_seed % 2**64, r % 2**64)
    if rng is None:
        key = np.array(key, dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _sampler_draw(model, rng, count):
    """count draws of the child-matrix stack (count, N, p, p) for sampler laws."""
    params = model.sampler["params"]
    shape = (count, params["n_children"], model.p, model.p)
    if model.sampler["family"] == "lognormal":
        return rng.lognormal(params["mu"], params["sigma"], shape)
    return rng.uniform(params["low"], params["high"], shape)


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
    folds to zero.  Every leaf carries the same V, so a depth - 1 node
    folds its slot matrices against V directly: no leaf array is built
    or gathered, and a group sharing one stack computes its row once.
    """
    if depth == 0:
        return np.broadcast_to(v, (sizes[0], v.size))
    y = None  # values of the depth d + 1 nodes, once they are not leaves
    for d in range(depth - 1, -1, -1):
        parent = np.zeros((sizes[d], v.size), dtype=v.dtype)
        for sel, first, mats in levels[d]:
            acc = _apply(mats[0], v[None] if y is None else y[first])
            for k in range(1, len(mats)):
                acc += _apply(mats[k], v[None] if y is None else y[first + k])
            parent[sel] = acc
        y = parent
    return y


def _run_chunk(model, n, rngs, v, cap, identity_root):
    """Simulate one chunk of replicates; returns (Y_n, extinct, capped).

    Each replicate consumes its own stream: one uniform per alive node per
    generation for finite-atom laws (read from the window while it lasts),
    one sampler draw per node otherwise.
    """
    m0 = len(rngs)
    dtype = v.dtype
    finite = model.mode == "finite-atom"
    if finite:
        cum = np.cumsum([a.prob for a in model.atoms])
        cum[-1] = 1.0
        nch = np.array([a.n_children for a in model.atoms])
    else:
        n_children = model.sampler["params"]["n_children"]

    rep = np.arange(m0)  # replicate of each node at the current depth
    sizes = [m0]
    levels = []  # per depth: groups of (nodes, first-child offsets, slot matrices)
    capped = np.zeros(m0, dtype=bool)  # population cap breached

    if finite:
        # each replicate's first WINDOW uniforms; later ones spill to its stream
        window = np.empty((m0, WINDOW))
        for row, rng in zip(window, rngs):
            rng.random(out=row)
        used = np.zeros(m0, dtype=np.int64)  # uniforms each replicate has used

    for gen in range(n):
        counts = np.bincount(rep, minlength=m0)
        if finite:
            first_node = np.cumsum(counts) - counts
            pos = used[rep] + np.arange(len(rep)) - first_node[rep]
            used += counts
            draws = np.empty(len(rep))
            inside = pos < WINDOW
            draws[inside] = window[rep[inside], pos[inside]]
            if not inside.all():
                spill = np.bincount(rep[~inside], minlength=m0)
                draws[~inside] = np.concatenate(
                    [rngs[i].random(spill[i]) for i in np.flatnonzero(spill)])
            atom = np.searchsorted(cum, draws, side="left")
            k = nch[atom]
        else:
            mats = [_sampler_draw(model, rngs[i], counts[i])
                    for i in np.flatnonzero(counts)]
            if mats:
                mats = np.concatenate(mats).astype(dtype, copy=False)
            k = np.full(len(rep), n_children)

        child_rep = np.repeat(rep, k)
        breach = np.bincount(child_rep, minlength=m0) > cap
        if breach.any():
            capped |= breach
            k[breach[rep]] = 0
            child_rep = np.repeat(rep, k)
        first = np.cumsum(k) - k
        grow = k > 0

        groups = []
        if finite:
            for a, law_atom in enumerate(model.atoms):
                mask = grow & (atom == a)
                if mask.any():
                    sel = _select(mask)
                    groups.append((sel, first[sel], law_atom.matrices))
        elif grow.any():
            sel = _select(grow)
            groups.append((sel, first[sel], mats[sel].swapaxes(0, 1)))
        if identity_root and gen == 0:
            eye = np.eye(model.p, dtype=dtype)
            groups = [(sel, f, np.broadcast_to(eye, m.shape))
                      for sel, f, m in groups]
        levels.append(groups)
        rep = child_rep
        sizes.append(len(rep))

    extinct = (np.bincount(rep, minlength=m0) == 0) & ~capped
    y = np.array(_fold(levels, sizes, n, v))
    y[capped] = np.nan
    return y, extinct, capped


def usable_cores():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def process_count(replicates, workers=1):
    """Processes that a run over `replicates` rows uses when `workers`
    are asked for (None: the usable cores): at most one per usable core
    and per CHUNK of rows, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cores = usable_cores()
    return min(cores if workers is None else workers, cores, -(-replicates // CHUNK))


_task = None  # the function forked workers apply to their shards


def _call_task(shard):
    return _task(shard)


def _in_workers(fn, shards, processes):
    """Yield fn(shard) for each shard, in shard order.

    With at most one process this is map.  Otherwise forked workers
    inherit fn through the module global _task, so only shards and
    results are pickled, and at most two shards per worker are in flight
    beyond the one yielded next, which bounds the results the parent
    holds.  A worker's exception is raised here; a worker that dies
    raises MatcascadeError.  No worker outlives the generator.
    """
    if processes <= 1:
        yield from map(fn, shards)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a worker inherits fn with its model and arrays
    # instead of importing numpy again, and calls no BLAS routine, whose
    # threads are the only ones the parent may hold (the pool forks its
    # workers before it starts its own thread)
    global _task
    _task = fn
    pool = ProcessPoolExecutor(processes,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        pending = []
        for shard in shards:
            pending.append(pool.submit(_call_task, shard))
            if len(pending) > 2 * processes:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    except BrokenProcessPool as e:
        raise MatcascadeError(f"a worker process died: {e}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _task = None


def simulate_batch(model, n, replicates, master_seed, cap=DEFAULT_CAP,
                   identity_root=False, workers=1):
    """R independent draws of the depth-n martingale value Y_n.

    Replicate r draws from its own stream, keyed by (master_seed, r).
    Y_0 = V, the Perron vector of model.mean_matrix() (for complex weights
    that of the modulus mean E sum_k |A_k|, so E Y_n = (E sum_k A_k)^n V).
    Y_n, the sum over depth-n nodes of path product . V, is the fold with
    the depth-n nodes as leaves.  Extinction yields the zero vector, and a
    tree that dies out before depth n sets the extinct flag.  A replicate
    whose population at some depth up to n would exceed cap (at least 1)
    stops growing there: its value is NaN and its capped flag is set.

    A depth-m run (m <= n) draws a prefix of each stream of the depth-n
    run, so it grows the same trees to depth m, and its values are their
    depth-m folds bit for bit: the trajectory (Y_0, ..., Y_n) is n + 1
    runs.

    identity_root replaces the weight matrices of the first generation by
    the identity, whatever law drew them, with the same offspring law and
    the same draws (the seeded corruption of the fixed-point check).  The
    tilted martingale is this recursion run on model.tilt_model(model, t).

    workers (None: the usable cores) caps the processes that simulate
    the chunks (process_count); the batch does not depend on it.
    """
    if n < 0:
        raise MatcascadeError("n must be >= 0")
    if replicates < 1:
        raise MatcascadeError("replicates must be >= 1")
    if cap < 1:
        raise MatcascadeError(f"population cap must be >= 1, got {cap}")
    dtype = complex if model.is_complex else float
    v = perron(model.mean_matrix()).v.astype(dtype)
    values = np.empty((replicates, model.p), dtype=dtype)
    extinct = np.zeros(replicates, dtype=bool)
    capped = np.zeros(replicates, dtype=bool)

    # each process builds the generators of its first chunk, then re-keys them
    rngs = [None] * min(CHUNK, replicates)

    def run(start):
        stop = min(start + CHUNK, replicates)
        for i, r in enumerate(range(start, stop)):
            rngs[i] = replicate_rng(master_seed, r, rngs[i])
        return _run_chunk(model, n, rngs[:stop - start], v, cap, identity_root)

    done = 0  # replicates gathered so far
    for y, e, c in _in_workers(run, range(0, replicates, CHUNK),
                               process_count(replicates, workers)):
        rows = slice(done, done + len(y))
        values[rows], extinct[rows], capped[rows] = y, e, c
        done += len(y)
    return SampleBatch(model_id=model.content_hash(), n=n, replicates=replicates,
                       values=values, master_seed=master_seed,
                       field_kind=model.field_kind, extinct=extinct, capped=capped)


# ---------------------------------------------------------------------------
# batch serialization

def _float_columns(values):
    """The (R, p) values as float64 columns, re/im interleaved when complex."""
    return np.ascontiguousarray(values).view(np.float64)


def batch_to_csv(batch, path, workers=1):
    """CSV: replicate, extinct_flag, capped_flag, then Y columns.

    Complex batches write re/im column pairs.  Floats use repr so a
    rerun with identical flags reproduces the file bytes.  workers (None:
    the usable cores) caps the processes that format the rows
    (process_count); the bytes do not depend on it.
    """
    p = batch.p
    if np.iscomplexobj(batch.values):
        cols = [f"Y{j+1}_re,Y{j+1}_im" for j in range(p)]
    else:
        cols = [f"Y{j+1}" for j in range(p)]
    columns = _float_columns(batch.values)
    row = "%d,%d,%d" + ",%r" * columns.shape[1] + "\n"

    def text(start):
        block = slice(start, start + CHUNK)
        rows = zip(range(start, batch.replicates), batch.extinct[block].tolist(),
                   batch.capped[block].tolist(), *columns[block].T.tolist())
        return "".join(row % r for r in rows)

    with open(path, "w", encoding="utf-8") as f:
        f.write("replicate,extinct,capped," + ",".join(cols) + "\n")
        # rows become Python floats and text one chunk at a time, to bound
        # memory, and each chunk goes to the file in one write, in order
        for chunk in _in_workers(text, range(0, batch.replicates, CHUNK),
                                 process_count(batch.replicates, workers)):
            f.write(chunk)


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
    """Read a batch written by batch_to_binary; MatcascadeError unless the
    file is one, of exactly the length its header implies."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 28
    if len(blob) < off or blob[:4] != BATCH_MAGIC:
        raise MatcascadeError("not a batch file (bad magic or short header)")
    version, p, r, n, cx = struct.unpack("<IIQIB", blob[4:25])
    if version != BATCH_VERSION:
        raise MatcascadeError(f"unsupported batch version {version}")
    width = 2 * p if cx else p
    expected = off + r + 8 * r * width
    if len(blob) != expected:
        raise MatcascadeError(
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
