"""Monte Carlo simulation of the weighted Galton-Watson tree.

simulate_batch is the one entry point, and it runs every law, finite-atom
or sampler, real or complex, the same way; the population cap and the
identity-root corruption are its parameters.  Tilting is a model
transform (model.tilt_model), not an engine mode, and a trajectory
(Y_0, ..., Y_n) is n + 1 runs, since a shallower run draws a prefix of a
deeper one's stream.

Each replicate owns a counter-based (Philox) stream keyed by the master
seed and the replicate index, so a draw is reproducible from that pair
alone and independent of batch size or process count.  A run builds one
generator, from a fixed seed and without reading OS entropy, which each
process (forked workers inherit it) re-keys for every replicate of its
shard, drawing the replicate's first uniforms into a window row in one
call.  A node reads c uniforms (_uniforms_per_node) from its stream
position: the uniforms its replicate used before, plus c times its rank
at its depth.  The window holds as many as a tree of the law can use
before depth n (c sum_{g<n} Nmax^g), capped at WINDOW; a replicate that
outruns it re-keys the generator at the counter block of its position,
once per generation, and draws the rest in one call, so every law reads
its stream in order.

A chunk of replicates is simulated in two passes that follow the recursion
Y = sum_k A_k Y(k): a top-down pass grows only the tree topology (the
atom drawn at each node and the offset of its first child, nodes kept in
canonical (replicate, parent, child) order), and a bottom-up pass folds
the p-vectors back to the roots.  A node's atom is the number of
cumulative atom probabilities below its uniform, one comparison pass per
atom.  The top-down pass keeps per-replicate counts, not a replicate
index per node: a replicate's stream base is spread over its nodes by
np.repeat, and its children are the difference of the prefix sums of its
nodes' child counts.  The fold keeps each depth's values as a (p, nodes)
array, so every multiply-add runs over a contiguous node vector:
coordinate i of A y is a_i0 y_0 + a_i1 y_1 + ..., with a_iq one number
for a finite-atom group and a node vector for a sampler group, and the
roots are transposed to (R, p) once.  Every depth-n node carries V, so
the depth-(n-1) nodes fold their child matrices against V itself: no
array of depth-n leaves, nor a replicate index for them, is ever built,
and the fold is told only their number.  A node's arithmetic depends
only on its own subtree, so results do not depend on the chunking.  A
SampleBatch holds the draw alone (n, values and the extinct and capped
flags); its provenance is the caller's to record.

simulate_batch splits a run into shards of at most CHUNK rows, as many
per process and as equal as whole rows allow.  It hands the shards to one
pool of forked worker processes, at most one per usable core (`taskset`
limits them) and per CHUNK rows (process_count), and gathers the results
in shard order; a run of at most one CHUNK stays in this process, as does
one without fork or beside another Python thread.  Given a CSV path, the
process that draws and folds a shard also formats its CSV rows, and this
process writes them in shard order as they arrive, so writing the CSV
forks no second pool; batch_to_csv writes the same bytes in its own
process.  Every replicate is keyed and formatted as in one process, so
the values and the bytes written never depend on the process count or
the shard sizes.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .model import MatcascadeError
from .spectral import perron

DEFAULT_CAP = 10_000_000
CHUNK = 4096
WINDOW = 256  # most uniforms drawn per replicate up front, before any spill draws

BATCH_MAGIC = b"MCSB"
BATCH_VERSION = 1
BATCH_HEADER = struct.Struct("<4sIIQIB3x")

_BUILD_SEED = np.random.SeedSequence(0)  # builds generators, which are re-keyed before use


@dataclass
class SampleBatch:
    """Replicated draws of the depth-n martingale value."""

    n: int
    values: np.ndarray  # (R, p), float or complex
    extinct: np.ndarray  # (R,) bool: tree died out before depth n
    capped: np.ndarray  # (R,) bool: population cap breached (values are NaN)

    @property
    def replicates(self):
        return self.values.shape[0]

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
    bit generator, which costs ten times more.  Without one, it builds a
    generator from the fixed _BUILD_SEED and re-keys that: Philox(key=...)
    would read OS entropy that the key then overrides.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(_BUILD_SEED))
    rng.bit_generator.state = _philox_state(master_seed, r, 0)
    return rng


def _philox_state(master_seed, r, block):
    """Philox state of replicate r's stream when its first `block` 4-word
    counter blocks are spent: the next 64-bit output is number 4 * block."""
    return {"bit_generator": "Philox",
            "state": {"counter": (block, 0, 0, 0),
                      "key": (master_seed % 2**64, r % 2**64)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _stream_draws(rng, master_seed, r, pos, count):
    """Uniforms pos, ..., pos + count - 1 of replicate r's stream, drawn by
    re-keying rng at the counter block that holds pos, in one call."""
    rng.bit_generator.state = _philox_state(master_seed, r, pos // 4)
    return rng.random(pos % 4 + count)[pos % 4:]


def _window_width(nmax, n):
    """The most nodes of depths 0..n-1 in a tree whose nodes have at most
    nmax children, sum_{g<n} nmax^g, capped at WINDOW (its first WINDOW
    terms reach WINDOW unless nmax is 0)."""
    return min(WINDOW, sum(nmax ** g for g in range(min(n, WINDOW))))


def _uniforms_per_node(model):
    """c: 1 for a finite-atom law (the atom), N p^2 for a sampler law (the
    entries), rounded up to even for lognormal (Box-Muller pairs)."""
    if model.mode == "finite-atom":
        return 1
    c = model.sampler["params"]["n_children"] * model.p ** 2
    return c + c % 2 if model.sampler["family"] == "lognormal" else c


def _sampler_matrices(model, u):
    """The (nodes, N, p, p) child matrices of a sampler law from the nodes'
    (nodes, c) uniforms: low + (high - low) u, as numpy's Generator.uniform
    draws, or exp(mu + sigma z), z the Box-Muller normals of (u_2i, u_2i+1)."""
    params = model.sampler["params"]
    shape = (len(u), params["n_children"], model.p, model.p)
    if model.sampler["family"] == "uniform":
        return (params["low"] + (params["high"] - params["low"]) * u).reshape(shape)
    radius = np.sqrt(-2 * np.log(1 - u[:, 0::2]))  # 1 - u > 0
    angle = 2 * np.pi * u[:, 1::2]
    z = np.empty_like(u)
    z[:, 0::2], z[:, 1::2] = radius * np.cos(angle), radius * np.sin(angle)
    normals = z[:, :shape[1] * model.p ** 2]
    return np.exp(params["mu"] + params["sigma"] * normals).reshape(shape)


def _draw_atoms(bounds, u):
    """The atom of each uniform u: the number of bounds below it, bounds
    being the first A - 1 cumulative atom probabilities.  This is
    np.searchsorted(cum, u, side="left") over all A of them, since the last
    is 1 > u, drawn by one comparison pass per bound."""
    atom = np.zeros(len(u), dtype=np.intp)
    for b in bounds:
        atom += u > b
    return atom


def _apply(mats, y):
    """Products A y for the columns y of a (p, m) array, as a (p, m) array.

    mats is a (p, p, 1) matrix shared by every column or a (p, p, m)
    stack, one matrix per column.  Output coordinate i is
    a_i0 y_0 + a_i1 y_1 + ..., summed over q in that order by elementwise
    ufuncs over node vectors, so a column's bits do not depend on how many
    columns are folded together; a BLAS matmul rounds a column differently
    with its position and the batch size, which would make the output
    depend on the chunking.  The terms after the first share one scratch
    array.
    """
    out = mats[:, 0] * y[0]
    term = np.empty_like(out)
    for q in range(1, len(y)):
        out += np.multiply(mats[:, q], y[q], out=term)
    return out


def _select(mask):
    """Indices where mask holds, or a full slice when it holds everywhere."""
    idx = np.flatnonzero(mask)
    return slice(None) if len(idx) == len(mask) else idx


def _fold(levels, sizes, depth, v):
    """Root values, as an (R, p) array, when the depth-`depth` nodes are
    leaves carrying V.

    Folds Y(node) = sum_k A_{node,k} Y(child_k) from depth - 1 up to the
    roots, each depth's values a (p, nodes) array; a node without children
    (extinct, or halted by the cap) folds to zero.  Every leaf carries the
    same V, so a depth - 1 node folds its slot matrices against V directly:
    no leaf array is built or gathered, and a group sharing one stack
    computes its column once.
    """
    if depth == 0:
        return np.broadcast_to(v, (sizes[0], v.size))
    leaf = v[:, None]
    y = None  # values of the depth d + 1 nodes, once they are not leaves
    for d in range(depth - 1, -1, -1):
        parent = np.zeros((v.size, sizes[d]), dtype=v.dtype)
        for sel, first, mats in levels[d]:
            acc = _apply(mats[0], leaf if y is None else y.take(first, axis=1))
            for k in range(1, len(mats)):
                acc += _apply(mats[k], leaf if y is None else y.take(first + k, axis=1))
            for row, value in zip(parent, acc):  # one 1-D scatter per coordinate
                row[sel] = value
        y = parent
    return y.T


def _run_chunk(model, n, rows, master_seed, rng, v, cap, identity_root):
    """Simulate the replicates `rows` (a range) with rng, re-keyed for each
    replicate's window and spills; returns (Y_n, extinct, capped)."""
    # the top-down pass frees its window and node arrays before the fold,
    # which reuses that memory instead of touching fresh pages
    levels, sizes, counts, capped = _grow(model, n, rows, master_seed, rng, v.dtype,
                                          cap, identity_root)
    extinct = (counts == 0) & ~capped
    y = np.array(_fold(levels, sizes, n, v))
    y[capped] = np.nan
    return y, extinct, capped


def _grow(model, n, rows, master_seed, rng, dtype, cap, identity_root):
    """The top-down pass over the replicates `rows`: per depth, the groups
    of (nodes, first-child offsets, slot matrices) that _fold reads, the
    node counts (sizes), and each replicate's depth-n node count and
    capped flag."""
    m0 = len(rows)
    finite = model.mode == "finite-atom"
    if finite:
        bounds = np.cumsum([a.prob for a in model.atoms])[:-1]
        nch = np.array([a.n_children for a in model.atoms])
        # (N, p, p, 1): each child matrix shared by every node of its group
        stacks = [a.matrices[..., None] for a in model.atoms]
    else:
        nch = np.array([model.sampler["params"]["n_children"]])
    c = _uniforms_per_node(model)
    # each replicate's first `width` uniforms; later ones spill
    width = min(WINDOW, c * _window_width(int(nch.max()), n))
    window = np.empty((m0, width))
    for row, r in zip(window, rows):
        replicate_rng(master_seed, r, rng).random(out=row)
    row_start = width * np.arange(m0)  # flat window index of each replicate's row
    used = np.zeros(m0, dtype=np.int64)  # uniforms each replicate has used

    counts = np.ones(m0, dtype=np.int64)  # nodes of each replicate at this depth
    sizes = [m0]
    levels = []  # per depth: groups of (nodes, first-child offsets, slot matrices)
    capped = np.zeros(m0, dtype=bool)  # population cap breached

    for gen in range(n):
        ends = np.cumsum(counts)
        first_node = ends - counts
        # a node's c uniforms start at its replicate's row + used + c * (its
        # rank at this depth): one base per replicate, spread over its nodes
        at = np.repeat(row_start + used - c * first_node, counts)
        at += np.arange(0, c * sizes[gen], c)
        if not finite:
            at = at[:, None] + np.arange(c)
        u = window.take(at, mode="clip")
        spilt = used + c * counts > width  # replicates that read past their row
        if spilt.any():
            # each uniform's position in its stream (at is (nodes,) or
            # (nodes, c)); those past the window are drawn anew
            pos = (at.T - np.repeat(row_start, counts)).T
            resume = np.maximum(used, width)
            u[pos >= width] = np.concatenate(
                [_stream_draws(rng, master_seed, rows[i], int(resume[i]),
                               int(used[i] + c * counts[i] - resume[i]))
                 for i in np.flatnonzero(spilt)])
        used += c * counts
        if finite:
            atom = _draw_atoms(bounds, u)
            k = nch[atom]
        else:
            mats = _sampler_matrices(model, u).astype(dtype, copy=False)
            k = np.full(sizes[gen], nch[0])

        # first[j]: the offset of node j's first child; first[-1] the population
        first = np.zeros(sizes[gen] + 1, dtype=np.int64)
        np.cumsum(k, out=first[1:])
        children = first[ends] - first[first_node]  # of each replicate
        breach = children > cap
        if breach.any():
            capped |= breach
            children[breach] = 0
            k[np.repeat(breach, counts)] = 0
            np.cumsum(k, out=first[1:])
        counts = children
        grow = k > 0
        sizes.append(int(first[-1]))
        first = first[:-1]

        groups = []
        if finite:
            for a, stack in enumerate(stacks):
                mask = grow & (atom == a)
                if mask.any():
                    sel = _select(mask)
                    groups.append((sel, first[sel], stack))
        elif grow.any():
            sel = _select(grow)
            # (N, p, p, nodes): each entry a node vector
            groups.append((sel, first[sel], np.moveaxis(mats[sel], 0, -1)))
        if identity_root and gen == 0:
            eye = np.eye(model.p, dtype=dtype)[..., None]
            groups = [(sel, f, np.broadcast_to(eye, m.shape))
                      for sel, f, m in groups]
        levels.append(groups)
    return levels, sizes, counts, capped


def usable_cores():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def process_count(replicates):
    """Processes that a run over `replicates` rows uses: at most one per
    usable core and per CHUNK of rows, at least one, and one where the
    platform cannot fork or another Python thread runs (a forked child
    would copy the locks that thread holds, but not the thread)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cores(), -(-replicates // CHUNK)))


def _shards(replicates, processes):
    """(start, stop) row ranges of a run over `processes`: the fewest
    shards of at most CHUNK rows whose count is a multiple of processes,
    as equal as whole rows allow, so that every process simulates the
    same share (5 chunks of CHUNK rows over 2 processes would leave one
    of them idle for the fifth)."""
    count = min(processes * -(-replicates // (processes * CHUNK)), replicates) or 1
    bounds = [i * replicates // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


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
    # threads are the only ones the parent may hold (process_count keeps
    # a run beside a Python thread in one process, and the pool forks its
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
                   identity_root=False, *, csv_path=None):
    """R independent draws of the depth-n martingale value Y_n.

    Replicate r draws from its own stream, keyed by (master_seed, r).
    Y_0 = V, the Perron vector of model.mean_matrix() (for complex weights
    that of the modulus mean E sum_k |A_k|, so E Y_n = (E sum_k A_k)^n V).
    Y_n, the sum over depth-n nodes of path product . V, is the fold with
    the depth-n nodes as leaves.  Extinction yields the zero vector, and a
    tree that dies out before depth n sets the extinct flag.  A replicate
    whose population at some depth up to n would exceed cap (at least 1)
    stops growing there: its value is NaN and its capped flag is set.  Any
    other replicate whose value is not finite (its products overflow the
    float range) makes the run fail with MatcascadeError.

    A depth-m run (m <= n) draws a prefix of each stream of the depth-n
    run, so it grows the same trees to depth m, and its values are their
    depth-m folds bit for bit: the trajectory (Y_0, ..., Y_n) is n + 1
    runs.

    identity_root replaces the weight matrices of the first generation by
    the identity, whatever law drew them, with the same offspring law and
    the same draws (the seeded corruption of the fixed-point check).  The
    tilted martingale is this recursion run on model.tilt_model(model, t).

    With csv_path set, the batch is also written there as batch_to_csv
    writes it: each shard's process formats its rows, and they are written
    in shard order as they arrive.  A run that raises, for whatever reason,
    removes that file.
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

    processes = process_count(replicates)
    shards = _shards(replicates, processes)
    # one generator, re-keyed for every replicate; forked workers inherit it
    rng = np.random.Generator(np.random.Philox(_BUILD_SEED))

    def run(shard):
        # a product past the float range is refused below, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            y, e, c = _run_chunk(model, n, range(*shard), master_seed, rng, v, cap,
                                 identity_root)
        return y, e, c, None if csv_path is None else _csv_rows(shard, y, e, c)

    results = _in_workers(run, shards, processes)
    csv = None if csv_path is None else open(csv_path, "w", encoding="utf-8")
    try:
        if csv is not None:
            csv.write(_csv_header(model.p, model.is_complex))
        for (start, stop), (y, e, c, text) in zip(shards, results):
            overflowed = np.flatnonzero(~c & ~np.isfinite(y).all(axis=1))
            if len(overflowed):
                raise MatcascadeError(f"replicate {start + overflowed[0]} overflowed: "
                                      f"its depth-{n} value is not finite")
            values[start:stop], extinct[start:stop], capped[start:stop] = y, e, c
            if csv is not None:
                csv.write(text)
        if csv is not None:
            csv.close()
    except BaseException:
        if csv is not None:
            csv.close()
            os.remove(csv_path)
        raise
    finally:
        results.close()  # ends the workers before a refusal is raised
    return SampleBatch(n=n, values=values, extinct=extinct, capped=capped)


# ---------------------------------------------------------------------------
# batch serialization

def _float_columns(values):
    """The (R, p) values as float64 columns, re/im interleaved when complex."""
    return np.ascontiguousarray(values).view(np.float64)


_FLAG_TEXT = ("0,0", "1,0", "0,1", "1,1")  # extinct + 2 capped -> CSV flag columns


def _csv_header(p, complex_values):
    """The CSV header line: replicate, extinct, capped, then the Y columns,
    re/im pairs when complex."""
    if complex_values:
        cols = [f"Y{j+1}_re,Y{j+1}_im" for j in range(p)]
    else:
        cols = [f"Y{j+1}" for j in range(p)]
    return "replicate,extinct,capped," + ",".join(cols) + "\n"


def _csv_rows(shard, values, extinct, capped):
    """The CSV lines of the replicates range(*shard), whose values and flags
    these are: formatted column by column, the repr of each float, then one
    join per row."""
    flags = map(_FLAG_TEXT.__getitem__, (extinct + 2 * capped).tolist())
    cols = (map(float.__repr__, col) for col in _float_columns(values).T.tolist())
    return "\n".join(map(",".join, zip(map(str, range(*shard)), flags, *cols))) + "\n"


def batch_to_csv(batch, path):
    """CSV: replicate, extinct_flag, capped_flag, then Y columns.

    Complex batches write re/im column pairs.  Floats use repr so a
    rerun with identical flags reproduces the file bytes; simulate_batch
    writes the same bytes through its csv_path.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(_csv_header(batch.p, np.iscomplexobj(batch.values)))
        # rows become Python floats and text one shard at a time, to bound
        # memory, and each shard goes to the file in one write
        for start, stop in _shards(batch.replicates, 1):
            f.write(_csv_rows((start, stop), batch.values[start:stop],
                              batch.extinct[start:stop], batch.capped[start:stop]))


def batch_to_binary(batch, path):
    """Compact binary layout.

    Header (BATCH_HEADER, 28 bytes): magic 'MCSB', uint32 version, uint32 p,
    uint64 R, uint32 n, uint8 field tag (0 real, 1 complex), 3 pad bytes;
    then R flag bytes (bit 0 extinct, bit 1 capped); then the value matrix
    as little-endian float64, row-major, re/im interleaved when complex.
    """
    flags = (batch.extinct.astype(np.uint8)
             | (batch.capped.astype(np.uint8) << 1))
    with open(path, "wb") as f:
        f.write(BATCH_HEADER.pack(BATCH_MAGIC, BATCH_VERSION, batch.p, batch.replicates,
                                  batch.n, int(np.iscomplexobj(batch.values))))
        f.write(flags.tobytes())
        f.write(_float_columns(batch.values).astype("<f8").tobytes())


def batch_from_binary(path):
    """Read a batch written by batch_to_binary; MatcascadeError unless the
    file is one, of exactly the length its header implies, whose rows
    set no flag bit above bit 1, are not both extinct and capped, and
    hold finite values unless capped."""
    with open(path, "rb") as f:
        blob = f.read()
    off = BATCH_HEADER.size
    if len(blob) < off or blob[:4] != BATCH_MAGIC:
        raise MatcascadeError("not a batch file (bad magic or short header)")
    _, version, p, r, n, cx = BATCH_HEADER.unpack_from(blob)
    if version != BATCH_VERSION:
        raise MatcascadeError(f"unsupported batch version {version}")
    width = 2 * p if cx else p
    expected = off + r + 8 * r * width
    if len(blob) != expected:
        raise MatcascadeError(
            f"batch file has {len(blob)} bytes, its header implies {expected}")
    # views into blob, which a slice would copy
    flags = np.frombuffer(blob, dtype=np.uint8, count=r, offset=off)
    payload = np.frombuffer(blob, dtype="<f8", offset=off + r).reshape(r, width)
    capped = (flags & 2).astype(bool)
    for bad, what in ((flags > 3, "sets a flag bit above bit 1"),
                      (flags == 3, "is flagged both extinct and capped"),
                      (~capped & ~np.isfinite(payload).all(axis=1),
                       "holds a non-finite value but is not capped")):
        if bad.any():
            raise MatcascadeError(f"batch file row {np.argmax(bad)} {what}")
    return SampleBatch(n=n, values=(payload.view(complex) if cx else payload).copy(),
                       extinct=(flags & 1).astype(bool), capped=capped)
