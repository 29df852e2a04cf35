"""Superstep kernels over the edge table: PageRank, CC, LPA, BFS, k-core,
SSSP, HITS, Katz, MIS.

Each kernel is defined once, as a vertex program (SURVEY.md §2.12, §4.3)
over a vertex slice ``v`` — ``v.ids`` its ascending global ids, ``v.deg``
their out-degrees. ``init(v)`` gives the state columns and
``done(metric)`` is the stop test. A superstep runs the kernel's
``phases`` in order, each one message reduce (:class:`_Phase`):

- ``scalar(state, v)``: a per-slice value that ``apply`` needs summed
  over the graph;
- ``emit(state, v)``: the per-vertex values the messages read;
- ``msg(emitted, src, dst, *w) -> (key, value)``: one message per edge.
  A push reads src-side values and keys by dst; a ``pull`` reads
  dst-side values and keys by src; ``msg=None`` sums the scalar alone;
- ``combine``: ``sum``, ``count`` or ``min``, how messages to a key fold;
- ``apply(state, incoming, v, scalar)``: the new state and the metric.

Most kernels are one push. MIS is two pushes; HITS is a push, a pull and
the sum of its two L2 norms.

Two executors run the same definitions, picked by ``reduce``:

- ``"local"``: the whole graph as one slice. (src, dst[, w]) are pulled
  to the driver once, straight from the blocks of an already-materialized
  input (no Ray Data job; ``utils.pinned``), every reduce is one
  in-process numpy pass (``np.bincount`` / ``np.minimum.at``), and the
  state is a dense V-sized array on the driver. LPA
  (``_Kernel.recount_dirty``) recounts after its first superstep only the
  vertices with an in-neighbour whose label changed, reading their
  in-edge segments from a copy of the edges sorted by dst.
- ``"csr"``: the CSR actor engine (csr_engine.py), P ``src % P`` slices
  hosted by W worker actors, built in a temporary workdir for the one
  run and shut down after it.

``reduce="auto"`` (the default) picks ``local`` at or below
LOCAL_KERNEL_MAX_EDGES when its driver arrays fit the driver budget
(``utils.on_driver``), and ``csr`` otherwise.

Hub skew is handled where the messages are produced: the CSR engine
pre-combines each (p, q) partition pair with :func:`_fold`, so a mega-hub
dst costs one value per sending partition however many in-edges it has
(Scarlett, EuroSys 2011: combine at the producer rather than salt-split a
hot key across a shuffle).

Both executors run every kernel through one superstep loop (:func:`_run`),
which owns checkpoint setup, the fingerprint, resume, the history rows
and the stop test. Content blobs never enter this loop.

Reference analogs: PageRank ↔ in-citation analytics (CitationGraphs.go:
3947-3961, 4035-4049); CC/LPA ↔ community extraction + hard assignment
(2873-2875, 3236-3259); semantics pinned by graph/oracle.py.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pyarrow as pa
import ray  # not ray.data: CSR workers import this module (see utils)

from ..state.checkpoints import CheckpointManager
from ..utils import collect_table, on_driver, pinned
from .oracle import mis_priority

# ``reduce="auto"`` runs "local" at or below this E (when the graph fits
# the driver budget) and "csr" above it.
# PageRank per superstep on a 4-CPU host (BENCH/BASELINE.md round 8):
# local 2-4 ms vs CSR 10-11 ms at E=115k; at E=5M, V=200k local 80-84 ms
# vs CSR 48-54 ms, after a 1.5-3.4 s CSR build that local's one-step
# 0.3-0.4 s edge pull undercuts for tens of supersteps. The local pull
# holds two int64 E arrays (64 MB at the threshold).
LOCAL_KERNEL_MAX_EDGES = 4_000_000

UNREACHED = np.iinfo(np.int64).max
_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class KernelResult:
    state: np.ndarray  # final per-vertex values, dense over id 0..V-1
    iterations: int
    converged: bool
    history: list[dict] = field(default_factory=list)

    def to_dataset(self, value_col: str) -> ray.data.Dataset:
        from ray.data import from_arrow

        ids = np.arange(len(self.state), dtype=np.int64)
        return from_arrow(
            pa.table({"id": pa.array(ids), value_col: pa.array(self.state)})
        )


def edge_fingerprint(num_vertices: int, num_edges: int, tag: str = "") -> str:
    return hashlib.sha1(f"{tag}|V={num_vertices}|E={num_edges}".encode()).hexdigest()[
        :16
    ]


def edge_checksum(eds: ray.data.Dataset, weight_col: str | None = None) -> int:
    """Order-independent edge-set checksum (sum of per-edge mixes mod 2^61)
    — distinguishes different edge sets with identical (V, E) so a resume
    cannot silently load another graph's checkpoint. When ``weight_col`` is
    given the weights are mixed into each per-edge term, so two weightings
    of the SAME (src, dst) set get distinct fingerprints (weighted kernels
    like ``sssp`` must pass it or a re-weighted resume silently loads the
    old weighting's distances). One extra pass; only computed when
    checkpointing is enabled."""
    return edge_checksum_and_count(eds, weight_col)[0]


_CHECKSUM_MOD = (1 << 61) - 1


def _checksum(src: np.ndarray, dst: np.ndarray, w: np.ndarray | None = None) -> int:
    """The edge checksum of one batch of edges (:func:`edge_checksum`):
    the sum of its per-edge mixes mod 2^61. Batch sums add up mod 2^61 to
    the same value however the edges are split into batches."""
    src, dst = src.astype(np.uint64), dst.astype(np.uint64)
    with np.errstate(over="ignore"):
        mix = (src * np.uint64(0x9E3779B97F4A7C15)) ^ (
            dst * np.uint64(0xC2B2AE3D27D4EB4F)
        )
        if w is not None:
            mix = mix + w.astype(np.uint64) * np.uint64(0xD6E8FEB86659FD93)
    # each term is < 2^61, so a uint64 sum of 8 or more would wrap mod
    # 2^64 and make the checksum depend on the block layout; the 32-bit
    # halves sum exactly for any batch under 2^32 rows
    term = mix % np.uint64(_CHECKSUM_MOD)
    hi = int(np.sum(term >> np.uint64(32)))
    lo = int(np.sum(term & np.uint64(0xFFFFFFFF)))
    return ((hi << 32) + lo) % _CHECKSUM_MOD


def edge_checksum_and_count(
    eds: ray.data.Dataset, weight_col: str | None = None
) -> tuple[int, int]:
    """``(checksum, num_edges)`` in the same single column-pruned pass —
    callers that need E for sizing decisions (CsrEngine worker count) get
    it for free."""
    cols = ["src", "dst"] + ([weight_col] if weight_col else [])

    def part(batch: pa.Table) -> pa.Table:
        c = _checksum(*(batch[k].to_numpy(zero_copy_only=False) for k in cols))
        return pa.table({"c": pa.array([c]), "n": pa.array([batch.num_rows])})

    total = 0
    count = 0
    for b in eds.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        total = (total + sum(b["c"].to_pylist())) % _CHECKSUM_MOD
        count += int(np.sum(b["n"].to_numpy()))
    return total, count


# ---------------------------------------------------------------------------
# Message reduce: one combine, shared by every executor
# ---------------------------------------------------------------------------


def _fold(combine: str, key: np.ndarray, val, size: int) -> np.ndarray:
    """Fold (key, val) messages into one value per key in [0, size):
    ``sum`` (float64), ``count`` (int64, ``val`` ignored) or ``min``
    (int64, UNREACHED where no message arrived)."""
    if combine == "sum":
        return np.bincount(key, weights=val, minlength=size)
    if combine == "count":
        return np.bincount(key, minlength=size)
    out = _identity(combine, size)
    np.minimum.at(out, key, val)
    return out


def _identity(combine: str, size: int) -> np.ndarray:
    """The fold of no messages."""
    if combine == "sum":
        return np.zeros(size)
    return np.full(size, UNREACHED if combine == "min" else 0, dtype=np.int64)


def _fold_sparse(combine: str, key: np.ndarray, val) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_fold` over arbitrary int64 keys: (distinct keys, values)."""
    if combine == "count":
        return np.unique(key, return_counts=True)
    u, inv = np.unique(key, return_inverse=True)
    return u, _fold(combine, inv, val, len(u))


def _merge(combine: str, out: np.ndarray, key: np.ndarray, val) -> None:
    """Fold one pre-combined partial (distinct ``key``) into ``out`` in
    place: partial mins are min-ed, partial sums and counts summed.
    ``val`` is viewed as ``out``'s dtype because an unpickled array's dtype
    is not numpy's canonical instance, and ``ufunc.at`` then misses its
    fast path: ~1 ms instead of ~0.03 ms per 10k-row partial (numpy 1.26)."""
    at = np.minimum.at if combine == "min" else np.add.at
    at(out, key, val.view(out.dtype))


def _merge_sparse(combine: str, parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Fold sparse partials ``[(keys, values)]`` into (ascending distinct
    keys, values); values ``None`` marks raw ``count`` messages, one per
    key. Sort and reduce segments: raw piles alone take one in-place sort
    and count segment lengths — no inverse array, no ``bincount``
    (BENCH/BASELINE.md r5, the 400M-edge LPA gather)."""
    if not parts:
        return _EMPTY, _EMPTY
    keys = np.concatenate([k for k, _ in parts])
    if all(v is None for _, v in parts):
        keys.sort()
        starts = _starts(keys)
        return keys[starts], np.diff(np.append(starts, len(keys)))
    vals = np.concatenate(
        [np.ones(len(k), dtype=np.int64) if v is None else v for k, v in parts]
    )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _starts(keys)
    at = np.minimum if combine == "min" else np.add
    return keys[starts], at.reduceat(vals[order], starts)


def _starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins in the sorted ``a``."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _columns(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """State columns as checkpoint shards hold them (bool masks as int64)."""
    return {k: v.astype(np.int64) if v.dtype == bool else v for k, v in state.items()}


def _restore(init: dict, loaded: dict) -> dict[str, np.ndarray]:
    """Checkpointed columns in the dtypes of the kernel's init state."""
    return {k: loaded[k].astype(v.dtype, copy=False) for k, v in init.items()}


class _Edges:
    """The local executor: the static edge table pulled to the driver ONCE,
    the message reduces over it, and the state of the kernel it runs, with
    the whole graph as one vertex slice."""

    num_partitions = 8  # checkpoint shards

    def __init__(
        self,
        edges: pa.Table,
        num_vertices: int,
        weight_col: str | None = None,
    ) -> None:
        self.num_vertices = num_vertices
        self.ids = np.arange(num_vertices, dtype=np.int64)
        cols = ["src", "dst"] + ([weight_col] if weight_col else [])
        self.arrays = tuple(_int64(edges[c]) for c in cols)
        if weight_col:
            _check_weights(self.arrays[2].min(initial=0))
        # the vertices to recount next superstep (``_Kernel.recount_dirty``);
        # None recounts all of them
        self.dirty = None
        self._grouped: dict[int, tuple] = {}

    @cached_property
    def deg(self) -> np.ndarray:
        return self.reduce(_out_degree, "count")

    @cached_property
    def fingerprint(self) -> str:
        """The graph's identity: (V, E) and the edge checksum, the value
        :func:`edge_checksum` gives for the same edges."""
        return edge_fingerprint(
            self.num_vertices, len(self.arrays[0]), str(_checksum(*self.arrays))
        )

    def edges_of(self, end: int, vertices: np.ndarray | None):
        """The edges whose ``end`` (0 src, 1 dst) is one of ``vertices``
        (ascending ids), grouped by it: the out- or in-edges of those
        vertices. ``vertices`` None gives every edge in table order. The
        first call for an ``end`` sorts a copy of the edges by it, with an
        ``indptr`` per vertex."""
        if vertices is None:
            return self.arrays
        if end not in self._grouped:
            key = self.arrays[end]
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(key, minlength=self.num_vertices), out=indptr[1:])
            order = np.argsort(key)
            self._grouped[end] = indptr, tuple(a[order] for a in self.arrays)
        indptr, arrays = self._grouped[end]
        lo = indptr[vertices]
        n = indptr[vertices + 1] - lo
        at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return tuple(a[at] for a in arrays)

    # -- the executor interface of _run --------------------------------------
    def init(self, kernel, mgr, resume: bool):
        self.kernel = kernel
        self.state = kernel.init(self)
        self.dirty = None
        ck = mgr.latest() if mgr and resume else None
        if ck is not None:
            self.state = _restore(self.state, ck.state)
        return ck

    def step(self, kernel, shard_dir: str | None = None) -> dict:
        before = self.state
        for ph in kernel.phases:
            inc = None
            if ph.msg is not None:
                emitted = ph.emit(self.state, self)
                inc = self.reduce(
                    ph.msg, ph.combine, *emitted, sparse=ph.sparse,
                    edges=self.edges_of(1, self.dirty),
                )
            self.state, metric = ph.apply(
                self.state, inc, self, ph.scalar(self.state, self)
            )
        if kernel.recount_dirty:  # mark the out-neighbours of the changed
            changed = np.flatnonzero(self.state[kernel.col] != before[kernel.col])
            dirty = np.zeros(self.num_vertices, dtype=bool)
            dirty[self.edges_of(0, changed)[1]] = True
            self.dirty = np.flatnonzero(dirty)
        return metric

    def save(self, mgr, it: int, metric: dict, parent: int | None) -> None:
        mgr.save(it, {"id": self.ids, **_columns(self.state)}, metric, parent)

    def assemble(self) -> dict[str, np.ndarray]:
        """The last kernel's output columns."""
        return self.kernel.result(self.state)

    def reduce(
        self, msg, combine: str, *state: np.ndarray, sparse: bool = False,
        edges: tuple[np.ndarray, ...] | None = None,
    ):
        """Run ``msg(state, src, dst[, w]) -> (key, value)`` over every
        edge (or the ``edges`` given) and fold by ``combine``: a dense
        length-V vector, or with ``sparse=True`` (keys beyond V) a
        (distinct keys, values) pair."""
        key, val = msg(state, *(self.arrays if edges is None else edges))
        if sparse:
            return _fold_sparse(combine, key, val)
        return _fold(combine, key, val, self.num_vertices)


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _slot(ids: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions in the ascending id slice ``ids`` of the ``targets`` it
    holds."""
    pos = np.searchsorted(ids, targets)
    hit = pos < len(ids)
    hit[hit] = ids[pos[hit]] == targets[hit]
    return pos[hit]


# Message functions: (emitted, src, dst, *w) -> (key, value); value None
# for ``count``. Only SSSP's reads the weights; the others ignore them, so
# any kernel runs on a weighted layout. Module-level so Ray ships them by
# reference.


def _to_dst(st, src, dst, *_):
    return dst, st[0][src]


def _to_src(st, src, dst, *_):
    return src, st[0][dst]


def _out_degree(st, src, dst, *_):
    return src, None


def _from_flagged(st, src, dst, *_):
    """One count along each out-edge of a flagged src."""
    return dst[st[0][src]], None


def _relax(st, src, dst, w):
    """dist[src] + w along the out-edges of frontier vertices."""
    dist, frontier = st
    live = frontier[src]
    return dst[live], dist[src[live]] + w[live]


def _hop(st, src, dst, *_):
    """BFS's relaxation: w ≡ 1, whatever weights the layout carries."""
    dist, frontier = st
    live = frontier[src]
    return dst[live], dist[src[live]] + 1


def _check_weights(w_min) -> None:
    """Run once where the weights are loaded, not per superstep."""
    if w_min is not None and w_min < 0:
        raise ValueError("sssp requires non-negative weights")


# ---------------------------------------------------------------------------
# The superstep loop
# ---------------------------------------------------------------------------


class _Phase:
    """One message reduce of a superstep (module docstring); keyword
    arguments set ``emit``, ``msg``, ``apply`` and the class defaults."""

    combine = "sum"
    # sparse: one message per edge keyed dst·M + x, x < M (LPA's pair count)
    sparse = False
    pull = False
    msg = None

    def __init__(self, **parts) -> None:
        self.__dict__.update(parts)

    def scalar(self, st: dict, v) -> float:
        """A per-slice value that ``apply`` needs summed over the graph."""
        return 0.0


class _Kernel(_Phase):
    """A vertex program (module docstring); by default its superstep is
    itself, one push. ``name`` labels its checkpoints; ``key`` holds the
    run parameters a resume must match (seeds, sources, k), ``params`` the
    ones it records."""

    # how the CSR engine merges one metric over partitions: counts sum,
    # residuals (``linf_residual``) take the max
    merge_metric = staticmethod(sum)
    # the local executor's dirty recount: after its first superstep, each
    # superstep reduces only the in-edges of the vertices with an
    # in-neighbour whose ``col`` changed in the last one. Exact for a
    # one-push kernel whose new value at a vertex reads only its
    # in-neighbours' values, and whose ``apply`` keeps the value of a
    # vertex that gets no message (LPA)
    recount_dirty = False
    key = ""
    params: dict | None = None

    @property
    def phases(self) -> tuple[_Phase, ...]:
        return (self,)

    def result(self, st: dict) -> dict[str, np.ndarray]:
        """The output columns, by name."""
        return {self.col: st[self.col]}


def _run(
    ex,
    kernel: _Kernel,
    max_iters: int,
    checkpoint_dir: str | None,
    resume: bool,
    keep_last: int | None,
    checkpoint_every: int = 1,
) -> tuple[int, bool, list[dict]]:
    """Run ``kernel`` on executor ``ex`` until ``kernel.done`` or
    ``max_iters``; returns ``(iterations, converged, history)``.

    The executor holds the state: ``init(kernel, mgr, resume) ->
    checkpoint | None`` (``mgr`` the run's CheckpointManager, or None
    without checkpoints; with ``resume`` the state starts from the latest
    complete checkpoint, if any, which it returns), ``step(kernel,
    shard_dir) -> metric`` and ``save(mgr, it, metric, parent)``, plus
    ``fingerprint`` (the graph's identity) and ``num_partitions``
    (checkpoint shards). A superstep due for a checkpoint gets its
    iteration directory as ``shard_dir``: the CSR executor writes its
    Arrow IPC shards there inside the superstep's last worker call, and
    its ``save`` then writes only the manifest; the local executor
    ignores it and ``save`` writes every shard. ``save``
    writes the shards ``step`` did not (a run that converges on a
    superstep that was not due), and always the manifest after every
    shard. Checkpoints hold every state column, so a resume continues
    bitwise-identically. A resume whose checkpoint metric already passes
    ``kernel.done`` under THIS run's parameters (e.g. its ``tol``, not the
    checkpointed run's) returns that state without another superstep (an
    extra one would break the resume ≡ uninterrupted invariant);
    otherwise it continues.
    ``iterations`` counts the supersteps completed, before and after a
    resume.
    """
    start = 0
    mgr = None
    if checkpoint_dir:
        fp = ex.fingerprint
        mgr = CheckpointManager(
            checkpoint_dir,
            kernel=kernel.name,
            fingerprint=f"{fp}|{kernel.key}" if kernel.key else fp,
            params=kernel.params,
            num_partitions=ex.num_partitions,
            keep_last=keep_last,
        )
    ck = ex.init(kernel, mgr, resume)
    if ck is not None:
        start = ck.iteration + 1
        if kernel.done(ck.manifest["metric"]):
            return start, True, []

    history: list[dict] = []
    converged = False
    for it in range(start, max_iters):
        due = mgr is not None and it % checkpoint_every == 0
        metric = ex.step(kernel, mgr.iter_dir(it) if due else None)
        converged = kernel.done(metric)
        history.append({"iteration": it, **metric})
        if due or (mgr and converged):
            ex.save(
                mgr,
                it,
                {**{k: float(v) for k, v in metric.items()}, "converged": converged},
                it - 1 if it > 0 else None,
            )
        if converged:
            break
    return start + len(history), converged, history


def _execute(
    edges: ray.data.Dataset,
    num_vertices: int,
    reduce: str,
    kernel: _Kernel,
    max_iters: int,
    checkpoint_dir: str | None,
    resume: bool,
    keep_last: int | None,
    checkpoint_every: int = 1,
    weight_col: str | None = None,
) -> tuple[dict[str, np.ndarray], int, bool, list[dict]]:
    """Run ``kernel`` on the executor ``reduce`` names (module docstring):
    ``(output columns, iterations, converged, history)``."""
    if reduce not in ("auto", "local", "csr"):
        raise ValueError(f"reduce must be 'auto', 'local' or 'csr', got {reduce!r}")
    cols = ["src", "dst"] + ([weight_col] if weight_col else [])
    # pin the blocks once (a Ray Data job only for a lazy input): the local
    # executor collects them, the CSR engine reads them twice and projects
    # each read itself
    eds, num_edges = pinned(edges, cols)
    run = (kernel, max_iters, checkpoint_dir, resume, keep_last, checkpoint_every)
    # local holds the int64 edge columns (and up to two sorted copies,
    # ``_Edges.edges_of``) plus about eight V-sized state, degree and
    # message columns on the driver
    if reduce == "local" or (
        reduce == "auto"
        and num_edges <= LOCAL_KERNEL_MAX_EDGES
        and on_driver(8 * (3 * num_edges * len(cols) + 8 * num_vertices))
    ):
        g = _Edges(collect_table(eds), num_vertices, weight_col)
        done = _run(g, *run)
        return g.assemble(), *done
    from .csr_engine import CsrEngine

    with tempfile.TemporaryDirectory(prefix="csr_engine_") as workdir:
        eng = CsrEngine(eds, num_vertices, workdir=workdir, weight_col=weight_col)
        try:
            done = _run(eng, *run)
            return eng.assemble(), *done
        finally:
            eng.shutdown()


def _kernel_result(edges, num_vertices, reduce, kernel, *run, **kw) -> KernelResult:
    out, *done = _execute(edges, num_vertices, reduce, kernel, *run, **kw)
    return KernelResult(out[kernel.col], *done)


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


class _PageRank(_Kernel):
    name, col = "pagerank", "rank"
    msg = staticmethod(_to_dst)
    merge_metric = staticmethod(max)

    def __init__(self, n: int, damping: float, tol: float, reset_ids=None) -> None:
        self.n, self.damping, self.tol = n, damping, tol
        self.params = {"damping": damping, "tol": tol}
        self.seeds = None
        if reset_ids is not None:
            seeds = np.unique(np.asarray(reset_ids, dtype=np.int64))
            if seeds.size == 0:
                raise ValueError("personalized pagerank needs ≥1 seed vertex")
            if np.any((seeds < 0) | (seeds >= n)):
                raise ValueError("seed id outside [0, num_vertices)")
            self.seeds = seeds
            self.key = hashlib.sha1(seeds.tobytes()).hexdigest()[:8]

    def _r0(self, v) -> np.ndarray:
        """The personalized teleport vector: uniform over the seeds."""
        r0 = np.zeros(len(v.ids))
        r0[_slot(v.ids, self.seeds)] = 1.0 / len(self.seeds)
        return r0

    def init(self, v):
        if self.seeds is None:
            return {"rank": np.full(len(v.ids), 1.0 / self.n)}
        return {"rank": self._r0(v)}

    def emit(self, st, v):
        dangling = v.deg == 0
        contrib = st["rank"] / np.where(dangling, 1.0, v.deg)
        contrib[dangling] = 0.0
        return (contrib,)

    def scalar(self, st, v):
        return st["rank"][v.deg == 0].sum()  # the dangling mass

    def apply(self, st, sums, v, dangling_mass):
        ranks, d = st["rank"], self.damping
        if self.seeds is None:
            new_ranks = (1.0 - d) / self.n + d * (sums + dangling_mass / self.n)
        else:
            r0 = self._r0(v)
            new_ranks = (1.0 - d) * r0 + d * (sums + dangling_mass * r0)
        resid = float(np.max(np.abs(new_ranks - ranks), initial=0.0))
        return {"rank": new_ranks}, {"linf_residual": resid}

    def done(self, metric):
        return metric["linf_residual"] < self.tol


def pagerank(
    edges: ray.data.Dataset,
    num_vertices: int,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iters: int = 200,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
    reset_ids: "np.ndarray | list[int] | None" = None,
) -> KernelResult:
    """Power-iteration PageRank with uniform dangling-mass redistribution.

    ``reset_ids`` switches to PERSONALIZED PageRank: the teleport vector
    r0 is uniform over the seed set (0 elsewhere), ranks init at r0, and
    both the (1-d) restart and the dangling mass land on the seeds —
    new_rank = (1-d)·r0 + d·(sums + dangling_mass·r0). The seed set is
    mixed into the checkpoint fingerprint so a resume can't silently load
    another personalization's ranks. Matches
    graph/oracle.py:pagerank_oracle(reset_ids=...) allclose(1e-12).

    Per superstep: contribs = rank/out_deg shipped along out-edges →
    ``sum`` reduce → new_rank = (1-d)/V + d·(sum + dangling/V).
    Convergence: L-inf residual < tol (driver-side on the dense vector).
    Matches graph/oracle.py:pagerank_oracle to allclose(1e-6).
    ``reduce`` picks the executor (module docstring); "local" and "csr"
    differ only in float summation order.
    """
    kernel = _PageRank(num_vertices, damping, tol, reset_ids)
    return _kernel_result(
        edges, num_vertices, reduce, kernel, max_iters, checkpoint_dir,
        resume, checkpoint_keep_last, checkpoint_every,
    )


# ---------------------------------------------------------------------------
# Connected components (min-id label propagation)
# ---------------------------------------------------------------------------


class _MinLabel(_Kernel):
    name, col, combine = "cc", "component", "min"
    msg = staticmethod(_to_dst)

    def init(self, v):
        return {"component": v.ids}

    def emit(self, st, v):
        return (st["component"],)

    def apply(self, st, mins, v, _):
        labels = st["component"]
        new_labels = np.minimum(labels, mins)
        changed = int(np.count_nonzero(new_labels != labels))
        return {"component": new_labels}, {"changed": changed}

    def done(self, metric):
        return metric["changed"] == 0


def connected_components(
    edges_undirected: ray.data.Dataset,
    num_vertices: int,
    max_iters: int = 100,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Min-id label exchange until fixpoint; labels init to own id.

    ``edges_undirected`` must already contain both directions (use
    stages.edges.symmetrize_edges). Convergence = zero changed labels.
    Component id = min member id (exact-match vs oracle). Log-round
    pointer-doubling variants (PAPERS.md: CC in MapReduce) trade extra
    shuffles for fewer rounds; plain exchange keeps one ``min`` reduce
    per round.
    """
    return _kernel_result(
        edges_undirected, num_vertices, reduce, _MinLabel(), max_iters,
        checkpoint_dir, resume, checkpoint_keep_last,
    )


# ---------------------------------------------------------------------------
# Community label propagation (synchronous, neighbor mode, min-tie-break)
# ---------------------------------------------------------------------------


class _LabelPropagation(_Kernel):
    name, col, combine, sparse = "lpa", "label", "count", True
    recount_dirty = True

    def __init__(self, n: int) -> None:
        self.M = n + 1
        if self.M * (self.M + 1) >= np.iinfo(np.int64).max:
            raise ValueError(
                f"label_propagation supports V ≲ 3e9, got V={n}: its pair "
                "keys need cnt·M + M (M = V+1) to fit int64"
            )

    def init(self, v):
        return {"label": v.ids}

    def emit(self, st, v):
        return (st["label"],)

    def msg(self, st, src, dst, *_):
        return dst * self.M + st[0][src], None

    def apply(self, st, counts, v, _):
        """``counts`` arrive with ascending pairs (``np.unique``,
        :func:`_merge_sparse`), so each dst's pairs are one contiguous
        segment: a segment max, no scatter ``maximum.at``."""
        pair, cnt = counts
        M, labels = self.M, st["label"]
        enc = cnt.astype(np.int64, copy=False) * M + (M - 1 - pair % M)
        dst = pair // M
        starts = _starts(dst)
        new_labels = labels.copy()
        if len(starts):
            new_labels[dst[starts]] = M - 1 - np.maximum.reduceat(enc, starts) % M
        changed = int(np.count_nonzero(new_labels != labels))
        return {"label": new_labels}, {"changed": changed}

    def done(self, metric):
        return metric["changed"] == 0


def label_propagation(
    edges_undirected: ray.data.Dataset,
    num_vertices: int,
    max_rounds: int = 50,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Synchronous LPA: new label = mode of neighbor labels, tie → min.

    The engine's one sparse-key reduce: each edge sends its src's label
    keyed by pair = dst·M + label (M = V+1), a ``count`` reduce over the
    pairs gives per-(dst, label) counts, and encode-max-decode picks the
    argmax — key = cnt·M + (M-1-label), per-dst max decodes to (max count,
    min label). Valid while cnt·M + M fits int64, i.e. V ≲ 3e9.
    Deterministic by construction (exact-match vs oracle, FIXTURES.md F3);
    both executors are exact-identical.
    """
    kernel = _LabelPropagation(num_vertices)
    return _kernel_result(
        edges_undirected, num_vertices, reduce, kernel, max_rounds,
        checkpoint_dir, resume, checkpoint_keep_last,
    )


# ---------------------------------------------------------------------------
# BFS hop distance and weighted SSSP (frontier-gated min-plus relaxation)
# ---------------------------------------------------------------------------


class _Frontier(_Kernel):
    """The BFS/SSSP program: relax from the frontier until no distance
    improves; the frontier is a state column next to the distances."""

    combine = "min"

    def __init__(self, name: str, col: str, n: int, sources) -> None:
        src_ids = np.asarray(sources, dtype=np.int64)
        if src_ids.size == 0:
            raise ValueError(f"{name} needs at least one source vertex")
        if np.any((src_ids < 0) | (src_ids >= n)):
            raise ValueError("source id outside [0, num_vertices)")
        self.name, self.col, self.sources = name, col, src_ids
        self.msg = _relax if name == "sssp" else _hop
        self.key = hashlib.sha1(np.sort(src_ids).tobytes()).hexdigest()[:8]

    def init(self, v):
        dist = np.full(len(v.ids), UNREACHED, dtype=np.int64)
        frontier = np.zeros(len(v.ids), dtype=bool)
        at = _slot(v.ids, self.sources)
        dist[at] = 0
        frontier[at] = True
        return {self.col: dist, "frontier": frontier}

    def emit(self, st, v):
        return st[self.col], st["frontier"]

    def apply(self, st, mins, v, _):
        dist = st[self.col]
        new_dist = np.minimum(dist, mins)
        frontier = new_dist != dist
        fsize = int(np.count_nonzero(frontier))
        return {self.col: new_dist, "frontier": frontier}, {"frontier_size": fsize}

    def done(self, metric):
        return metric["frontier_size"] == 0


def bfs_hops(
    edges: ray.data.Dataset,
    num_vertices: int,
    sources: list[int] | np.ndarray,
    max_iters: int = 200,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Frontier BFS: hop distance from the nearest source, min-plus
    exchange until the frontier dries up. Unreached vertices keep
    ``UNREACHED`` (int64 max) — callers filter or map to NULL.

    Follows the reference's traversal-analytics shape (in-citation
    reachability walks, CitationGraphs.go:3947-3961) re-expressed as the
    same superstep round as :func:`connected_components`, with one BFS
    twist: only FRONTIER vertices (distance settled last round) emit
    messages, so each round ships O(frontier out-degree) rows, not O(E) —
    the 100-TB-scale property that makes level-synchronous BFS viable
    (total work across all rounds is O(E), like the sequential algorithm).
    Directed by default; pass a symmetrized edge table for undirected
    hops.
    """
    kernel = _Frontier("bfs", "hops", num_vertices, sources)
    return _kernel_result(
        edges, num_vertices, reduce, kernel, max_iters, checkpoint_dir,
        resume, checkpoint_keep_last,
    )


def sssp(
    edges_weighted: ray.data.Dataset,
    num_vertices: int,
    sources: list[int] | np.ndarray,
    weight_col: str = "w",
    max_iters: int = 10_000,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Single-source (or multi-source) shortest paths over NON-NEGATIVE
    integer edge weights: synchronous Bellman-Ford with the same frontier
    gating as :func:`bfs_hops` — only vertices whose distance settled
    last round emit relaxations, so total message work is O(E · rounds-a-
    vertex-improves), the distributed min-plus formulation (delta-
    stepping's bucket refinement is a driver-side scheduling layer this
    engine does not need at its V-fits-driver precondition). Unreached
    vertices keep ``UNREACHED``. ``bfs_hops`` is the w≡1 special case.
    The weight column is part of the checkpoint fingerprint, so a
    re-weighted resume cannot load the old weighting's distances.
    """
    kernel = _Frontier("sssp", "dist", num_vertices, sources)
    return _kernel_result(
        edges_weighted, num_vertices, reduce, kernel, max_iters,
        checkpoint_dir, resume, checkpoint_keep_last, weight_col=weight_col,
    )


# ---------------------------------------------------------------------------
# k-core decomposition (fixed k): iterative peeling by degree decrement
# ---------------------------------------------------------------------------


class _KCore(_Kernel):
    """Each superstep kills the alive vertices of degree < k, and each
    killed vertex sends one decrement along its out-edges. Decrements
    that reach dead vertices are harmless: dead degrees are zeroed."""

    name, col, combine = "kcore", "in_kcore", "count"
    msg = staticmethod(_from_flagged)

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.key = str(k)

    def init(self, v):
        return {"deg": v.deg.copy(), "alive": np.ones(len(v.ids), dtype=bool)}

    def _kill(self, st):
        return st["alive"] & (st["deg"] < self.k)

    def emit(self, st, v):
        return (self._kill(st),)

    def apply(self, st, lost, v, _):
        kill = self._kill(st)
        alive = st["alive"] & ~kill
        deg = st["deg"] - lost
        deg[~alive] = 0
        return {"deg": deg, "alive": alive}, {"killed": int(np.count_nonzero(kill))}

    def done(self, metric):
        return metric["killed"] == 0

    def result(self, st):
        return {self.col: st["alive"].astype(np.int64)}


def k_core(
    edges_undirected: ray.data.Dataset,
    num_vertices: int,
    k: int,
    max_iters: int = 10_000,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Maximal subgraph where every vertex keeps degree ≥ k — the classic
    peel, expressed as supersteps that DECREMENT: after the initial degree
    pass, only vertices REMOVED in a round emit messages (one count per
    neighbor), so total message volume across all rounds is O(E) — the
    property that makes distributed peeling viable at scale (recomputing
    full degrees each round would be O(E·rounds)).

    ``edges_undirected`` must contain both directions (symmetrize first);
    degree = count of outgoing rows per vertex in that table. Returns
    state[v] = 1 if v is in the k-core else 0.
    """
    return _kernel_result(
        edges_undirected, num_vertices, reduce, _KCore(k), max_iters,
        checkpoint_dir, resume, checkpoint_keep_last,
    )


# ---------------------------------------------------------------------------
# HITS (hubs / authorities)
# ---------------------------------------------------------------------------


@dataclass
class HitsResult:
    hub: np.ndarray
    auth: np.ndarray
    iterations: int
    converged: bool
    history: list[dict] = field(default_factory=list)


class _Hits(_Kernel):
    """A push of the hubs keyed by dst (raw authorities ``a``), a pull of
    ``a`` keyed by src (raw hubs ``h``), then a reduce of both squared L2
    norms that normalizes them: ``h`` exists only after the pull, so its
    norm cannot ride on it. ``h`` is pulled from the raw ``a``, whose
    scale cancels in the norm of ``h``."""

    name = "hits"
    merge_metric = staticmethod(max)

    def __init__(self, max_iters: int, tol: float) -> None:
        self.tol = tol
        self.params = {"max_iters": max_iters, "tol": tol}

    def init(self, v):
        return {"hub": np.ones(len(v.ids)), "auth": np.zeros(len(v.ids))}

    @property
    def phases(self):
        return (
            _Phase(emit=lambda st, v: (st["hub"],), msg=_to_dst,
                   apply=lambda st, a, v, _: ({**st, "a": a}, {})),
            _Phase(emit=lambda st, v: (st["a"],), msg=_to_src, pull=True,
                   apply=lambda st, h, v, _: ({**st, "h": h}, {})),
            _Phase(scalar=lambda st, v: np.array([st[c] @ st[c] for c in "ah"]),
                   apply=self._normalize),
        )

    def _normalize(self, st, _, v, sq):
        auth, hub = (
            st[c] / np.sqrt(n) if n > 0 else st[c] for c, n in zip("ah", sq)
        )
        resid = max(
            float(np.max(np.abs(auth - st["auth"]), initial=0.0)),
            float(np.max(np.abs(hub - st["hub"]), initial=0.0)),
        )
        return {"hub": hub, "auth": auth}, {"linf_residual": resid}

    def done(self, metric):
        return self.tol > 0 and metric["linf_residual"] < self.tol

    def result(self, st):
        return {"hub": st["hub"], "auth": st["auth"]}


def hits(
    edges: ray.data.Dataset,
    num_vertices: int,
    max_iters: int = 20,
    tol: float = 0.0,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> HitsResult:
    """HITS (Kleinberg hubs/authorities) as two ``sum`` reduces per
    superstep over the static directed edge table, each L2-normalized:

        auth_raw[d] = Σ_{(s,d)∈E} hub[s]    (a push keyed by dst)
        hub_raw[s]  = Σ_{(s,d)∈E} auth[d]   (a pull keyed by src)

    Both norms come from per-slice sums added in slice order.

    With ``tol=0`` runs exactly ``max_iters`` rounds (the oracle-parity
    convention); with ``tol>0`` stops early when both vectors' L-inf
    change < tol. Matches graph/oracle.py:hits_oracle to allclose(1e-9)
    per the equivalence tests. Checkpoints hold both vectors, so a resume
    continues mid-power-iteration bitwise-identically."""
    out, *done = _execute(
        edges, num_vertices, reduce, _Hits(max_iters, tol), max_iters,
        checkpoint_dir, resume, checkpoint_keep_last,
    )
    return HitsResult(out["hub"], out["auth"], *done)


# ---------------------------------------------------------------------------
# Katz centrality
# ---------------------------------------------------------------------------


class _Katz(_Kernel):
    name, col = "katz", "katz"
    msg = staticmethod(_to_dst)
    merge_metric = staticmethod(max)

    def __init__(self, alpha: float, beta: float, tol: float) -> None:
        self.alpha, self.beta, self.tol = alpha, beta, tol
        self.params = {"alpha": alpha, "beta": beta, "tol": tol}

    def init(self, v):
        return {"katz": np.full(len(v.ids), self.beta, dtype=np.float64)}

    def emit(self, st, v):
        return (st["katz"],)

    def apply(self, st, sums, v, _):
        new_x = self.beta + self.alpha * sums
        resid = float(np.max(np.abs(new_x - st["katz"]), initial=0.0))
        return {"katz": new_x}, {"linf_residual": resid}

    def done(self, metric):
        return self.tol > 0 and metric["linf_residual"] < self.tol


def katz_centrality(
    edges: ray.data.Dataset,
    num_vertices: int,
    alpha: float = 0.05,
    beta: float = 1.0,
    tol: float = 0.0,
    max_iters: int = 30,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Katz centrality by fixed-point iteration over the directed edge
    table (the attenuated-walk-count generalization of the reference's
    in-citation counting, CitationGraphs.go:3947-3961):

        x_0    = β·1
        x_{t+1}[v] = β + α · Σ_{(s,v)∈E} x_t[s]

    Converges to (I - αAᵀ)⁻¹ β1 for α < 1/λ_max. One ``sum`` reduce per
    superstep keyed by dst (the PageRank exchange without the out-degree
    division or dangling redistribution). With ``tol=0`` runs exactly
    ``max_iters`` supersteps — the oracle-parity convention for the
    recursive-CTE SQL twin."""
    return _kernel_result(
        edges, num_vertices, reduce, _Katz(alpha, beta, tol), max_iters,
        checkpoint_dir, resume, checkpoint_keep_last,
    )


# ---------------------------------------------------------------------------
# Maximal independent set (deterministic Luby — fixed bijective priorities)
# ---------------------------------------------------------------------------


def _undecided_priority(st, src, dst, *_):
    """Messages to decided vertices are ignored by ``_Mis._join``."""
    undec, p = st
    live = undec[src]
    return dst[live], p[src[live]]


class _Mis(_Kernel):
    """Two pushes: the min undecided-neighbor priority (undecided vertices
    that beat it join), then a count of joined neighbors (undecided
    vertices that get one are dominated). ``join`` lives only between
    the two."""

    name, col = "mis", "state"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.key = str(seed)
        self.params = {"seed": seed}

    def init(self, v):
        return {"state": np.zeros(len(v.ids), dtype=np.int64)}

    @property
    def phases(self):
        return (
            _Phase(emit=self._priorities, msg=_undecided_priority,
                   combine="min", apply=self._join),
            _Phase(emit=lambda st, v: (st["join"],), msg=_from_flagged,
                   combine="count", apply=self._dominate),
        )

    def _priorities(self, st, v):
        return st["state"] == 0, mis_priority(v.ids, self.seed)

    def _join(self, st, mins, v, _):
        state = st["state"].copy()
        join = (state == 0) & (mis_priority(v.ids, self.seed) < mins)
        state[join] = 1
        return {"state": state, "join": join}, {}

    def _dominate(self, st, joined, v, _):
        state = st["state"]
        state[(joined > 0) & (state == 0)] = 2
        return {"state": state}, {"undecided": int(np.count_nonzero(state == 0))}

    def done(self, metric):
        return metric["undecided"] == 0


def maximal_independent_set(
    edges_undirected: ray.data.Dataset,
    num_vertices: int,
    seed: int = 41,
    max_iters: int = 10_000,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    reduce: str = "auto",
    checkpoint_keep_last: int | None = None,
) -> KernelResult:
    """Deterministic parallel MIS over the symmetrized edge table —
    Luby's algorithm with FIXED priorities p(v) = ((v + seed) ·
    golden-odd) mod 2^64 (a bijection, so priorities are distinct and
    the result is the unique lexicographically-first MIS under that
    permutation; both the numpy oracle and the HUGEINT SQL twin compute
    the identical integers). Two message reduces per round over the
    static edges: (1) ``min`` undecided-neighbor priority keyed by dst —
    an undecided vertex JOINS when its own priority beats it; (2) a
    ``count`` of joined neighbors — undecided neighbors of joiners become
    DOMINATED. States int64: 0 undecided / 1 in MIS / 2 dominated;
    isolated vertices join in round one."""
    return _kernel_result(
        edges_undirected, num_vertices, reduce, _Mis(seed), max_iters,
        checkpoint_dir, resume, checkpoint_keep_last,
    )
