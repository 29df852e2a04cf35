"""Superstep kernels over the edge table: PageRank, CC, LPA, BFS, k-core,
SSSP, HITS, Katz, MIS.

Execution model (SURVEY.md §2.12, §4.3): the per-vertex state (size V —
orders of magnitude smaller than the edge table) is a dense numpy array
on the driver, and each superstep is one message reduce over the static
edge table. A kernel writes its message function once,

    msg(state, src, dst[, w]) -> (key, value)

plus a combine — ``sum``, ``count`` or ``min`` — and :class:`_Edges`
folds the messages into a dense length-V vector with one of two
executors, picked by ``reduce``:

- ``"local"``: (src, dst[, w]) pulled to the driver once; every
  superstep is one in-process numpy pass (``np.bincount`` /
  ``np.minimum.at``). ``reduce="auto"`` (the default) picks it at or
  below LOCAL_KERNEL_MAX_EDGES.
- ``"driver"``: edge blocks pinned in the object store once; every
  superstep broadcasts the state via ``ray.put`` (zero-copy plasma reads
  in every task), runs ``msg`` per block in ``map_batches``, pre-combines
  each block with ``np.unique``, and streams the partials into the dense
  vector on the driver. No shuffle; valid whenever V fits the driver.

Hub skew is handled where the messages are produced: the per-block
pre-combine ships at most one row per distinct key per block, so a
mega-hub dst costs the driver merge one row per block however many
in-edges it has (Scarlett, EuroSys 2011: combine at the producer rather
than salt-split a hot key across a shuffle). The scale-out CSR engine
(csr_engine.py) pre-aggregates per (p, q) partition pair the same way.

Every kernel runs through one superstep loop (:func:`_run`), which owns
checkpoint setup, the checksum-keyed fingerprint, resume, the history
rows and the stop test. Content blobs never enter this loop.

Reference analogs: PageRank ↔ in-citation analytics (CitationGraphs.go:
3947-3961, 4035-4049); CC/LPA ↔ community extraction + hard assignment
(2873-2875, 3236-3259); semantics pinned by graph/oracle.py.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..state.checkpoints import CheckpointManager
from ..utils import collect_table

# Below this E the per-superstep Ray Data execution overhead (~0.1-0.5 s
# per map_batches round, measured) dwarfs the numpy compute, so
# ``reduce="auto"`` runs the "local" executor: (src, dst) pulled to the
# driver ONCE (two int64 arrays, ≤64 MB at the threshold; V already fits
# the driver by the broadcast engine's own precondition). Above it,
# "driver" — measured ~100x faster than a sort-based groupby(dst) reduce
# (0.3 s vs 29 s per superstep at E=2M, V=200k on 8 CPUs, BENCH/BASELINE.md).
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
        ids = np.arange(len(self.state), dtype=np.int64)
        return ray.data.from_arrow(
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
    of the SAME (src, dst) set get distinct fingerprints (the invariant the
    CSR engine enforces in ``CsrEngine.__init__``; weighted kernels like
    ``sssp`` must pass it or a re-weighted resume silently loads the old
    weighting's distances). One extra pass; only computed when
    checkpointing is enabled."""
    return edge_checksum_and_count(eds, weight_col)[0]


def edge_checksum_and_count(
    eds: ray.data.Dataset, weight_col: str | None = None
) -> tuple[int, int]:
    """``(checksum, num_edges)`` in the same single column-pruned pass —
    callers that need E for sizing decisions (CsrEngine worker count) get
    it for free."""
    mod = (1 << 61) - 1

    def part(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            mix = (src * np.uint64(0x9E3779B97F4A7C15)) ^ (
                dst * np.uint64(0xC2B2AE3D27D4EB4F)
            )
            if weight_col is not None:
                w = batch[weight_col].to_numpy(zero_copy_only=False).astype(
                    np.uint64
                )
                mix = mix + w * np.uint64(0xD6E8FEB86659FD93)
        return pa.table(
            {
                "c": pa.array([int(np.sum(mix % np.uint64(mod))) % mod]),
                "n": pa.array([len(src)]),
            }
        )

    total = 0
    count = 0
    for b in eds.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        total = (total + int(np.sum(b["c"].to_numpy()))) % mod
        count += int(np.sum(b["n"].to_numpy()))
    return total, count


# ---------------------------------------------------------------------------
# Message reduce: one combine, two executors
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
    u, inv = np.unique(key, return_inverse=True)
    return u, _fold(combine, inv, val, len(u))


class _Edges:
    """The static edge table and the executor that runs message reduces
    over it (module docstring)."""

    def __init__(
        self,
        edges: ray.data.Dataset,
        num_vertices: int,
        reduce: str,
        weight_col: str | None = None,
    ) -> None:
        if reduce not in ("auto", "local", "driver"):
            raise ValueError(
                f"reduce must be 'auto', 'local' or 'driver', got {reduce!r}"
            )
        self.num_vertices = num_vertices
        self.weight_col = weight_col
        self.cols = ["src", "dst"] + ([weight_col] if weight_col else [])
        # project and pin the blocks in the object store once
        self.ds = edges.select_columns(self.cols).materialize()
        self.num_edges = self.ds.count()
        self.arrays = None
        if reduce == "local" or (
            reduce == "auto" and self.num_edges <= LOCAL_KERNEL_MAX_EDGES
        ):
            tbl = collect_table(self.ds).combine_chunks()
            self.arrays = tuple(_int64(tbl[c]) for c in self.cols)

    def checksum(self) -> int:
        return edge_checksum(self.ds, self.weight_col)

    def reduce(self, msg, combine: str, *state: np.ndarray, sparse: bool = False):
        """Run ``msg(state, src, dst[, w]) -> (key, value)`` over every
        edge and fold by ``combine``: a dense length-V vector, or with
        ``sparse=True`` (keys beyond V) a (distinct keys, values) pair."""
        if self.arrays is not None:
            key, val = msg(state, *self.arrays)
            if sparse:
                return _fold_sparse(combine, key, val)
            return _fold(combine, key, val, self.num_vertices)
        ref = ray.put(state)
        cols = self.cols

        def partial(batch: pa.Table) -> pa.Table:
            key, val = msg(ray.get(ref), *(_int64(batch[c]) for c in cols))
            u, part = _fold_sparse(combine, key, val)
            return pa.table({"k": pa.array(u), "v": pa.array(part)})

        msgs = self.ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_size=1 << 20, batch_format="pyarrow"
        )
        # partials of a count are summed, partials of a min are min-ed
        if sparse:
            parts = [
                (_int64(b["k"]), b["v"].to_numpy(zero_copy_only=False))
                for b in msgs
            ]
            if not parts:
                return _EMPTY, _EMPTY
            ks, vs = zip(*parts)
            merge = "min" if combine == "min" else "sum"
            return _fold_sparse(merge, np.concatenate(ks), np.concatenate(vs))
        out = _identity(combine, self.num_vertices)
        at = np.minimum.at if combine == "min" else np.add.at
        for b in msgs:
            at(out, _int64(b["k"]), b["v"].to_numpy(zero_copy_only=False))
        return out


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


# Message functions: (state, src, dst[, w]) -> (key, value); value None
# for ``count``. Module-level so Ray ships them by reference.


def _to_dst(st, src, dst):
    return dst, st[0][src]


def _to_src(st, src, dst):
    return src, st[0][dst]


def _out_degree(st, src, dst):
    return src, None


# ---------------------------------------------------------------------------
# The superstep loop
# ---------------------------------------------------------------------------


def _run(
    g: _Edges,
    kernel: str,
    tag: str,
    state: dict[str, np.ndarray],
    step,
    max_iters: int,
    checkpoint_dir: str | None,
    resume: bool,
    keep_last: int | None,
    params: dict | None = None,
    checkpoint_every: int = 1,
) -> tuple[dict[str, np.ndarray], int, bool, list[dict]]:
    """Run ``step`` until it reports convergence or ``max_iters``.

    ``state`` maps each checkpoint column to its initial per-vertex array;
    ``step(state) -> (state, metric, converged)`` runs one superstep.
    Checkpoints hold the whole state, keyed by ``tag`` + the edge checksum,
    so a resume continues bitwise-identically; resuming a converged run
    returns its final state without another superstep (an extra one would
    break the resume ≡ uninterrupted invariant). Returns ``(state,
    iterations, converged, history)``.
    """
    n = g.num_vertices
    start = 0
    mgr = None
    if checkpoint_dir:
        mgr = CheckpointManager(
            checkpoint_dir,
            kernel=kernel,
            fingerprint=edge_fingerprint(n, g.num_edges, f"{tag}|{g.checksum()}"),
            params=params,
            keep_last=keep_last,
        )
        ck = mgr.latest() if resume else None
        if ck is not None:
            # restore each column's dtype (bool masks are saved as int64)
            state = {
                k: ck.state[k].astype(v.dtype, copy=False) for k, v in state.items()
            }
            start = ck.iteration + 1
            if ck.manifest["metric"].get("converged"):
                return state, start, True, []

    history: list[dict] = []
    converged = False
    it = start
    for it in range(start, max_iters):
        state, metric, converged = step(state)
        history.append({"iteration": it, **metric})
        if mgr and (it % checkpoint_every == 0 or converged):
            cols = {
                k: v.astype(np.int64) if v.dtype == bool else v
                for k, v in state.items()
            }
            mgr.save(
                it,
                {"id": np.arange(n, dtype=np.int64), **cols},
                {**{k: float(v) for k, v in metric.items()}, "converged": converged},
                parent=it - 1 if it > 0 else None,
            )
        if converged:
            break
    return state, it + 1, converged, history


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


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
    ``reduce`` picks the executor (module docstring); "local" and
    "driver" differ only in float summation order.
    """
    g = _Edges(edges, num_vertices, reduce)
    out_deg = g.reduce(_out_degree, "count").astype(np.float64)
    dangling = out_deg == 0.0
    safe_deg = np.where(dangling, 1.0, out_deg)

    r0 = None
    seed_tag = ""
    if reset_ids is not None:
        seeds = np.unique(np.asarray(reset_ids, dtype=np.int64))
        if seeds.size == 0:
            raise ValueError("personalized pagerank needs ≥1 seed vertex")
        if np.any((seeds < 0) | (seeds >= num_vertices)):
            raise ValueError("seed id outside [0, num_vertices)")
        r0 = np.zeros(num_vertices)
        r0[seeds] = 1.0 / len(seeds)
        seed_tag = "|" + hashlib.sha1(seeds.tobytes()).hexdigest()[:8]

    def step(st):
        ranks = st["rank"]
        contrib = ranks / safe_deg
        contrib[dangling] = 0.0
        sums = g.reduce(_to_dst, "sum", contrib)
        dangling_mass = ranks[dangling].sum()
        if r0 is None:
            new_ranks = (1.0 - damping) / num_vertices + damping * (
                sums + dangling_mass / num_vertices
            )
        else:
            new_ranks = (1.0 - damping) * r0 + damping * (
                sums + dangling_mass * r0
            )
        resid = float(np.max(np.abs(new_ranks - ranks)))
        return {"rank": new_ranks}, {"linf_residual": resid}, resid < tol

    init = r0.copy() if r0 is not None else np.full(num_vertices, 1.0 / num_vertices)
    st, iters, converged, history = _run(
        g, "pagerank", "pr" + seed_tag, {"rank": init}, step, max_iters,
        checkpoint_dir, resume, checkpoint_keep_last,
        params={"damping": damping, "tol": tol},
        checkpoint_every=checkpoint_every,
    )
    return KernelResult(st["rank"], iters, converged, history)


# ---------------------------------------------------------------------------
# Connected components (min-id label propagation)
# ---------------------------------------------------------------------------


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
    g = _Edges(edges_undirected, num_vertices, reduce)

    def step(st):
        labels = st["component"]
        new_labels = np.minimum(labels, g.reduce(_to_dst, "min", labels))
        changed = int(np.count_nonzero(new_labels != labels))
        return {"component": new_labels}, {"changed": changed}, changed == 0

    st, iters, converged, history = _run(
        g, "cc", "cc", {"component": np.arange(num_vertices, dtype=np.int64)},
        step, max_iters, checkpoint_dir, resume, checkpoint_keep_last,
    )
    return KernelResult(st["component"], iters, converged, history)


# ---------------------------------------------------------------------------
# Community label propagation (synchronous, neighbor mode, min-tie-break)
# ---------------------------------------------------------------------------


def _label_pair(st, src, dst):
    labels = st[0]
    return dst * (len(labels) + 1) + labels[src], None


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
    M = num_vertices + 1
    if M * (M + 1) >= np.iinfo(np.int64).max:
        raise ValueError("V too large for int64 encode-max-decode; use map_groups")
    g = _Edges(edges_undirected, num_vertices, reduce)

    def step(st):
        labels = st["label"]
        pair, cnt = g.reduce(_label_pair, "count", labels, sparse=True)
        enc = cnt.astype(np.int64, copy=False) * M + (M - 1 - pair % M)
        keys = np.full(num_vertices, -1, dtype=np.int64)
        np.maximum.at(keys, pair // M, enc)
        new_labels = labels.copy()
        has_nbrs = keys >= 0
        new_labels[has_nbrs] = M - 1 - (keys[has_nbrs] % M)
        changed = int(np.count_nonzero(new_labels != labels))
        return {"label": new_labels}, {"changed": changed}, changed == 0

    st, iters, converged, history = _run(
        g, "lpa", "lpa", {"label": np.arange(num_vertices, dtype=np.int64)},
        step, max_rounds, checkpoint_dir, resume, checkpoint_keep_last,
    )
    return KernelResult(st["label"], iters, converged, history)


# ---------------------------------------------------------------------------
# BFS hop distance and weighted SSSP (frontier-gated min-plus relaxation)
# ---------------------------------------------------------------------------


def _relax(st, src, dst, w=None):
    """dist[src] + w along the out-edges of frontier vertices (BFS: w ≡ 1)."""
    dist, frontier = st
    live = frontier[src]
    if w is None:
        return dst[live], dist[src[live]] + 1
    if len(w) and w.min() < 0:
        raise ValueError("sssp requires non-negative weights")
    return dst[live], dist[src[live]] + w[live]


def _frontier_search(
    g: _Edges,
    kernel: str,
    col: str,
    sources,
    max_iters: int,
    checkpoint_dir: str | None,
    resume: bool,
    keep_last: int | None,
) -> KernelResult:
    """The BFS/SSSP body: relax from the frontier until no distance
    improves; the frontier is checkpointed with the distances."""
    src_ids = np.asarray(sources, dtype=np.int64)
    if src_ids.size == 0:
        raise ValueError(f"{kernel} needs at least one source vertex")
    n = g.num_vertices
    if np.any((src_ids < 0) | (src_ids >= n)):
        raise ValueError("source id outside [0, num_vertices)")
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[src_ids] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[src_ids] = True

    def step(st):
        dist = st[col]
        new_dist = np.minimum(dist, g.reduce(_relax, "min", dist, st["frontier"]))
        frontier = new_dist != dist
        fsize = int(np.count_nonzero(frontier))
        return {col: new_dist, "frontier": frontier}, {"frontier_size": fsize}, fsize == 0

    src_tag = hashlib.sha1(np.sort(src_ids).tobytes()).hexdigest()[:8]
    st, iters, converged, history = _run(
        g, kernel, f"{kernel}|{src_tag}", {col: dist, "frontier": frontier},
        step, max_iters, checkpoint_dir, resume, keep_last,
    )
    return KernelResult(st[col], iters, converged, history)


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
    g = _Edges(edges, num_vertices, reduce)
    return _frontier_search(
        g, "bfs", "hops", sources, max_iters, checkpoint_dir, resume,
        checkpoint_keep_last,
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
    g = _Edges(edges_weighted, num_vertices, reduce, weight_col=weight_col)
    return _frontier_search(
        g, "sssp", "dist", sources, max_iters, checkpoint_dir, resume,
        checkpoint_keep_last,
    )


# ---------------------------------------------------------------------------
# k-core decomposition (fixed k): iterative peeling by degree decrement
# ---------------------------------------------------------------------------


def _peel(st, src, dst):
    kill, alive = st
    return dst[kill[src] & alive[dst]], None


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
    still-alive neighbor), so total message volume across all rounds is
    O(E) — the property that makes distributed peeling viable at scale
    (recomputing full degrees each round would be O(E·rounds)).

    ``edges_undirected`` must contain both directions (symmetrize first);
    degree = count of outgoing rows per vertex in that table. Returns
    state[v] = 1 if v is in the k-core else 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = _Edges(edges_undirected, num_vertices, reduce)

    def step(st):
        deg, alive = st["deg"], st["alive"]
        kill = alive & (deg < k)
        n_kill = int(np.count_nonzero(kill))
        if n_kill == 0:
            return st, {"killed": 0}, True
        alive = alive & ~kill
        deg = deg - g.reduce(_peel, "count", kill, alive)
        deg[~alive] = 0
        return {"deg": deg, "alive": alive}, {"killed": n_kill}, False

    init = {
        "deg": g.reduce(_out_degree, "count"),
        "alive": np.ones(num_vertices, dtype=bool),
    }
    st, iters, converged, history = _run(
        g, "kcore", f"kcore{k}", init, step, max_iters, checkpoint_dir,
        resume, checkpoint_keep_last,
    )
    return KernelResult(st["alive"].astype(np.int64), iters, converged, history)


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


def _l2(v: np.ndarray) -> np.ndarray:
    n = float(np.sqrt(np.sum(v * v)))
    return v / n if n > 0 else v


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

        auth_raw[d] = Σ_{(s,d)∈E} hub[s]    (reduce keyed by dst)
        hub_raw[s]  = Σ_{(s,d)∈E} auth[d]   (reduce keyed by src)

    With ``tol=0`` runs exactly ``max_iters`` rounds (the oracle-parity
    convention); with ``tol>0`` stops early when both vectors' L-inf
    change < tol. Matches graph/oracle.py:hits_oracle to allclose(1e-9)
    per the equivalence tests. Checkpoints hold both vectors, so a resume
    continues mid-power-iteration bitwise-identically."""
    g = _Edges(edges, num_vertices, reduce)

    def step(st):
        auth = _l2(g.reduce(_to_dst, "sum", st["hub"]))
        hub = _l2(g.reduce(_to_src, "sum", auth))
        resid = max(
            float(np.max(np.abs(auth - st["auth"]))),
            float(np.max(np.abs(hub - st["hub"]))),
        )
        return {"hub": hub, "auth": auth}, {"linf_residual": resid}, (
            tol > 0 and resid < tol
        )

    init = {
        "hub": np.ones(num_vertices, dtype=np.float64),
        "auth": np.zeros(num_vertices, dtype=np.float64),
    }
    st, iters, converged, history = _run(
        g, "hits", "hits", init, step, max_iters, checkpoint_dir, resume,
        checkpoint_keep_last, params={"max_iters": max_iters, "tol": tol},
    )
    return HitsResult(st["hub"], st["auth"], iters, converged, history)


# ---------------------------------------------------------------------------
# Katz centrality
# ---------------------------------------------------------------------------


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
    g = _Edges(edges, num_vertices, reduce)

    def step(st):
        x = st["katz"]
        new_x = beta + alpha * g.reduce(_to_dst, "sum", x)
        resid = float(np.max(np.abs(new_x - x)))
        return {"katz": new_x}, {"linf_residual": resid}, tol > 0 and resid < tol

    st, iters, converged, history = _run(
        g, "katz", "katz", {"katz": np.full(num_vertices, beta, dtype=np.float64)},
        step, max_iters, checkpoint_dir, resume, checkpoint_keep_last,
        params={"alpha": alpha, "beta": beta, "tol": tol},
    )
    return KernelResult(st["katz"], iters, converged, history)


# ---------------------------------------------------------------------------
# Maximal independent set (deterministic Luby — fixed bijective priorities)
# ---------------------------------------------------------------------------


def _undecided_priority(st, src, dst):
    undec, p = st
    live = undec[src] & undec[dst]
    return dst[live], p[src[live]]


def _joined_neighbor(st, src, dst):
    return dst[st[0][src]], None


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
    from .oracle import mis_priority

    g = _Edges(edges_undirected, num_vertices, reduce)
    p = mis_priority(np.arange(num_vertices, dtype=np.int64), seed)

    def step(st):
        state = st["state"]
        undec = state == 0
        join = undec & (p < g.reduce(_undecided_priority, "min", undec, p))
        state[join] = 1
        dom = g.reduce(_joined_neighbor, "count", join) > 0
        state[dom & (state == 0)] = 2
        n_left = int(np.count_nonzero(state == 0))
        return {"state": state}, {"undecided": n_left}, n_left == 0

    st, iters, converged, history = _run(
        g, "mis", f"mis|{seed}", {"state": np.zeros(num_vertices, dtype=np.int64)},
        step, max_iters, checkpoint_dir, resume, checkpoint_keep_last,
        params={"seed": seed},
    )
    return KernelResult(st["state"], iters, converged, history)
