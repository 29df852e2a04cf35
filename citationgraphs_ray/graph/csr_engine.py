"""CSR actor-pool engine: fixed partitions hosted by a sized worker pool.

The scale-out counterpart of the broadcast engine (engine.py): it runs
the same kernel definitions — PageRank, CC, LPA, BFS, SSSP, k-core — on
the same superstep loop (``engine._run``), with each partition as one
vertex slice. Design (SURVEY.md §4.3, BASELINE.json north_rule):

- The edge table is hash-partitioned ONCE by ``src % P`` into partitioned
  Parquet (``part=<p>/``) — the resumable on-disk layout. **P is a property
  of the run** (recorded in every checkpoint manifest), not of the cluster.
- **W worker actors** (default ``min(session CPUs, P)``) each own the
  partitions ``{p : p % W == wid}`` — exactly
  how a fixed partitioned layout maps onto an N- vs 4N-node cluster. This
  sizing is load-bearing for scaling measurements: a *running* Ray actor
  reserves zero CPUs, so one-actor-per-partition would execute all P
  actors concurrently regardless of ``ray.init(num_cpus=...)`` and an
  8-vs-32-CPU experiment would silently measure the full host twice
  (observed: identical throughput at both "cluster sizes"). W sized to the
  session's CPU count restores a real parallelism limit — W
  single-threaded worker processes.
- Per owned partition, a worker builds once: the out-degrees and the
  out-edges grouped by destination partition q, each edge's dst a
  compact key — the index of its (q, local dst id) among the partition's
  distinct destinations — so one fold yields every per-(p, q) message
  vector back to back. Each q's local dst ids (``dq``) are exchanged to
  q's owner ONCE; supersteps ship **values only**.
- Superstep = BSP scatter/gather: each worker runs the kernel's message
  function once per owned partition, pre-combines it per (p, q) with
  ``engine._fold`` and bundles the slices into ONE plasma object per
  destination worker (≤ W² objects/superstep, not P² — 16× fewer
  ``ray.put``s when a P=32 run executes on W=8); receivers fetch exactly
  their bundles actor-to-actor, fold them in (q, p) order and apply. The
  driver only routes refs, sums per-partition scalars in partition order
  (so results do not depend on W) and merges the metrics.
- Checkpoints are **per partition** (not per worker): each worker writes
  shards of every state column for its owned partitions, the manifest
  (completion marker) is written last — so a run checkpointed at one
  cluster size resumes at another.

Rationale for raw actors: Ray Data's map_batches actor pools don't pin a
stable partition→actor assignment across iterations, so per-partition
mutable CSR state genuinely can't be expressed in the Dataset API — this is
the documented escape hatch. Everything around it (partitioning, layout,
message pre-aggregation) keeps the Dataset/groupby shapes.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from .engine import (
    _columns,
    _fold,
    _fold_sparse,
    _check_weights,
    _Frontier,
    _identity,
    _KCore,
    _LabelPropagation,
    _merge,
    _merge_sparse,
    _MinLabel,
    _PageRank,
    _restore,
    _run,
    edge_checksum_and_count,
)

# Auto worker sizing: every superstep pays a W-proportional coordination
# term (2W driver→actor RPCs + up to W² bundled message objects; on one
# box all through a shared plasma store) while per-worker compute is E/W,
# so small graphs want few workers. Measured on the 1.6M-edge headline
# graph at 32 session CPUs: PageRank 44.8 ms/step at W=4 vs 410 ms/step
# at W=32 — 9× end-to-end for the identical result. One worker per ~1M
# edges keeps the compute term dominant; explicit ``num_workers``
# overrides (the multi-node setting, where each node adds memory
# bandwidth and its own object store, may justify more).
CSR_EDGES_PER_WORKER = 1_000_000


def _sum_by_partition(dicts: list[dict[int, float]]) -> float:
    """Sum per-partition scalars in ascending partition order — float
    summation order (hence the global bit pattern) stays independent of how
    partitions are grouped onto workers."""
    merged: dict[int, float] = {}
    for d in dicts:
        merged.update(d)
    return sum(merged[p] for p in sorted(merged))


def partition_edges(
    edges: ray.data.Dataset,
    out_dir: str,
    num_partitions: int,
    weight_col: str | None = None,
) -> str:
    """Hash-partition the edge table by src % P into partitioned Parquet
    (optionally carrying an integer edge-weight column for SSSP)."""

    def add_part(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part", pa.array((src % num_partitions).astype(np.int64))
        )

    cols = ["src", "dst"] + ([weight_col] if weight_col else [])
    (
        edges.select_columns(cols)
        .map_batches(add_part, batch_format="pyarrow")
        .write_parquet(out_dir, partition_cols=["part"])
    )
    return out_dir


class _Partition:
    """One hash partition: a vertex slice (``ids``, ``deg``) for the
    kernels of engine.py, its routed out-edges and its state (a plain
    object, not an actor)."""

    def __init__(self, pid: int, P: int, V: int) -> None:
        self.pid = pid
        self.P = P
        self.V = V
        n_local = (V - pid + P - 1) // P
        self.ids = np.arange(n_local, dtype=np.int64) * P + pid
        self.state: dict[str, np.ndarray] = {}
        self.in_dq: dict[int, np.ndarray] = {}  # src partition p -> dq

    def build(self, edge_dir: str, weight_col: str | None = None) -> int:
        part_dir = os.path.join(edge_dir, f"part={self.pid}")
        cols = ["src", "dst"] + ([weight_col] if weight_col else [])
        if os.path.isdir(part_dir):
            tbl = pq.read_table(part_dir, columns=cols)
        else:  # partition with no edges
            tbl = pa.table({c: pa.array([], type=pa.int64()) for c in cols})
        src, dst, *w = (tbl[c].to_numpy().astype(np.int64) for c in cols)
        for x in w:
            _check_weights(x.min(initial=0))
        local = src // self.P
        order = np.argsort(local, kind="stable")
        local, dst = local[order], dst[order]
        self.deg = np.bincount(local, minlength=len(self.ids))
        # out-edges grouped by destination partition (stable, so each
        # message key sums its edges in local-src order)
        by_q = np.argsort(dst % self.P, kind="stable")
        self.src = local[by_q]
        self.w = tuple(x[order][by_q] for x in w)
        d = dst[by_q]
        stride = self.V // self.P + 1
        dests, self.dst = np.unique(
            (d % self.P) * stride + d // self.P, return_inverse=True
        )
        self.dq = dests % stride
        # destination partition q's compact keys are [off[q], off[q + 1]),
        # its edges [eoff[q], eoff[q + 1])
        self.off = np.searchsorted(dests // stride, np.arange(self.P + 1))
        self.eoff = np.searchsorted(d % self.P, np.arange(self.P + 1))
        return len(src)


@ray.remote(num_cpus=0)
class CsrWorker:
    """Owns partitions {p : p % W == wid}; single-threaded numpy inside.
    Executes one kernel of engine.py at a time: ``init``, then one
    ``scatter`` and one ``gather`` per superstep.

    num_cpus=0: the TRUE parallelism limit is the worker count W (that many
    single-threaded processes exist, period); holding scheduler CPU slots
    for the actors' lifetime would starve any Ray Data stage sharing the
    session (measured deadlock under pytest's 4-CPU session)."""

    def __init__(self, wid: int, num_workers: int, P: int, V: int) -> None:
        self.W = num_workers
        self.P = P
        self.parts = {
            p: _Partition(p, P, V) for p in range(P) if p % num_workers == wid
        }

    # -- setup --------------------------------------------------------------
    def build(self, edge_dir: str, weight_col: str | None = None) -> int:
        return sum(
            pt.build(edge_dir, weight_col) for pt in self.parts.values()
        )

    def route_dq(self) -> dict:
        """One-time routing exchange: {(p, q): ref(dq)} for owned p."""
        return {
            (p, q): ray.put(pt.dq[pt.off[q] : pt.off[q + 1]])
            for p, pt in self.parts.items()
            for q in range(self.P)
        }

    def set_incoming_dq(self, keys: list, *dqs: np.ndarray) -> bool:
        for (p, q), dq in zip(keys, dqs):
            self.parts[q].in_dq[p] = dq
        return True

    def get_states(self) -> dict[int, np.ndarray]:
        return {p: self.kernel.result(pt.state) for p, pt in self.parts.items()}

    # -- supersteps -----------------------------------------------------------
    def init(self, kernel) -> bool:
        self.kernel = kernel
        for pt in self.parts.values():
            pt.state = kernel.init(pt)
        return True

    def _bundle(self, slices: dict) -> dict:
        """Group per-(p, q) message slices by DESTINATION WORKER and put
        one object per (this worker → dest worker) pair: W² objects per
        superstep instead of P². Identical at W == P; 16× fewer
        ``ray.put``s when a P=32 run executes on W=8 (each put costs
        ~0.3-1 ms regardless of size — the small-graph superstep floor)."""
        by_w: dict[int, dict] = {}
        for (p, q), msg in slices.items():
            by_w.setdefault(q % self.W, {})[(p, q)] = msg
        return {w: ray.put(d) for w, d in by_w.items()}

    def scatter(self) -> tuple[dict, dict[int, float]]:
        """Messages of every owned partition, pre-combined per (p, q) and
        bundled per destination worker, plus each partition's scalar."""
        k = self.kernel
        out, scalars = {}, {}
        for p, pt in self.parts.items():
            scalars[p] = k.scalar(pt.state, pt)
            emitted = k.emit(pt.state, pt)
            if not k.sparse:
                key, val = k.msg(emitted, pt.src, pt.dst, *pt.w)
                part = _fold(k.combine, key, val, len(pt.dq))
                for q in range(self.P):
                    out[(p, q)] = part[pt.off[q] : pt.off[q + 1]]
                continue
            # Sparse keys are dst·M + x, one per edge, dst the receiver's
            # local id. Combining them at the producer pays only when
            # emitted values repeat; in the early rounds of a dense graph
            # nearly every message is distinct and the fold is pure sort
            # cost (profiled on the 400M-edge bench, BENCH/BASELINE.md r5),
            # so a per-partition diversity probe decides each round and raw
            # keys ship with counts None.
            key, val = k.msg(emitted, pt.src, pt.dq[pt.dst], *pt.w)
            fold = len(np.unique(emitted[0])) * 4 < max(1, len(pt.ids))
            for q in range(self.P):
                s = slice(pt.eoff[q], pt.eoff[q + 1])
                m = (key[s], None if val is None else val[s])
                out[(p, q)] = _fold_sparse(k.combine, *m) if fold else m
        return self._bundle(out), scalars

    def gather(self, scalar: float, *bundles: dict) -> list[dict]:
        """Fold the incoming bundles and apply the kernel; one metric per
        owned partition. Bundles fold in (q, p) order, so float summation
        order — and the result's bits — do not depend on W. (Varargs: Ray
        resolves ObjectRefs only as top-level args.)"""
        k = self.kernel
        inc = {
            q: [] if k.sparse else _identity(k.combine, len(pt.ids))
            for q, pt in self.parts.items()
        }
        items = [kv for b in bundles for kv in b.items()]
        for (p, q), m in sorted(items, key=lambda km: (km[0][1], km[0][0])):
            if k.sparse:
                inc[q].append(m)
            else:
                _merge(k.combine, inc[q], self.parts[q].in_dq[p], m)
        metrics = []
        for q, pt in self.parts.items():
            x = _merge_sparse(k.combine, inc[q]) if k.sparse else inc[q]
            pt.state, metric = k.apply(pt.state, x, pt, scalar)
            metrics.append(metric)
        return metrics

    # -- shards (per PARTITION, so resume is W-independent) -------------------
    def write_shards(self, out_dir: str, col: str | None = None) -> list[dict]:
        """Every state column (a checkpoint), or with ``col`` the kernel's
        result under that name (``CsrEngine.write_states``)."""
        out = []
        for p, pt in self.parts.items():
            cols = (
                _columns(pt.state)
                if col is None
                else {col: self.kernel.result(pt.state)}
            )
            fname = f"state-{p:05d}.parquet"
            tbl = pa.table({"id": pt.ids, **cols})
            pq.write_table(tbl, os.path.join(out_dir, fname))
            out.append({"part": p, "file": fname, "rows": tbl.num_rows})
        return out

    def load_shards(self, it_dir: str) -> bool:
        for p, pt in self.parts.items():
            tbl = pq.read_table(os.path.join(it_dir, f"state-{p:05d}.parquet"))
            order = np.argsort(tbl["id"].to_numpy(), kind="stable")
            cols = {c: tbl[c].to_numpy(zero_copy_only=False)[order] for c in pt.state}
            pt.state = _restore(pt.state, cols)
        return True


class CsrEngine:
    """Driver-side BSP orchestrator over W CsrWorker actors (P partitions);
    the executor ``engine._run`` drives.

    Every kernel method returns ``(state, iterations, converged)``;
    ``assemble=False`` skips the V-sized driver array (state is None) —
    the state stays in the workers; drain it with ``write_states`` (the
    10^12-vertex sink). Checkpoints are keyed by the kernel name and the
    engine's ``fingerprint``, with the run parameters (seeds, sources, k)
    appended."""

    def __init__(
        self,
        edges: ray.data.Dataset,
        num_vertices: int,
        num_partitions: int = 8,
        workdir: str = "/tmp/csr_engine",
        tag: str = "default",
        num_workers: int | None = None,
        weight_col: str | None = None,
    ) -> None:
        self.V = num_vertices
        self.P = self.num_partitions = num_partitions
        self.weight_col = weight_col
        # Edge identity: an order-independent content checksum (weights
        # mixed in, so two weightings of one (src, dst) set differ) keys
        # BOTH the cached partitioned layout and every checkpoint
        # fingerprint, so a different edge set can neither reuse a stale
        # layout (same workdir/tag/P) nor resume another graph's
        # checkpoints (same P, V). One column-pruned pass, which also
        # yields E, used to auto-size the worker pool.
        self.checksum, self.E = edge_checksum_and_count(edges, weight_col)
        if num_workers is None:
            session_cpus = int(ray.cluster_resources().get("CPU", num_partitions))
            num_workers = max(
                1,
                min(
                    session_cpus,
                    num_partitions,
                    -(-self.E // CSR_EDGES_PER_WORKER),
                ),
            )
        self.W = num_workers
        self.owner = [p % self.W for p in range(self.P)]
        self.fingerprint = (
            f"csr-p{self.P}-v{self.V}-e{self.checksum:016x}"
        )
        wtag = "_w" if weight_col else ""
        edge_dir = os.path.join(
            workdir,
            f"edges_{tag}{wtag}_p{num_partitions}_c{self.checksum:016x}",
        )
        marker = os.path.join(edge_dir, "_SUCCESS")
        if not os.path.exists(marker):  # partitioned layout is reusable
            shutil.rmtree(edge_dir, ignore_errors=True)
            partition_edges(
                edges, edge_dir, num_partitions, weight_col=weight_col
            )
            open(marker, "w").close()
        self.workers = [
            CsrWorker.remote(w, self.W, num_partitions, num_vertices)
            for w in range(self.W)
        ]
        ray.get(
            [a.build.remote(edge_dir, weight_col) for a in self.workers]
        )
        # one-time static routing exchange (dq arrays, actor-to-actor)
        dq_maps = ray.get([a.route_dq.remote() for a in self.workers])
        inbox: list[tuple[list, list]] = [([], []) for _ in range(self.W)]
        for dq_map in dq_maps:
            for (p, q), ref in dq_map.items():
                keys, refs = inbox[self.owner[q]]
                keys.append((p, q))
                refs.append(ref)
        ray.get(
            [
                self.workers[w].set_incoming_dq.remote(inbox[w][0], *inbox[w][1])
                for w in range(self.W)
            ]
        )

    # -- the executor interface of engine._run ---------------------------------
    def init(self, kernel) -> None:
        ray.get([a.init.remote(kernel) for a in self.workers])

    def step(self, kernel) -> dict:
        """One superstep: scatter everywhere, route the ≤ W² bundle refs,
        gather everywhere."""
        outs = ray.get([a.scatter.remote() for a in self.workers])
        scalar = _sum_by_partition([s for _, s in outs])
        inbox: list[list] = [[] for _ in range(self.W)]
        for ob, _ in outs:
            for w, ref in ob.items():
                inbox[w].append(ref)
        per_worker = ray.get(
            [a.gather.remote(scalar, *inbox[w]) for w, a in enumerate(self.workers)]
        )
        metrics = [m for ms in per_worker for m in ms]
        return {k: kernel.merge_metric(m[k] for m in metrics) for k in metrics[0]}

    def save(self, mgr, it: int, metric: dict, parent: int | None) -> None:
        parts = ray.get(
            [a.write_shards.remote(mgr.iter_dir(it)) for a in self.workers]
        )
        flat = sorted((m for sub in parts for m in sub), key=lambda m: m["part"])
        mgr.save_manifest(it, metric, parent, flat)

    def load(self, mgr):
        ck = mgr.latest()
        if ck is not None:
            it_dir = mgr.iter_dir(ck.iteration)
            ray.get([a.load_shards.remote(it_dir) for a in self.workers])
        return ck

    def _assemble(self) -> np.ndarray:
        state_maps = ray.get([a.get_states.remote() for a in self.workers])
        first = next(iter(state_maps[0].values()))
        out = np.empty(self.V, dtype=first.dtype)
        for sm in state_maps:
            for p, s in sm.items():
                out[p :: self.P] = s
        return out

    def _execute(
        self,
        kernel,
        max_iters: int,
        checkpoint_dir: str | None,
        resume: bool,
        checkpoint_keep_last: int | None,
        assemble: bool,
        checkpoint_every: int = 1,
    ) -> tuple[np.ndarray | None, int, bool]:
        iters, converged, _ = _run(
            self, kernel, max_iters, checkpoint_dir, resume,
            checkpoint_keep_last, checkpoint_every,
        )
        return self._assemble() if assemble else None, iters, converged

    # -- kernels ----------------------------------------------------------------
    def pagerank(
        self,
        damping: float = 0.85,
        tol: float = 1e-9,
        max_iters: int = 200,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_every: int = 1,
        checkpoint_keep_last: int | None = None,
        assemble: bool = True,
        reset_ids: "list | np.ndarray | None" = None,
    ) -> tuple[np.ndarray | None, int, bool]:
        """engine.pagerank; ``reset_ids`` runs PERSONALIZED PageRank."""
        return self._execute(
            _PageRank(self.V, damping, tol, reset_ids), max_iters,
            checkpoint_dir, resume, checkpoint_keep_last, assemble,
            checkpoint_every,
        )

    def connected_components(
        self,
        max_iters: int = 100,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_keep_last: int | None = None,
        assemble: bool = True,
    ) -> tuple[np.ndarray | None, int, bool]:
        """engine.connected_components on a symmetrized layout."""
        return self._execute(
            _MinLabel(), max_iters, checkpoint_dir, resume,
            checkpoint_keep_last, assemble,
        )

    def label_propagation(
        self,
        max_rounds: int = 50,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_keep_last: int | None = None,
        assemble: bool = True,
    ) -> tuple[np.ndarray | None, int, bool]:
        """engine.label_propagation (neighbor mode, min tie-break) on a
        symmetrized layout."""
        return self._execute(
            _LabelPropagation(self.V), max_rounds, checkpoint_dir, resume,
            checkpoint_keep_last, assemble,
        )

    def bfs_hops(
        self,
        sources: list,
        max_iters: int = 200,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_keep_last: int | None = None,
        assemble: bool = True,
    ) -> tuple[np.ndarray | None, int, bool]:
        """engine.bfs_hops (unreached = int64 max)."""
        return self._execute(
            _Frontier("bfs", "hops", self.V, sources), max_iters,
            checkpoint_dir, resume, checkpoint_keep_last, assemble,
        )

    def sssp(
        self,
        sources: list,
        max_iters: int = 10_000,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_keep_last: int | None = None,
        assemble: bool = True,
    ) -> tuple[np.ndarray | None, int, bool]:
        """engine.sssp; requires ``weight_col`` at construction."""
        if not self.weight_col:
            raise ValueError("CsrEngine.sssp needs weight_col at construction")
        return self._execute(
            _Frontier("sssp", "dist", self.V, sources), max_iters,
            checkpoint_dir, resume, checkpoint_keep_last, assemble,
        )

    def k_core(
        self,
        k: int,
        max_iters: int = 10_000,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        checkpoint_keep_last: int | None = None,
        assemble: bool = True,
    ) -> tuple[np.ndarray | None, int, bool]:
        """engine.k_core on a symmetrized layout (1/0 membership)."""
        return self._execute(
            _KCore(int(k)), max_iters, checkpoint_dir, resume,
            checkpoint_keep_last, assemble,
        )

    def write_states(self, out_dir: str, col: str) -> int:
        """Write the last kernel's result as per-partition parquet shards
        (``id`` and ``col``) directly from the workers — no V-sized driver
        array (the ``_assemble`` path is the small-V convenience; this is
        the sink a 10^12-vertex run uses). Returns total rows written."""
        os.makedirs(out_dir, exist_ok=True)
        parts = ray.get(
            [a.write_shards.remote(out_dir, col) for a in self.workers]
        )
        flat = sorted((m for sub in parts for m in sub), key=lambda m: m["part"])
        with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
            json.dump({"num_partitions": self.P, "column": col, "parts": flat}, f)
        return sum(m["rows"] for m in flat)

    def shutdown(self) -> None:
        for a in self.workers:
            ray.kill(a)
        self.workers = []
