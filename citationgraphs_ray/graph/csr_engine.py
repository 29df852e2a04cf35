"""CSR actor-pool engine: fixed partitions hosted by a sized worker pool.

The scale-out executor of engine.py (``reduce="csr"``): it runs the same
nine kernel definitions — PageRank, CC, LPA, BFS, SSSP, k-core, HITS,
Katz, MIS — on the same superstep loop (``engine._run``), with each
partition as one vertex slice. Design (SURVEY.md §4.3, BASELINE.json
north_rule):

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
- **Workers are borrowed, not spawned.** Starting a worker is most of
  building an engine, and every resume builds a new engine. The start is
  a process start (0.6-1.1 s for a bare actor in a 1-CPU session) plus
  the import of this module, from which the worker unpickles its class
  and kernels: 0.14-0.23 s, since engine.py and utils import Ray Data
  only inside the functions that build a Dataset (at module level,
  0.56-0.68 s). The worker reads and writes Arrow through
  ``utils.numpy_column``/``arrow_table``, so pandas, which pyarrow's own
  conversions import, never loads either (0.4-0.5 s of a first ``build``;
  BENCH/BASELINE.md round 10). So the Ray session
  keeps one pool of idle workers: an engine borrows W of them (starting
  only the ones the pool lacks), loads each with its partitions
  (``reset``), and ``shutdown`` empties them and gives them back. A worker
  lost mid-run is named in the error together with the checkpoint to
  resume from, and never goes back to the pool.
- Per owned partition, a worker builds once: the out-degrees and the
  out-edges grouped by destination partition q, each edge's dst a
  compact key — the index of its (q, local dst id) among the partition's
  distinct destinations — so one fold yields every per-(p, q) message
  vector back to back. Each q's local dst ids (``dq``) are exchanged to
  q's owner ONCE; supersteps ship **values only**.
- Superstep = one worker call per reduce of the kernel, in order: Pregel's
  "apply, then send". Each call folds the incoming bundles of reduce i,
  applies it, and scatters reduce i + 1 (the next superstep's first after
  the last) before it returns, so the driver makes one round trip per
  reduce and routes the bundle refs the previous call returned; ``init``
  scatters the first reduce the same way, once, from the initial state
  or from the checkpoint a resume reads. (A bare actor round trip costs
  1.1-1.3 ms on a quiet 4-vCPU host, where a PageRank superstep of the
  115k-edge benchmark graph took 10.4 ms with two of them per reduce and
  8.2 ms with one; BENCH/BASELINE.md round 9.) The scatter after a run's
  last superstep is never gathered; its refs and the workers' held
  bundles are dropped.
  A push runs the kernel's message function once per owned partition,
  pre-combines it per (p, q) with ``engine._fold`` and bundles the slices
  per destination worker. A worker's bundle to itself stays in the worker;
  each other one is ONE plasma object (≤ W·(W−1) objects per reduce, not
  P² — 18× fewer ``ray.put``s when a P=32 run executes on W=8, and none
  at W=1, where every message is self-addressed); receivers fetch exactly
  their bundles actor-to-actor, fold them with the held one in (q, p)
  order and apply. A pull sends the values back along the same routing:
  each q-owner ships ``state[in_dq[p]]`` to p, which folds them by its
  local src. The driver only routes refs, sums per-partition
  scalars in partition order (so results do not depend on W) and merges
  the metrics.
- Checkpoints are **per partition** (not per worker): each worker writes
  one Arrow IPC shard of every state column per owned partition, inside
  the superstep's last call (``gather(..., shard_dir=...)``); the driver
  writes the manifest (completion marker) after every call has returned —
  so a run checkpointed at one cluster size resumes at another.

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
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.exceptions import RayActorError, RayError

from ..state.checkpoints import read_shard, shard_name, write_shard
from ..utils import arrow_table, numpy_column, ray_session
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
# term (W driver→actor RPCs per reduce + up to W·(W−1) bundled message
# objects; on one box all through a shared plasma store) while
# per-worker compute is E/W, so small graphs want few workers. Measured
# on the 1.6M-edge headline graph at 32 session CPUs: PageRank 44.8
# ms/step at W=4 vs 410 ms/step at W=32 — 9× end-to-end for the
# identical result. One worker per ~1M edges keeps the compute term
# dominant; explicit ``num_workers`` overrides (the multi-node setting,
# where each node adds memory bandwidth and its own object store, may
# justify more).
CSR_EDGES_PER_WORKER = 1_000_000


def _sum_by_partition(dicts: list[dict[int, float]]) -> float:
    """Sum per-partition scalars in ascending partition order — float
    summation order (hence the global bit pattern) stays independent of how
    partitions are grouped onto workers."""
    merged: dict[int, float] = {}
    for d in dicts:
        merged.update(d)
    return sum(merged[p] for p in sorted(merged))


def _by_part(per_worker) -> list[dict]:
    """The part metadata of every worker's shards, in partition order."""
    return sorted((m for ms in per_worker for m in ms), key=lambda m: m["part"])


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
        # file by file, in the path order pq.read_table reads them (it would
        # import pyarrow.dataset, and with it pandas; see numpy_column); a
        # partition with no edges has no directory
        files = sorted(os.listdir(part_dir)) if os.path.isdir(part_dir) else []
        tables = [
            pq.ParquetFile(os.path.join(part_dir, f)).read(columns=cols)
            for f in files
            if f[0] not in "._"
        ]
        src, dst, *w = (
            np.concatenate(
                [np.empty(0, np.int64)] + [numpy_column(t[c]) for t in tables]
            ).astype(np.int64)
            for c in cols
        )
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
    """Serves one engine at a time, lent by the session pool: ``reset``
    gives it partitions {p : p % W == wid}, and ``reset()`` empties it
    again before it goes back. Single-threaded numpy inside. Executes one
    kernel of engine.py at a time: ``init`` (from the initial state or a
    checkpoint), then one ``gather`` per reduce of each superstep. Each of
    these calls ends by scattering the next reduce and returns its bundles
    and scalars.

    num_cpus=0: the TRUE parallelism limit is the worker count W (that many
    single-threaded processes exist, period); holding scheduler CPU slots
    for the actors' lifetime would starve any Ray Data stage sharing the
    session (measured deadlock under pytest's 4-CPU session)."""

    def __init__(self) -> None:
        self.reset()

    # -- setup --------------------------------------------------------------
    def reset(
        self, wid: int = 0, num_workers: int = 1, P: int = 0, V: int = 0
    ) -> bool:
        """Own the partitions {p : p % W == wid} of a P-partition,
        V-vertex graph, with no edges, routing, kernel or state yet; the
        defaults own nothing (an idle worker)."""
        self.wid = wid
        self.W = num_workers
        self.P = P
        self.parts = {
            p: _Partition(p, P, V) for p in range(P) if p % num_workers == wid
        }
        self.kernel = None
        self._held: dict = {}  # this worker's bundle to itself (``_bundle``)
        return True

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

    def get_states(self) -> dict[int, dict[str, np.ndarray]]:
        return {p: self.kernel.result(pt.state) for p, pt in self.parts.items()}

    # -- supersteps -----------------------------------------------------------
    def init(
        self, kernel, it_dir: str | None = None
    ) -> tuple[dict, dict[int, float]]:
        """Start ``kernel`` from its initial state, or from the checkpoint
        shards in ``it_dir`` (read into the initial state's dtypes), and
        scatter its first reduce."""
        self.kernel = kernel
        for p, pt in self.parts.items():
            pt.state = kernel.init(pt)
            if it_dir is None:
                continue
            tbl = read_shard(os.path.join(it_dir, shard_name(p)))
            order = np.argsort(numpy_column(tbl["id"]), kind="stable")
            cols = {c: numpy_column(tbl[c])[order] for c in pt.state}
            pt.state = _restore(pt.state, cols)
        return self._scatter(0)

    def drop_held(self) -> None:
        """Drop the bundle of the scatter no superstep will gather."""
        self._held = {}

    def _bundle(self, slices: dict, pull: bool) -> dict:
        """Group per-(p, q) message slices by DESTINATION WORKER (q's, or
        p's for a pull). The bundle addressed to this worker is held here
        for its next ``gather``; each other one is put as one object:
        W·(W−1) objects per reduce instead of P², none at W=1. 18× fewer
        ``ray.put``s when a P=32 run executes on W=8 (each put costs
        ~0.3-1 ms regardless of size — the small-graph superstep floor)."""
        by_w: dict[int, dict] = {}
        for (p, q), msg in slices.items():
            by_w.setdefault((p if pull else q) % self.W, {})[(p, q)] = msg
        self._held = by_w.pop(self.wid, {})
        return {w: ray.put(d) for w, d in by_w.items()}

    def _scatter(self, i: int) -> tuple[dict, dict[int, float]]:
        """Reduce ``i`` of the superstep: the messages of every owned
        partition, pre-combined per (p, q) and bundled per destination
        worker, plus each partition's scalar."""
        ph = self.kernel.phases[i]
        out, scalars = {}, {}
        for p, pt in self.parts.items():
            scalars[p] = ph.scalar(pt.state, pt)
            if ph.msg is None:
                continue
            emitted = ph.emit(pt.state, pt)
            if ph.pull:  # p is the destination side here
                for src_p, dq in pt.in_dq.items():
                    out[(src_p, p)] = tuple(e[dq] for e in emitted)
                continue
            if not ph.sparse:
                key, val = ph.msg(emitted, pt.src, pt.dst, *pt.w)
                part = _fold(ph.combine, key, val, len(pt.dq))
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
            key, val = ph.msg(emitted, pt.src, pt.dq[pt.dst], *pt.w)
            fold = len(np.unique(emitted[0])) * 4 < max(1, len(pt.ids))
            for q in range(self.P):
                s = slice(pt.eoff[q], pt.eoff[q + 1])
                m = (key[s], None if val is None else val[s])
                out[(p, q)] = _fold_sparse(ph.combine, *m) if fold else m
        return self._bundle(out, ph.pull), scalars

    def gather(
        self, i: int, scalar: float, *bundles: dict, shard_dir: str | None = None
    ) -> tuple[list[dict], list[dict] | None, dict, dict[int, float]]:
        """Fold the held and incoming bundles of reduce ``i``, apply it,
        write the checkpoint shards to ``shard_dir`` if given, and scatter
        the next reduce: (one metric per owned partition, the shards' part
        metadata or None, the next reduce's bundles and scalars). Bundles
        fold in (q, p) order, so float summation order — and the result's
        bits — do not depend on W. (Varargs: Ray resolves ObjectRefs only
        as top-level args.)"""
        ph = self.kernel.phases[i]
        items = sorted(
            (kv for b in (self._held, *bundles) for kv in b.items()),
            key=lambda km: (km[0][1], km[0][0]),
        )
        if ph.pull:  # the dst values of p's edges, in q order, folded by src
            got: dict[int, list] = {p: [] for p in self.parts}
            for (p, _), m in items:
                got[p].append(m)
            inc = {}
            for p, pt in self.parts.items():
                x = tuple(np.concatenate(c) for c in zip(*got[p]))
                key, val = ph.msg(x, pt.src, pt.dst, *pt.w)
                inc[p] = _fold(ph.combine, key, val, len(pt.ids))
        elif ph.msg is None:
            inc = dict.fromkeys(self.parts)
        elif ph.sparse:
            inc = {q: [] for q in self.parts}
            for (p, q), m in items:
                inc[q].append(m)
            inc = {q: _merge_sparse(ph.combine, m) for q, m in inc.items()}
        else:
            inc = {
                q: _identity(ph.combine, len(pt.ids))
                for q, pt in self.parts.items()
            }
            for (p, q), m in items:
                _merge(ph.combine, inc[q], self.parts[q].in_dq[p], m)
        metrics = []
        for q, pt in self.parts.items():
            pt.state, metric = ph.apply(pt.state, inc[q], pt, scalar)
            metrics.append(metric)
        parts = self.write_shards(shard_dir) if shard_dir else None
        return metrics, parts, *self._scatter((i + 1) % len(self.kernel.phases))

    # -- shards (per PARTITION, so resume is W-independent) -------------------
    def write_shards(self, it_dir: str) -> list[dict]:
        """Checkpoint shards: every state column, one file per partition."""
        out = []
        for p, pt in self.parts.items():
            fname = shard_name(p)
            tbl = arrow_table({"id": pt.ids, **_columns(pt.state)})
            write_shard(os.path.join(it_dir, fname), tbl)
            out.append({"part": p, "file": fname, "rows": tbl.num_rows})
        return out

    def write_states(self, out_dir: str) -> list[dict]:
        """The kernel's output columns as Parquet (``CsrEngine.write_states``)."""
        out = []
        for p, pt in self.parts.items():
            fname = f"state-{p:05d}.parquet"
            tbl = pa.table({"id": pt.ids, **self.kernel.result(pt.state)})
            pq.write_table(tbl, os.path.join(out_dir, fname))
            out.append({"part": p, "file": fname, "rows": tbl.num_rows})
        return out


# Idle CsrWorker handles of the current Ray session, and the session they
# belong to (``ray_session``). Only idle workers are held here: a lent
# worker lives and dies with its engine's handles. At most one idle
# worker per session CPU is kept: an auto-sized engine never needs more,
# and each idle worker is a process of ~190 MB RSS.
_pool: dict = {"session": None, "idle": []}
_pool_lock = threading.Lock()


def _borrow(n: int) -> list:
    """``n`` workers for one engine: idle ones first, new ones for the
    rest. A past session's handles are dropped, never lent."""
    key = ray_session()
    with _pool_lock:
        if _pool["session"] != key:
            _pool.update(session=key, idle=[])
        idle = _pool["idle"]
        lent = [idle.pop() for _ in range(min(n, len(idle)))]
    return lent + [CsrWorker.remote() for _ in range(n - len(lent))]


class CsrEngine:
    """Driver-side BSP orchestrator over W CsrWorker actors (P partitions);
    the executor ``engine._run`` drives. The workers are borrowed from the
    session pool and returned by ``shutdown``, after which every call
    raises ``RuntimeError``.

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
        self._mgr = None  # the running kernel's CheckpointManager
        # per worker, the (bundles to the other workers, scalars) its last
        # call scattered for the next reduce; and (dir, part metadata) of
        # the shards the last superstep wrote
        self._pending: list | None = None
        self._shards: tuple[str, list[dict]] | None = None
        self._session = ray_session()
        self.workers = _borrow(self.W)
        try:
            self._load_workers(edge_dir)
        except BaseException:  # e.g. a negative weight: workers go back
            self.shutdown()
            raise

    def _load_workers(self, edge_dir: str) -> None:
        """Give each worker its partitions (a borrowed worker that died
        while idle is replaced), build them and exchange the routing."""
        resets = [
            a.reset.remote(w, self.W, self.P, self.V)
            for w, a in enumerate(self.workers)
        ]
        for w, ref in enumerate(resets):
            try:
                ray.get(ref)
            except RayActorError:
                self.workers[w] = CsrWorker.remote()
                ray.get(self.workers[w].reset.remote(w, self.W, self.P, self.V))
        ray.get(
            [a.build.remote(edge_dir, self.weight_col) for a in self.workers]
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

    def _live(self) -> list:
        if self.workers is None:
            raise RuntimeError(
                "CsrEngine is shut down: its workers went back to the pool; "
                "build a new CsrEngine"
            )
        return self.workers

    def _get(self, refs: list) -> list:
        """``ray.get`` of one call per worker. A lost worker is re-raised
        with its index, its partitions and the checkpoint to resume from."""
        try:
            return ray.get(refs)
        except RayError:
            for w, ref in enumerate(refs):
                try:
                    ray.get(ref)
                except RayActorError as e:
                    raise self._lost(w) from e
                except RayError:
                    pass
            raise

    def _lost(self, w: int) -> RuntimeError:
        ck = self._mgr.latest_manifest() if self._mgr else None
        where = (
            f"resume from checkpoint iteration {ck.iteration} in {self._mgr.root}"
            if ck
            else "no complete checkpoint to resume from"
        )
        parts = [p for p in range(self.P) if self.owner[p] == w]
        return RuntimeError(f"CSR worker {w} (partitions {parts}) was lost; {where}")

    # -- the executor interface of engine._run ---------------------------------
    def init(self, kernel, mgr, resume: bool):
        self._mgr = mgr
        ck = mgr.latest_manifest() if mgr and resume else None
        # each worker reads its own shards, then scatters once
        it_dir = mgr.iter_dir(ck.iteration) if ck else None
        self._pending = self._get(
            [a.init.remote(kernel, it_dir) for a in self._live()]
        )
        return ck

    def step(self, kernel, shard_dir: str | None = None) -> dict:
        """One superstep: per reduce, route the ≤ W·(W−1) bundle refs the
        previous call scattered and make one ``gather`` call per worker;
        the last one writes the checkpoint shards to ``shard_dir``."""
        workers = self._live()
        last = len(kernel.phases) - 1
        for i in range(last + 1):
            scalar = _sum_by_partition([s for _, s in self._pending])
            inbox: list[list] = [[] for _ in range(self.W)]
            for ob, _ in self._pending:
                for w, ref in ob.items():
                    inbox[w].append(ref)
            sd = shard_dir if i == last else None
            outs = self._get(
                [
                    a.gather.remote(i, scalar, *inbox[w], shard_dir=sd)
                    for w, a in enumerate(workers)
                ]
            )
            self._pending = [(ob, s) for _, _, ob, s in outs]
        self._shards = (
            (shard_dir, _by_part(p for _, p, _, _ in outs)) if shard_dir else None
        )
        metrics = [m for ms, _, _, _ in outs for m in ms]
        return {k: kernel.merge_metric(m[k] for m in metrics) for k in metrics[0]}

    def save(self, mgr, it: int, metric: dict, parent: int | None) -> None:
        it_dir = mgr.iter_dir(it)
        if self._shards is not None and self._shards[0] == it_dir:
            parts = self._shards[1]
        else:  # converged on a superstep that was not due for a checkpoint
            parts = _by_part(
                self._get([a.write_shards.remote(it_dir) for a in self._live()])
            )
        mgr.save_manifest(it, metric, parent, parts)

    def assemble(self) -> dict[str, np.ndarray]:
        """The last kernel's output columns, dense over ids 0..V-1."""
        out: dict[str, np.ndarray] = {}
        for sm in self._get([a.get_states.remote() for a in self._live()]):
            for p, cols in sm.items():
                for c, s in cols.items():
                    if c not in out:
                        out[c] = np.empty(self.V, dtype=s.dtype)
                    out[c][p :: self.P] = s
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
        try:
            iters, converged, _ = _run(
                self, kernel, max_iters, checkpoint_dir, resume,
                checkpoint_keep_last, checkpoint_every,
            )
        finally:  # the scatter no superstep will gather
            self._pending = self._shards = None
            for a in self.workers or ():
                a.drop_held.remote()
        return self.assemble()[kernel.col] if assemble else None, iters, converged

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

    def write_states(self, out_dir: str) -> int:
        """Write the last kernel's output columns as per-partition Parquet
        files (``id`` and the columns) directly from the workers — no
        V-sized driver array (``assemble`` is the small-V convenience;
        this is the sink a 10^12-vertex run uses). Returns total rows
        written."""
        workers = self._live()
        os.makedirs(out_dir, exist_ok=True)
        flat = _by_part(self._get([a.write_states.remote(out_dir) for a in workers]))
        with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
            json.dump({"num_partitions": self.P, "parts": flat}, f)
        return sum(m["rows"] for m in flat)

    def shutdown(self) -> None:
        """Empty the workers and return them to the session pool; a lost
        one is dropped. Idempotent; the engine never reaches them again,
        since another engine may hold them next."""
        workers, self.workers = self.workers, None
        self._pending = self._shards = None
        if not workers or not ray.is_initialized() or ray_session() != self._session:
            return
        refs = [a.reset.remote() for a in workers]
        alive = []
        for a, ref in zip(workers, refs):
            try:
                ray.get(ref)
                alive.append(a)
            except RayActorError:
                pass
        cpus = int(ray.cluster_resources().get("CPU", 1))
        with _pool_lock:
            idle = _pool["idle"]
            idle.extend(alive)
            del idle[: max(0, len(idle) - cpus)]  # dropped handles end their actors
