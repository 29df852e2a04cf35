"""Distributed topic models: LDA (collapsed Gibbs) and GSDMM.

Reference (SURVEY.md T1/T2): the Go library runs collapsed Gibbs with
goroutines resampling doc chunks against RACY shared counters, then a serial
counter rebuild per iteration (CitationGraphs.go:1182-1261, 1747-1822).
This is exactly the approximate-distributed-Gibbs scheme published as
AD-LDA (Newman et al., JMLR 2009): partitions resample against a stale
global snapshot, deltas merge at a barrier. Here:

- P long-lived partition actors hold their docs' token arrays + topic
  assignments (doc state NEVER moves; same pattern as graph/csr_engine.py).
- Per superstep: broadcast the global word-topic count table (K×W ints) →
  each actor resamples its docs with a seeded per-partition RNG and returns
  its delta to the global table → driver reduces P deltas (the
  groupby-equivalent merge) and broadcasts the new snapshot.
- Convergence monitor: per-iteration topic-entropy (reference logs relative
  entropy per iter, 1187/1260).

Exact Gibbs chains are seed-path dependent, so (per SURVEY §2.6) tests
assert distributional/convergence behavior — entropy decreasing, clustering
of planted topics — not bitwise equality with the Go code.

GSDMM (one topic per whole doc, Yin & Wang KDD'14) uses the same harness
with a doc-level resample.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..utils import _split_refs, hash_buckets, ray_session


def _theta_table(ids: np.ndarray, theta: np.ndarray) -> pa.Table:
    """(id, membership list<double>) without a per-row Python loop."""
    from ..utils import matrix_to_list_array

    return pa.table(
        {
            "id": pa.array(ids),
            "membership": matrix_to_list_array(theta.astype(np.float64)),
        }
    )


@ray.remote(num_cpus=0)
class _TopicPartition:
    """Holds a stable partition of docs: token ids + current assignments.

    num_cpus=0 for the same reason as graph/csr_engine.py's CsrWorker: the
    TRUE parallelism limit is the pool size P (that many single-threaded
    processes exist, period), and holding scheduler CPU slots for the
    actors' lifetime would starve Ray Data stages sharing the session —
    which matters doubly now that pools persist across engine
    instantiations (see ``get_topic_pool``)."""

    def __init__(self, pid: int, num_topics: int, vocab_size: int, seed: int) -> None:
        self.pid = pid
        self.reset(num_topics, vocab_size, seed)

    def reset(self, num_topics: int, vocab_size: int, seed: int) -> bool:
        """Re-arm for a new model run: fresh RNG stream (identical to a
        newly constructed actor's, so pooled reuse is bitwise equal to a
        cold start) and cleared doc/model state."""
        self.K = num_topics
        self.W = vocab_size
        self.rng = np.random.default_rng(seed * 10007 + self.pid)
        self.doc_ids: np.ndarray | None = None
        self.docs: list[np.ndarray] = []
        # LDA: per-token topic; GSDMM: per-doc topic
        self.z: list[np.ndarray] | np.ndarray | None = None
        self.doc_topic: np.ndarray | None = None  # LDA per-doc topic counts
        return True

    def load_pieces(self, *pieces: pa.Table) -> int:
        """Take this partition's docs (the exchange slices addressed to
        it, object store → actor, never through the driver) in doc-id
        order, so the RNG draws do not follow block order."""
        tables = [p.select(["doc_id", "word_ids"]) for p in pieces if p.num_rows]
        if not tables:
            self.doc_ids, self.docs = np.empty(0, dtype=np.int64), []
            return 0
        t = pa.concat_tables(tables).sort_by("doc_id")
        self.doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # offsets-based ragged split: no per-token PyObject round-trip
        col = t["word_ids"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]  # align with flatten() on sliced arrays
        self.docs = [flat[offs[i] : offs[i + 1]] for i in range(len(col))]
        return len(self.docs)

    # ---- LDA --------------------------------------------------------------
    def lda_init(self) -> np.ndarray:
        """Random topic per token; returns this partition's word-topic delta
        (K×W) plus doc-topic kept locally."""
        wt = np.zeros((self.K, self.W), dtype=np.int64)
        self.z = []
        self.doc_topic = np.zeros((len(self.docs), self.K), dtype=np.int64)
        for d, toks in enumerate(self.docs):
            z = self.rng.integers(0, self.K, size=len(toks))
            self.z.append(z)
            np.add.at(wt, (z, toks), 1)
            np.add.at(self.doc_topic[d], z, 1)
        return wt

    def lda_resample(
        self, word_topic: np.ndarray, topic_sum: np.ndarray, alpha: float, beta: float
    ) -> np.ndarray:
        """One sweep against the (stale) global snapshot; returns delta."""
        delta = np.zeros_like(word_topic)
        inv_ts = 1.0 / (topic_sum + beta * self.W)
        for d, toks in enumerate(self.docs):
            z = self.z[d]
            dt = self.doc_topic[d]
            # Gibbs is sequential per token, but the categorical draw is
            # cumsum + searchsorted over ONE precomputed uniform per token
            # (rng.choice validates/allocates per call — measured ≥10×
            # slower on the hottest loop in the engine).
            u = self.rng.random(len(toks))
            wb = word_topic[:, toks] + beta  # (K, n) stale word factors
            for i in range(len(toks)):
                w, old = toks[i], z[i]
                dt[old] -= 1
                p = (dt + alpha) * wb[:, i] * inv_ts
                c = np.cumsum(p)
                new = int(np.searchsorted(c, u[i] * c[-1], side="right"))
                if new >= self.K:
                    new = self.K - 1
                z[i] = new
                dt[new] += 1
                delta[old, w] -= 1
                delta[new, w] += 1
        return delta

    def lda_doc_topics(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        theta = (self.doc_topic + alpha).astype(np.float64)
        theta /= theta.sum(axis=1, keepdims=True)
        return self.doc_ids, theta

    # ---- GSDMM ------------------------------------------------------------
    def gsdmm_init(self) -> tuple[np.ndarray, np.ndarray]:
        self.z = self.rng.integers(0, self.K, size=len(self.docs))
        wt = np.zeros((self.K, self.W), dtype=np.int64)
        dc = np.zeros(self.K, dtype=np.int64)
        for d, toks in enumerate(self.docs):
            np.add.at(wt[self.z[d]], toks, 1)
            dc[self.z[d]] += 1
        return wt, dc

    def gsdmm_resample(
        self,
        word_topic: np.ndarray,
        topic_word_sum: np.ndarray,
        topic_doc_count: np.ndarray,
        n_docs: int,
        alpha: float,
        beta: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        delta_wt = np.zeros_like(word_topic)
        delta_dc = np.zeros(self.K, dtype=np.int64)
        changed = 0
        u_all = self.rng.random(len(self.docs))
        for d, toks in enumerate(self.docs):
            old = int(self.z[d])
            # log-space score per topic (Yin & Wang-style, stale counts):
            # log(dc_k+α) + Σ_w cnt_w·log(wt[k,w]+β) − |doc|·log(Σ_w wt[k]+βW)
            lp = np.log(topic_doc_count + alpha)
            cnt = np.bincount(toks, minlength=self.W)
            wz = np.flatnonzero(cnt)
            lp = lp + (
                cnt[wz][None, :] * np.log(word_topic[:, wz] + beta)
            ).sum(axis=1)
            lp = lp - len(toks) * np.log(topic_word_sum + beta * self.W)
            lp -= lp.max()
            p = np.exp(lp)
            c = np.cumsum(p)
            new = min(
                int(np.searchsorted(c, u_all[d] * c[-1], side="right")),
                self.K - 1,
            )
            if new != old:
                changed += 1
                np.add.at(delta_wt[old], toks, -1)
                np.add.at(delta_wt[new], toks, 1)
                delta_dc[old] -= 1
                delta_dc[new] += 1
                self.z[d] = new
        return delta_wt, delta_dc, changed

    def gsdmm_assignments(self) -> tuple[np.ndarray, np.ndarray]:
        return self.doc_ids, np.asarray(self.z, dtype=np.int64)

    # ---- shard sinks ------------------------------------------------------
    # Each partition writes ITS OWN parquet shard — the driver never
    # concatenates doc-sized output (the 10^12-doc sink; shard_dir must be
    # shared storage on a multi-node cluster, same assumption as
    # graph/csr_engine.py's partition layout).
    def write_lda_doc_topics(self, path: str, alpha: float) -> int:
        ids, theta = self.lda_doc_topics(alpha)
        pq.write_table(_theta_table(ids, theta), path)
        return len(ids)

    def write_gsdmm_assignments(self, path: str) -> int:
        ids, z = self.gsdmm_assignments()
        pq.write_table(
            pa.table({"id": pa.array(ids), "topic": pa.array(z)}), path
        )
        return len(ids)


# session-level pools keyed by (session, size): creating + killing a
# P-actor pool costs ~5 s per model query (measured), so sequential engine
# runs reuse the same actors and just reset their state; a past session's
# handles are dropped, never reused (``ray_session``). Acquiring a pool
# RESETS it, so only the most recent acquirer owns it — engines hold an
# ownership token and every pool-touching method raises if a newer engine
# has taken the pool since (two engines on one pool would silently merge
# states). For genuinely concurrent engines pass reuse_pool=False.
_POOLS: dict[tuple, list] = {}
_POOL_OWNERS: dict[tuple, object] = {}


def get_topic_pool(
    num_partitions: int, num_topics: int, vocab_size: int, seed: int
) -> tuple[list, object]:
    """(actors, ownership token) for a P-sized pool, freshly ``reset``
    for this run. The token invalidates all previous owners of this P."""
    session = ray_session()
    for key in [k for k in _POOLS if k[0] != session]:
        del _POOLS[key]
        _POOL_OWNERS.pop(key, None)
    key = (session, num_partitions)
    pool = _POOLS.get(key)
    if pool is None:
        pool = [
            _TopicPartition.remote(p, num_topics, vocab_size, seed)
            for p in range(num_partitions)
        ]
        _POOLS[key] = pool
    else:
        ray.get(
            [a.reset.remote(num_topics, vocab_size, seed) for a in pool]
        )
    token = object()
    _POOL_OWNERS[key] = token
    return pool, token


def _check_pool_ownership(engine) -> None:
    """Raise if a newer engine re-acquired this engine's shared pool —
    acquisition resets the actors, so continuing would Gibbs-sample over
    another engine's documents and silently merge two models' states."""
    key = (ray_session(), engine.P)
    if engine._pooled and _POOL_OWNERS.get(key) is not engine._pool_token:
        raise RuntimeError(
            "topic actor pool was re-acquired by a newer engine since this "
            "engine was constructed (pooled acquisition resets shared "
            "state); construct concurrent engines with reuse_pool=False"
        )


def shutdown_topic_pools() -> None:
    for pool in _POOLS.values():
        for a in pool:
            ray.kill(a)
    _POOLS.clear()
    _POOL_OWNERS.clear()


def _prepare_shard_dir(shard_dir: str, num_partitions: int) -> list[str]:
    """Shard paths for a worker-written output dir, clearing ONLY this
    module's own shard pattern first. ``shard_dir`` is a caller-supplied
    public parameter (unlike the fingerprinted internal dirs in dedup/
    similarity), so an rmtree would silently delete unrelated caller files
    (ADVICE r3); stale shards from a previous (possibly wider) run are
    removed by pattern and the read-back uses the exact written paths."""
    os.makedirs(shard_dir, exist_ok=True)
    for old in glob.glob(os.path.join(shard_dir, "part-*.parquet")):
        os.remove(old)
    return [
        os.path.join(shard_dir, f"part-{p:05d}.parquet")
        for p in range(num_partitions)
    ]


def _load_partitions(
    encoded: ray.data.Dataset, actors: list, num_partitions: int
) -> None:
    """Ship each doc to its partition once (docs never move again).

    The map side of a hash exchange on ``doc_id`` splits every block into
    P slices, and partition p's actor takes the p-th slice of each — the
    driver never holds the corpus, and a doc's partition depends on its
    id alone, never on block order, so one seed gives one chain."""
    P = num_partitions
    refs = encoded.materialize().to_arrow_refs()
    splits = (
        _split_refs(refs, pa.schema([]), hash_buckets(["doc_id"]), P)
        if P > 1
        else [[r] for r in refs]
    )
    ray.get(
        [a.load_pieces.remote(*[s[p] for s in splits]) for p, a in enumerate(actors)]
    )


def _entropy(counts: np.ndarray) -> float:
    p = counts.sum(axis=1).astype(np.float64)
    p = p / max(p.sum(), 1.0)
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


class LdaEngine:
    """AD-LDA over P partition actors. encoded = (doc_id, word_ids)."""

    def __init__(
        self,
        encoded: ray.data.Dataset,
        num_topics: int,
        vocab_size: int,
        alpha: float = 0.1,
        beta: float = 0.01,
        num_partitions: int = 4,
        seed: int = 42,
        reuse_pool: bool = True,
    ) -> None:
        if num_topics <= 0:
            raise ValueError("numTopics must be positive")  # ref guard 2799
        self.K, self.W = num_topics, vocab_size
        self.alpha, self.beta = alpha, beta
        self.P = num_partitions
        self._pooled = reuse_pool
        if reuse_pool:
            self.actors, self._pool_token = get_topic_pool(
                num_partitions, num_topics, vocab_size, seed
            )
        else:
            self.actors = [
                _TopicPartition.remote(p, num_topics, vocab_size, seed)
                for p in range(num_partitions)
            ]
            self._pool_token = None
        _load_partitions(encoded, self.actors, num_partitions)
        deltas = ray.get([a.lda_init.remote() for a in self.actors])
        self.word_topic = np.sum(deltas, axis=0)
        self.entropy_history: list[float] = []

    def train(self, num_iters: int = 20) -> "LdaEngine":
        _check_pool_ownership(self)
        for _ in range(num_iters):
            wt_ref = ray.put(self.word_topic)
            ts_ref = ray.put(self.word_topic.sum(axis=1))
            deltas = ray.get(
                [
                    a.lda_resample.remote(wt_ref, ts_ref, self.alpha, self.beta)
                    for a in self.actors
                ]
            )
            self.word_topic = self.word_topic + np.sum(deltas, axis=0)
            self.entropy_history.append(_entropy(self.word_topic))
        return self

    def memberships(self, shard_dir: str | None = None) -> ray.data.Dataset:
        """(id, membership) — θ rows. With ``shard_dir`` each partition
        actor writes its own parquet shard and the result is read back as
        a Dataset (unsorted; nothing doc-sized touches the driver — the
        10^12-doc path). Without it, partitions are concatenated on the
        driver sorted by id (fine for main-node-sized outputs)."""
        _check_pool_ownership(self)
        if shard_dir is not None:
            # shard_dir is a public API parameter that may contain unrelated
            # files — clear only this engine's own shard pattern and read
            # back the exact paths written, never rmtree the whole dir
            paths = _prepare_shard_dir(shard_dir, self.P)
            ray.get(
                [
                    a.write_lda_doc_topics.remote(path, self.alpha)
                    for path, a in zip(paths, self.actors)
                ]
            )
            return ray.data.read_parquet(paths, partitioning=None)
        parts = ray.get([a.lda_doc_topics.remote(self.alpha) for a in self.actors])
        ids = np.concatenate([p[0] for p in parts])
        thetas = np.concatenate([p[1] for p in parts])
        order = np.argsort(ids, kind="stable")
        return ray.data.from_arrow(_theta_table(ids[order], thetas[order]))

    def shutdown(self) -> None:
        """Pooled actors stay alive for the next engine (that is the
        point); private pools are killed."""
        if not self._pooled:
            for a in self.actors:
                ray.kill(a)
        self.actors = []


class GsdmmEngine:
    """GSDMM (one topic per doc) over the same partition-actor harness."""

    def __init__(
        self,
        encoded: ray.data.Dataset,
        num_topics: int,
        vocab_size: int,
        alpha: float = 0.1,
        beta: float = 0.1,
        num_partitions: int = 4,
        seed: int = 42,
        reuse_pool: bool = True,
    ) -> None:
        if num_topics <= 0:
            raise ValueError("numTopics must be positive")  # ref guard 3048
        self.K, self.W = num_topics, vocab_size
        self.alpha, self.beta = alpha, beta
        self.P = num_partitions
        self._pooled = reuse_pool
        if reuse_pool:
            self.actors, self._pool_token = get_topic_pool(
                num_partitions, num_topics, vocab_size, seed
            )
        else:
            self.actors = [
                _TopicPartition.remote(p, num_topics, vocab_size, seed)
                for p in range(num_partitions)
            ]
            self._pool_token = None
        _load_partitions(encoded, self.actors, num_partitions)
        inits = ray.get([a.gsdmm_init.remote() for a in self.actors])
        self.word_topic = np.sum([i[0] for i in inits], axis=0)
        self.topic_doc = np.sum([i[1] for i in inits], axis=0)
        self.n_docs = int(self.topic_doc.sum())
        self.changed_history: list[int] = []

    def train(self, num_iters: int = 15) -> "GsdmmEngine":
        _check_pool_ownership(self)
        for _ in range(num_iters):
            wt_ref = ray.put(self.word_topic)
            ws_ref = ray.put(self.word_topic.sum(axis=1))
            dc_ref = ray.put(self.topic_doc)
            outs = ray.get(
                [
                    a.gsdmm_resample.remote(
                        wt_ref, ws_ref, dc_ref, self.n_docs, self.alpha, self.beta
                    )
                    for a in self.actors
                ]
            )
            self.word_topic = self.word_topic + np.sum([o[0] for o in outs], axis=0)
            self.topic_doc = self.topic_doc + np.sum([o[1] for o in outs], axis=0)
            changed = int(sum(o[2] for o in outs))
            self.changed_history.append(changed)
            if changed == 0:
                break
        return self

    def assignments(self, shard_dir: str | None = None) -> ray.data.Dataset:
        """(id, topic). With ``shard_dir``, worker-written shards (unsorted,
        nothing doc-sized on the driver); else driver concat sorted by id."""
        _check_pool_ownership(self)
        if shard_dir is not None:
            # same non-destructive shard management as LdaEngine.memberships
            paths = _prepare_shard_dir(shard_dir, self.P)
            ray.get(
                [
                    a.write_gsdmm_assignments.remote(path)
                    for path, a in zip(paths, self.actors)
                ]
            )
            return ray.data.read_parquet(paths, partitioning=None)
        parts = ray.get([a.gsdmm_assignments.remote() for a in self.actors])
        ids = np.concatenate([p[0] for p in parts])
        z = np.concatenate([p[1] for p in parts])
        order = np.argsort(ids, kind="stable")
        return ray.data.from_arrow(
            pa.table({"id": pa.array(ids[order]), "topic": pa.array(z[order])})
        )

    def shutdown(self) -> None:
        """Pooled actors stay alive for the next engine; private pools are
        killed."""
        if not self._pooled:
            for a in self.actors:
                ray.kill(a)
        self.actors = []
