"""Link prediction over the undirected edge table: Adamic-Adar /
common-neighbor scoring of NON-adjacent vertex pairs.

Pipeline shape (all-distributed; same self-join skeleton as the
two_hop_counts query and the same broadcast-engine precondition as
graph/engine.py — the per-VERTEX weight vector fits the driver, the
per-PAIR candidate table never does):

    edges_sym ──┐
                ├── bucketed self-join on the common neighbor ``mid``
    edges_sym ──┘   (ONE hash shuffle, utils.bucketed_inner_join)
      → filter u < v, attach w[mid] = 1/ln(deg[mid]) from the broadcast
        degree vector (zero-copy plasma read per task)
      → fast_grouped_agg (u, v): score = Σ w, n_common = count
      → utils.bucketed_anti_join against the adjacency (the edge set is
        NOT broadcast — at 10^12-file scale it dwarfs any worker heap)
      → per-block partial top-k, driver merge of ≤ k·blocks rows

The candidate-pair stage is Σ_m deg(m)² rows — the classical AA cost.
``max_mid_degree`` optionally drops hub mids above a degree bound
before the self-join (the standard recall-trading skew guard for
power-law graphs: a 10^6-degree hub contributes 10^12 pairs and ~zero
per-pair weight, 1/ln(10^6) spread over all of them); default None is
exact, and the oracle runs exact.

Determinism: score is rounded to 6 decimals BEFORE ranking, ties then
broken by (u, v) asc — the same total order the SQL twin uses, so the
float summation-order difference between engines can't flip the top-k
boundary.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..utils import (
    _default_partitions,
    bucketed_anti_join,
    bucketed_inner_join,
    fast_grouped_agg,
    pinned,
)


def _degree_vector(edges_sym: ray.data.Dataset, num_vertices: int) -> np.ndarray:
    """Undirected degree per vertex — streaming bincount, one pass."""
    deg = np.zeros(num_vertices, dtype=np.int64)
    for b in edges_sym.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        deg += np.bincount(
            b["src"].to_numpy(zero_copy_only=False), minlength=num_vertices
        )
    return deg


# Dense regime bound (same convention as queries.DENSE_TWO_HOP_MAX_V):
# below this V the whole pair space fits one driver matmul — at sf0.1's
# near-saturated graph the self-join materializes Σ deg(m)² ≈ 2.5e8 rows
# (measured 26 s) vs 0.1 s dense. The join path stays the 100-TB twin.
DENSE_AA_MAX_V = 8192


def adamic_adar_topk(
    edges_sym: ray.data.Dataset,
    num_vertices: int,
    k: int = 100,
    max_mid_degree: int | None = None,
    num_partitions: int | None = None,
    mode: str = "auto",
) -> pa.Table:
    """Top-``k`` non-adjacent pairs by Adamic-Adar score.

    Returns an Arrow table (u, v, n_common, score) with u < v, score
    rounded to 6 decimals, ordered by (score desc, u asc, v asc) —
    a deterministic total order shared with the SQL oracle twin.

    ``mode``: "auto" picks "dense" (driver-local AᵀWA matmul over the
    V×V adjacency — one float64 GEMM) for V ≤ ``DENSE_AA_MAX_V``, else
    "join" (the distributed self-join path). Equivalence-tested.
    """
    if num_vertices >= (1 << 31):
        raise ValueError("pair packing assumes vertex ids < 2^31")
    eds, _ = pinned(edges_sym, ["src", "dst"])
    if mode == "dense" or (mode == "auto" and num_vertices <= DENSE_AA_MAX_V):
        return _adamic_adar_dense(eds, num_vertices, k, max_mid_degree)
    deg = _degree_vector(eds, num_vertices)
    w = np.zeros(num_vertices, dtype=np.float64)
    multi = deg >= 2  # a degree-1 mid cannot connect two distinct ends
    w[multi] = 1.0 / np.log(deg[multi])
    w_ref = ray.put(w)
    num_partitions = num_partitions or _default_partitions()

    hub_filter = None
    if max_mid_degree is not None:
        hub_filter = ray.put(np.nonzero(deg > max_mid_degree)[0])

    def _side(t: pa.Table, out_col: str) -> pa.Table:
        tb = pa.table({"mid": t["src"], out_col: t["dst"]})
        if hub_filter is not None:
            mids = tb["mid"].to_numpy(zero_copy_only=False)
            tb = tb.filter(pa.array(~np.isin(mids, ray.get(hub_filter))))
        return tb

    def as_left(t: pa.Table) -> pa.Table:
        return _side(t, "u")

    def as_right(t: pa.Table) -> pa.Table:
        return _side(t, "v")

    left = eds.map_batches(as_left, batch_format="pyarrow")
    right = eds.map_batches(as_right, batch_format="pyarrow")
    joined = bucketed_inner_join(left, right, on=["mid"], num_partitions=num_partitions)

    def weight_pairs(t: pa.Table) -> pa.Table:
        keep = pc.less(t["u"], t["v"])
        t = t.filter(keep)
        mids = t["mid"].to_numpy(zero_copy_only=False)
        wv = ray.get(w_ref)
        return pa.table(
            {
                "u": t["u"],
                "v": t["v"],
                "s": pa.array(wv[mids]),
            }
        )

    weighted = joined.map_batches(weight_pairs, batch_format="pyarrow")
    scored = fast_grouped_agg(
        weighted,
        ["u", "v"],
        aggs={"score": ("s", "sum")},
        count_as="n_common",
    )
    # edges_sym carries both directions, so (u, v) membership alone
    # decides adjacency
    adjacent = eds.map_batches(
        lambda t: pa.table({"u": t["src"], "v": t["dst"]}),
        batch_format="pyarrow",
    )
    nonadj = bucketed_anti_join(scored, adjacent, ["u", "v"], num_partitions)

    def block_topk(t: pa.Table) -> pa.Table:
        sc = np.floor(t["score"].to_numpy(zero_copy_only=False) * 1e6 + 0.5) / 1e6
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u, -sc))[:k]
        return pa.table(
            {
                "u": pa.array(u[order].astype(np.int64)),
                "v": pa.array(v[order].astype(np.int64)),
                "n_common": pa.array(
                    t["n_common"].to_numpy(zero_copy_only=False)[order]
                ),
                "score": pa.array(sc[order]),
            }
        )

    partials = []
    for b in nonadj.map_batches(block_topk, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        partials.append(b)
    if not partials:
        return pa.table(
            {
                "u": pa.array([], type=pa.int64()),
                "v": pa.array([], type=pa.int64()),
                "n_common": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            }
        )
    merged = pa.concat_tables(partials)
    sc = merged["score"].to_numpy(zero_copy_only=False)
    u = merged["u"].to_numpy(zero_copy_only=False)
    v = merged["v"].to_numpy(zero_copy_only=False)
    order = np.lexsort((v, u, -sc))[:k]
    return pa.table(
        {
            "u": pa.array(u[order].astype(np.int64)),
            "v": pa.array(v[order].astype(np.int64)),
            "n_common": pa.array(
                merged["n_common"].to_numpy(zero_copy_only=False)[order].astype(np.int64)
            ),
            "score": pa.array(sc[order]),
        }
    )


def _adamic_adar_dense(
    eds: ray.data.Dataset,
    num_vertices: int,
    k: int,
    max_mid_degree: int | None,
) -> pa.Table:
    """Driver-local regime: stream edges into a V×V adjacency, score the
    whole pair space as Aᵀ·diag(w)·A in one float64 GEMM (w zeroed on
    capped hub mids), mask adjacency + diagonal, rank (round6 desc, u, v).
    Same output contract as the join path (equivalence-tested)."""
    V = num_vertices
    A = np.zeros((V, V), dtype=np.float64)
    for b in eds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        A[
            b["src"].to_numpy(zero_copy_only=False),
            b["dst"].to_numpy(zero_copy_only=False),
        ] = 1.0
    deg = A.sum(axis=1)
    w = np.zeros(V, dtype=np.float64)
    multi = deg >= 2
    w[multi] = 1.0 / np.log(np.maximum(deg[multi], 2.0))
    if max_mid_degree is not None:
        w[deg > max_mid_degree] = 0.0
    mid_ok = w > 0
    Aw = A[mid_ok]  # (#mids, V) rows restricted to contributing mids
    S = Aw.T @ (Aw * w[mid_ok][:, None])  # Σ_m A[m,u]·w[m]·A[m,v]
    C = (Aw.T @ Aw).round().astype(np.int64)  # common-neighbor counts
    iu, iv = np.triu_indices(V, k=1)
    keep = (C[iu, iv] > 0) & (A[iu, iv] == 0.0)
    u, v = iu[keep], iv[keep]
    sc = np.floor(S[u, v] * 1e6 + 0.5) / 1e6
    order = np.lexsort((v, u, -sc))[:k]
    return pa.table(
        {
            "u": pa.array(u[order].astype(np.int64)),
            "v": pa.array(v[order].astype(np.int64)),
            "n_common": pa.array(C[u[order], v[order]]),
            "score": pa.array(sc[order]),
        }
    )


def adamic_adar_oracle(
    edges_und: np.ndarray, num_vertices: int, k: int = 100
) -> "list[tuple[int, int, int, float]]":
    """Single-process numpy/dict reference (exact) for the pytest gate."""
    adj: list[set[int]] = [set() for _ in range(num_vertices)]
    for s, d in edges_und:
        adj[int(s)].add(int(d))
    deg = np.array([len(a) for a in adj])
    rows: dict[tuple[int, int], tuple[float, int]] = {}
    for m in range(num_vertices):
        if deg[m] < 2:
            continue
        wm = 1.0 / math.log(deg[m])
        nb = sorted(adj[m])
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                key = (nb[i], nb[j])
                s, c = rows.get(key, (0.0, 0))
                rows[key] = (s + wm, c + 1)
    out = []
    for (u, v), (s, c) in rows.items():
        if v in adj[u]:
            continue
        out.append((u, v, c, math.floor(s * 1e6 + 0.5) / 1e6))
    out.sort(key=lambda r: (-r[3], r[0], r[1]))
    return out[:k]


def edge_jaccard(
    edges_sym: ray.data.Dataset,
    num_vertices: int,
    num_partitions: int | None = None,
    mode: str = "auto",
) -> ray.data.Dataset:
    """Neighborhood-Jaccard embeddedness for every EXISTING edge (u, v),
    u < v: J = |N(u)∩N(v)| / |N(u)∪N(v)| = c / (deg(u)+deg(v)−c) over
    the raw symmetrized neighbor sets (endpoints included in the union —
    the plain set-Jaccard convention; adjacent endpoints are never in
    the intersection since u ∉ N(u)).

    Shape: the common-neighbor count per ordered pair comes from the
    same one-shuffle self-join as :func:`adamic_adar_topk`, then an
    inner bucket-join against the (u < v) edge list keeps only adjacent
    pairs (the edge set is never broadcast); degrees ride the broadcast
    per-vertex vector. Returns a Dataset (u, v, n_common, jaccard) with
    jaccard rounded to 6 decimals. Edges whose endpoints share NO
    neighbor are omitted (their Jaccard is 0) — the self-join only
    yields c ≥ 1 pairs, and the SQL twin inner-joins identically.
    """
    if num_vertices >= (1 << 31):
        raise ValueError("pair packing assumes vertex ids < 2^31")
    eds, _ = pinned(edges_sym, ["src", "dst"])
    if mode == "dense" or (mode == "auto" and num_vertices <= DENSE_AA_MAX_V):
        V = num_vertices
        A = np.zeros((V, V), dtype=np.float64)
        for b in eds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            A[
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False),
            ] = 1.0
        d = A.sum(axis=1)
        C = (A.T @ A).round().astype(np.int64)
        iu, iv = np.triu_indices(V, k=1)
        keep = (A[iu, iv] == 1.0) & (C[iu, iv] > 0)
        u, v = iu[keep], iv[keep]
        c = C[u, v].astype(np.float64)
        j = c / (d[u] + d[v] - c)
        return ray.data.from_arrow(
            pa.table(
                {
                    "u": pa.array(u.astype(np.int64)),
                    "v": pa.array(v.astype(np.int64)),
                    "n_common": pa.array(C[u, v]),
                    "jaccard": pa.array(np.floor(j * 1e6 + 0.5) / 1e6),
                }
            )
        )
    deg = _degree_vector(eds, num_vertices)
    deg_ref = ray.put(deg)
    num_partitions = num_partitions or _default_partitions()

    left = eds.map_batches(
        lambda t: pa.table({"mid": t["src"], "u": t["dst"]}),
        batch_format="pyarrow",
    )
    right = eds.map_batches(
        lambda t: pa.table({"mid": t["src"], "v": t["dst"]}),
        batch_format="pyarrow",
    )
    joined = bucketed_inner_join(
        left, right, on=["mid"], num_partitions=num_partitions
    )

    def ordered_pairs(t: pa.Table) -> pa.Table:
        keep = pc.less(t["u"], t["v"])
        t = t.filter(keep)
        return pa.table({"u": t["u"], "v": t["v"]})

    common = fast_grouped_agg(
        joined.map_batches(ordered_pairs, batch_format="pyarrow"),
        ["u", "v"],
        count_as="n_common",
    )
    # keep only pairs that ARE edges: inner (semi) join against the
    # deduped (u<v) edge list — one more bucket shuffle, never broadcast
    canon = eds.map_batches(
        lambda t: pa.table({"u": t["src"], "v": t["dst"]}).filter(
            pc.less(t["src"], t["dst"])
        ),
        batch_format="pyarrow",
    )
    adj_pairs = bucketed_inner_join(
        common, canon, on=["u", "v"], num_partitions=num_partitions
    )

    def score(t: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        c = t["n_common"].to_numpy(zero_copy_only=False).astype(np.float64)
        union = d[u] + d[v] - c  # raw neighbor-set union
        j = np.where(union > 0, c / np.maximum(union, 1.0), 0.0)
        return pa.table(
            {
                "u": pa.array(u.astype(np.int64)),
                "v": pa.array(v.astype(np.int64)),
                "n_common": pa.array(c.astype(np.int64)),
                "jaccard": pa.array(np.floor(j * 1e6 + 0.5) / 1e6),
            }
        )

    return adj_pairs.map_batches(score, batch_format="pyarrow")
