"""k-truss decomposition over the undirected edge table.

The k-truss is the maximal subgraph in which every edge closes at least
k−2 triangles WITHIN the subgraph — the edge-analog of k-core, and the
standard cohesion filter for link graphs (a 3-truss keeps every edge in
≥1 triangle). Computed by support peeling to fixpoint: per round,
count each alive edge's common neighbors over the ALIVE graph and drop
edges below k−2; dropped edges reduce their neighbors' supports, so
rounds repeat until nothing is dropped.

Two regimes (equivalence-tested, same convention as two_hop_counts /
adamic_adar):

- dense (V ≤ DENSE_TRUSS_MAX_V): the V×V adjacency on the driver; each
  round's supports are one float GEMM (C = A·A restricted to edge
  positions). The sandbox gate regime.
- join (the 100-TB shape): each round re-counts supports with the same
  one-shuffle wedge self-join as graph/linkpred.edge_jaccard — sym
  edges joined on the common neighbor, inner bucket-join back against
  the alive canon (u < v) edge list (never broadcast), grouped count —
  then filters support < k−2. Per-round cost is the triangle-count
  shape; rounds are the peel depth (single digits on real graphs).

The SQL twin unrolls the peel as MATERIALIZED CTE rounds (the
k_core-oracle pattern, queries.py) — exact as long as the unroll depth
covers the fixpoint, which the pytest fixpoint-depth check pins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..utils import (
    _default_partitions,
    bucketed_inner_join,
    collect_table,
    fast_grouped_agg,
    pinned,
)

DENSE_TRUSS_MAX_V = 8192

_EMPTY_CANON = pa.table(
    {"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}
)


def _sorted_canon(tbl: pa.Table) -> pa.Table:
    if tbl.num_rows == 0:  # fully-peeled: collect loses the schema
        return _EMPTY_CANON
    return tbl.sort_by([("u", "ascending"), ("v", "ascending")])


def k_truss_oracle(
    edges: np.ndarray, num_vertices: int, k: int
) -> np.ndarray:
    """Surviving canon (u < v) edges after support peeling — (E', 2)
    int64, lexicographically sorted. Trivially-correct set/dict peel."""
    if k < 2:
        raise ValueError("k must be >= 2")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    u = np.minimum(e[:, 0], e[:, 1])
    v = np.maximum(e[:, 0], e[:, 1])
    alive = {(int(a), int(b)) for a, b in zip(u, v)}
    adj: dict[int, set[int]] = {}
    for a, b in alive:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    while True:
        drop = [
            (a, b)
            for a, b in alive
            if len(adj.get(a, set()) & adj.get(b, set())) < k - 2
        ]
        if not drop:
            break
        for a, b in drop:
            alive.discard((a, b))
            adj[a].discard(b)
            adj[b].discard(a)
    out = np.array(sorted(alive), dtype=np.int64).reshape(-1, 2)
    return out


def _dense_truss(
    eds: ray.data.Dataset, num_vertices: int, k: int
) -> tuple[pa.Table, int]:
    V = num_vertices
    A = np.zeros((V, V), dtype=np.float32)
    for b in eds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        A[s, d] = 1.0
        A[d, s] = 1.0
    np.fill_diagonal(A, 0.0)
    rounds = 0
    while True:
        iu, iv = np.nonzero(np.triu(A, k=1))
        if len(iu) == 0:
            break
        C = A @ A
        supp = C[iu, iv]
        kill = supp < (k - 2)
        rounds += 1
        if not kill.any():
            break
        A[iu[kill], iv[kill]] = 0.0
        A[iv[kill], iu[kill]] = 0.0
    iu, iv = np.nonzero(np.triu(A, k=1))
    return (
        pa.table(
            {
                "u": pa.array(iu.astype(np.int64)),
                "v": pa.array(iv.astype(np.int64)),
            }
        ),
        rounds,
    )


def _support_counts(
    canon: ray.data.Dataset, num_partitions: int
) -> ray.data.Dataset:
    """(u, v, support) for every alive canon edge with ≥1 common
    neighbor in the alive graph — the edge_jaccard wedge-count shape."""
    sym = canon.map_batches(
        lambda t: pa.concat_tables(
            [
                pa.table({"src": t["u"], "dst": t["v"]}),
                pa.table({"src": t["v"], "dst": t["u"]}),
            ]
        ),
        batch_format="pyarrow",
    )
    left = sym.map_batches(
        lambda t: pa.table({"mid": t["src"], "u": t["dst"]}),
        batch_format="pyarrow",
    )
    right = sym.map_batches(
        lambda t: pa.table({"mid": t["src"], "v": t["dst"]}),
        batch_format="pyarrow",
    )
    joined = bucketed_inner_join(
        left, right, on=["mid"], num_partitions=num_partitions
    )
    pairs = joined.map_batches(
        lambda t: pa.table({"u": t["u"], "v": t["v"]}).filter(
            pc.less(t["u"], t["v"])
        ),
        batch_format="pyarrow",
    )
    common = fast_grouped_agg(pairs, ["u", "v"], count_as="support")
    return bucketed_inner_join(
        common, canon, on=["u", "v"], num_partitions=num_partitions
    )


def k_truss(
    edges_sym: ray.data.Dataset,
    num_vertices: int,
    k: int,
    mode: str = "auto",
    num_partitions: int | None = None,
    max_rounds: int = 10_000,
) -> tuple[pa.Table, int]:
    """Returns (surviving canon (u, v) edges sorted lexicographically,
    peel rounds to fixpoint). ``mode``: auto/dense/join as per module
    docstring."""
    if k < 2:
        raise ValueError("k must be >= 2")
    eds, _ = pinned(edges_sym, ["src", "dst"])
    if k == 2:
        # support ≥ 0 holds for every edge — the 2-truss IS the graph,
        # in every regime and with 0 peel rounds. (The join regime's
        # wedge count only emits support ≥ 1 rows, so its generic loop
        # would wrongly drop triangle-free edges.)
        canon2 = eds.map_batches(
            lambda t: pa.table({"u": t["src"], "v": t["dst"]}).filter(
                pc.less(t["src"], t["dst"])
            ),
            batch_format="pyarrow",
        )
        return _sorted_canon(collect_table(canon2)), 0
    if mode == "dense" or (
        mode == "auto" and num_vertices <= DENSE_TRUSS_MAX_V
    ):
        tbl, rounds = _dense_truss(eds, num_vertices, k)
        return _sorted_canon(tbl), rounds
    num_partitions = num_partitions or _default_partitions()
    canon = eds.map_batches(
        lambda t: pa.table({"u": t["src"], "v": t["dst"]}).filter(
            pc.less(t["src"], t["dst"])
        ),
        batch_format="pyarrow",
    ).materialize()
    n_alive = canon.count()
    rounds = 0
    for _ in range(max_rounds):
        if n_alive == 0:
            break
        supported = _support_counts(canon, num_partitions)
        new_canon = supported.map_batches(
            lambda t: pa.table({"u": t["u"], "v": t["v"]}).filter(
                pc.greater_equal(t["support"], k - 2)
            ),
            batch_format="pyarrow",
        ).materialize()
        n_new = new_canon.count()
        rounds += 1
        # new_canon ⊆ canon, so equal counts ⟹ equal sets ⟹ fixpoint
        if n_new == n_alive:
            canon = new_canon
            break
        canon, n_alive = new_canon, n_new
    else:
        raise RuntimeError("k_truss: no fixpoint within max_rounds")
    return _sorted_canon(collect_table(canon)), rounds
