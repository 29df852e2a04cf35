"""Per-vertex triangle counting: degree orientation + two-hop join.

Canonical distributed algorithm (SURVEY.md §2.12; identical join/aggregate
shape to the reference's ``GetDocConcurrences`` per-container distinct-pair
expansion, CitationGraphs.go:835-928):

1. undirected unique edges (u < v); degrees via a distributed
   ``fast_grouped_agg`` over both endpoints (never a driver loop).
2. orient every edge low→high by the total order ``(deg(x), x)`` — max
   oriented out-degree is O(sqrt(E)), which bounds the wedge explosion at
   hubs (the orientation IS the skew handling here).
3. wedges: per center vertex a, all rank-ordered pairs (b, c) of oriented
   out-neighbors.
4. probe (b, c) against the oriented edge set → each hit is one triangle
   {a, b, c}.
5. flat-map each triangle to its 3 vertices → grouped count.

Three regimes (``strategy="auto"`` picks by E and the driver budget, as
the graph engine's ``reduce="auto"`` does):

- ``local`` (tiny E, ≤ ``LOCAL_KERNEL_MAX_EDGES``, and its E- and
  V-sized driver arrays within ``utils.on_driver``): everything runs as
  one in-process numpy computation — at this scale the fixed cost of
  each Ray Data execution dominates. When the raw edge count already
  fits, the edges are canonicalized on the driver (no Ray Data job on
  a materialized input); otherwise after the distinct-edge shuffle.
  Triangle work scales with wedge pairs Σ C(outdeg, 2), not E, so the
  local regime self-checks its own cost: tiny-V dense graphs switch to
  exact diag(A³)/2 counting (one BLAS matmul, ``DENSE_MATMUL_MAX_V``),
  and anything else above ``LOCAL_TRIANGLE_MAX_PAIRS`` keeps the
  driver-side orientation but distributes the probe over vertex ranges.
- ``broadcast`` (its key array and V-sized ranks fit the driver
  budget): the sorted oriented edge-key array (one int64 per edge) is
  broadcast once and probed with np.searchsorted inside a map over
  vertex ranges — no shuffle at all.
- ``shuffle`` (huge E): NOTHING edge-sized ever leaves the distributed
  plane. Degrees attach to endpoints via distributed hash joins; wedges
  expand inside coarse hash buckets of centers (vectorized per distinct
  adjacency size — no per-center Python dispatch); the probe is a
  distributed join on the two-column (b, c) key (two columns, not b·M+c,
  so the key cannot overflow int64 at 10^12 vertices). Joins are
  ``utils.bucketed_inner_join`` (5-8× faster than Ray's hash-shuffle
  join on a 1.2M-edge graph, BENCH/BASELINE.md round 12). Measured
  before that: 60M edges / V=30M in 222 s at 32 CPUs with no
  driver-side edge array.

Exact-match vs graph/oracle.py:triangles_oracle; strategies
equivalence-tested (including the mega-hub corpus fixture).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..utils import (
    _default_partitions,
    bucketed_inner_join,
    collect_table,
    dataset_to_dense_array,
    distinct_rows,
    exchange,
    fast_distinct,
    fast_grouped_agg,
    hash_buckets,
    on_driver,
    pinned,
)
from .engine import LOCAL_KERNEL_MAX_EDGES, KernelResult

# Cap on the (pair-count) size of one vectorized wedge-expansion slab so a
# group of many same-degree centers can't allocate an unbounded pair array.
_WEDGE_SLAB_PAIRS = 8_000_000

# Wedge-pair budget for the driver-local probe. Triangle work scales with
# Σ_a C(outdeg(a), 2) — NOT with E — so a dense graph can be tiny in edges
# and huge in wedges (measured: V=1000 / E=349k has 79.5M pairs; the
# single-core probe takes 14-60 s quiet and minutes under host memory
# contention, while the distributed range probe over the same broadcast
# keys takes ~10 s). Above this budget the local regime keeps its
# driver-computed orientation but ships the probe to a vertex-range map.
LOCAL_TRIANGLE_MAX_PAIRS = 10_000_000

# Dense micro-regime: for V this small, per-vertex triangles are
# diag(A³)/2 — one V×V float64 matmul (BLAS) + an O(V²) einsum, exact for
# any count < 2^53. At V=2048 the matmul is ≤ 2·V³ ≈ 1.7e10 FLOPs (~1-3 s
# worst case); it is only chosen when the estimated probe cost is higher
# (n_pairs > V³/625 ≈ matmul FLOPs / measured probe ns-per-pair).
DENSE_MATMUL_MAX_V = 2048


def _dense_matmul_counts(
    u: np.ndarray, v: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Per-vertex triangle counts of the undirected simple graph (u, v)
    via closed-3-walk counting: diag(A @ A @ A) = 2 · tri(v). float64 is
    exact here (entries ≤ V² < 2^53); the second matmul is folded into an
    einsum so the cost is one BLAS GEMM + O(V²)."""
    A = np.zeros((num_vertices, num_vertices), dtype=np.float64)
    A[u, v] = 1.0
    A[v, u] = 1.0
    B = A @ A
    walks3 = np.einsum("ij,ji->i", B, A)
    return np.rint(walks3 / 2.0).astype(np.int64)


def _wedge_probe_vectorized(
    centers: np.ndarray, keys: np.ndarray, M: int, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle hits (a, b, c) for the given center vertices against the
    SORTED oriented key array ``a·M+b`` — vectorized per distinct
    adjacency size (the same size-grouping trick as
    ``_expand_wedges_bucket``; no per-center Python dispatch). Groups are
    processed in slabs of ≤ ``_WEDGE_SLAB_PAIRS`` candidate pairs to bound
    peak memory independent of how many centers share one degree."""
    centers = np.asarray(centers, dtype=np.int64)
    lo = np.searchsorted(keys, centers * M)
    hi = np.searchsorted(keys, (centers + 1) * M)
    cnt = hi - lo
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    for c in np.unique(cnt):
        if c < 2:
            continue
        sel = np.flatnonzero(cnt == c)
        i, j = np.triu_indices(c, k=1)
        npairs = i.size
        step = max(1, _WEDGE_SLAB_PAIRS // npairs)
        for s in range(0, sel.size, step):
            part = sel[s : s + step]
            ctr = centers[part]
            nbr = keys[lo[part][:, None] + np.arange(c)[None, :]] - ctr[:, None] * M
            order = np.argsort(rank[nbr], axis=1, kind="stable")
            nbr = np.take_along_axis(nbr, order, axis=1)
            b = nbr[:, i].ravel()
            cc = nbr[:, j].ravel()
            probe = b * M + cc
            hit = np.searchsorted(keys, probe)
            ok = (hit < keys.size) & (
                keys[np.minimum(hit, keys.size - 1)] == probe
            )
            if ok.any():
                out_a.append(np.repeat(ctr, npairs)[ok])
                out_b.append(b[ok])
                out_c.append(cc[ok])
    if not out_a:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    return (
        np.concatenate(out_a),
        np.concatenate(out_b),
        np.concatenate(out_c),
    )


def _canon(batch: pa.Table) -> pa.Table:
    """Edges as undirected (u, v), u < v; self-loops dropped."""
    s = batch["src"].to_numpy(zero_copy_only=False)
    d = batch["dst"].to_numpy(zero_copy_only=False)
    keep = s != d
    s, d = s[keep], d[keep]
    return pa.table(
        {"u": pa.array(np.minimum(s, d)), "v": pa.array(np.maximum(s, d))}
    )


def _canon_undirected(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct undirected edges as (u < v); self-loops dropped."""
    return fast_distinct(
        edges.select_columns(["src", "dst"]).map_batches(
            _canon, batch_format="pyarrow"
        ),
        ["u", "v"],
    )


def _canon_on_driver(eds: ray.data.Dataset, num_edges: int) -> pa.Table:
    """:func:`_canon_undirected` of the pinned ``eds`` as one table, made on
    the driver: no Ray Data job."""
    if num_edges == 0:  # an empty Dataset collects to a table of no columns
        empty = pa.array([], type=pa.int64())
        return pa.table({"u": empty, "v": empty})
    return distinct_rows(_canon(collect_table(eds)), ["u", "v"])


def _degree_table(uv: ray.data.Dataset) -> ray.data.Dataset:
    """(id, deg) over the undirected unique edges — per-batch bincount
    partials merged by ``fast_grouped_agg`` (the distributed degree path
    the north rule's skew handling keys off)."""

    def endpoint_partials(batch: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                batch["u"].to_numpy(zero_copy_only=False),
                batch["v"].to_numpy(zero_copy_only=False),
            ]
        )
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table(
            {"id": pa.array(uniq), "deg": pa.array(cnt.astype(np.int64))}
        )

    return fast_grouped_agg(
        uv.map_batches(endpoint_partials, batch_format="pyarrow"),
        ["id"],
        {"deg": ("deg", "sum")},
    )


def _orient_distributed(
    uv: ray.data.Dataset,
    deg_ds: ray.data.Dataset,
    num_join_partitions: int,
) -> ray.data.Dataset:
    """(a, b, deg_b): every edge oriented low→high by (deg, id), degree
    attached via two distributed hash joins — no broadcast of the degree
    table."""
    du = deg_ds.map_batches(
        lambda t: pa.table({"u": t["id"], "deg_u": t["deg"]}),
        batch_format="pyarrow",
    )
    dv = deg_ds.map_batches(
        lambda t: pa.table({"v": t["id"], "deg_v": t["deg"]}),
        batch_format="pyarrow",
    )
    j = bucketed_inner_join(
        bucketed_inner_join(uv, du, ["u"], num_join_partitions),
        dv,
        ["v"],
        num_join_partitions,
    )

    def orient(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        gu = batch["deg_u"].to_numpy(zero_copy_only=False)
        gv = batch["deg_v"].to_numpy(zero_copy_only=False)
        swap = (gu > gv) | ((gu == gv) & (u > v))  # (deg, id) total order
        a = np.where(swap, v, u)
        b = np.where(swap, u, v)
        deg_b = np.where(swap, gu, gv)
        return pa.table(
            {
                "a": pa.array(a),
                "b": pa.array(b),
                "deg_b": pa.array(deg_b.astype(np.int64)),
            }
        )

    return j.map_batches(orient, batch_format="pyarrow")


def _expand_wedges_bucket(t: pa.Table | None) -> pa.Table:
    """All rank-ordered out-neighbor pairs per center within one bucket.

    Vectorized per DISTINCT adjacency size: one lexsort co-locates each
    center's neighbors in (deg, id) rank order, then every center with c
    out-neighbors is processed in a single (n_c, c) matrix operation —
    no per-center Python loop (#distinct sizes ≤ O(sqrt(E)) thanks to the
    orientation bound, in practice a few hundred)."""
    empty = pa.table(
        {
            "a": pa.array([], type=pa.int64()),
            "wb": pa.array([], type=pa.int64()),
            "wc": pa.array([], type=pa.int64()),
        }
    )
    if t is None:
        return empty
    a, b, deg_b = (
        t[c].to_numpy(zero_copy_only=False).astype(np.int64)
        for c in ("a", "b", "deg_b")
    )
    order = np.lexsort((b, deg_b, a))  # by center, then neighbor rank
    a, b = a[order], b[order]
    centers, starts, counts = np.unique(a, return_index=True, return_counts=True)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    for c in np.unique(counts):
        if c < 2:
            continue
        sel = counts == c
        s = starts[sel]
        nbr = b[s[:, None] + np.arange(c)[None, :]]  # (n_c, c), rank order
        i, j = np.triu_indices(c, k=1)
        out_a.append(np.repeat(centers[sel], len(i)))
        out_b.append(nbr[:, i].ravel())
        out_c.append(nbr[:, j].ravel())
    if not out_a:
        return empty
    return pa.table(
        {
            "a": pa.array(np.concatenate(out_a)),
            "wb": pa.array(np.concatenate(out_b)),
            "wc": pa.array(np.concatenate(out_c)),
        }
    )


def _range_probe(
    keys: np.ndarray, ork: np.ndarray, M: int, num_vertices: int
) -> ray.data.Dataset:
    """Distributed wedge probe over vertex ranges against the broadcast
    SORTED oriented key array: each task slices its centers' adjacencies
    out of ``keys`` with two searchsorted calls and probes candidate pairs
    in-place. Returns the (id,) triangle-hit dataset (3 rows per
    triangle). Used by both the broadcast strategy and the dense-graph
    spill of the local regime."""
    keys_ref = ray.put(keys)
    ork_ref = ray.put(ork)

    def wedge_probe_bcast(batch: dict) -> pa.Table:
        k = ray.get(keys_ref)
        r = ray.get(ork_ref)
        ta, tb, tc = _wedge_probe_vectorized(batch["id"], k, M, r)
        out = (
            np.concatenate([ta, tb, tc])
            if ta.size
            else np.empty(0, dtype=np.int64)
        )
        return pa.table({"id": pa.array(out)})

    return ray.data.range(num_vertices, override_num_blocks=64).map_batches(
        wedge_probe_bcast, batch_format="numpy"
    )


def _keys_fit(num_vertices: int) -> bool:
    """Whether the a·M+b edge keys of the local and broadcast regimes
    (M = V+1) stay inside int64: they would wrap silently above
    V ≈ 3.04e9, where only ``shuffle``'s two-column keys are exact."""
    return (num_vertices + 1) * num_vertices < 2**63


def _fits_local(num_edges: int, num_vertices: int) -> bool:
    """Whether ``auto`` runs a graph of this size in the local regime: the
    driver holds ~6 int64 E-sized arrays (the canonical edges, their
    orientation and keys) and ~4 V-sized ones (degrees, ranks, out-degrees,
    counts)."""
    return (
        num_edges <= LOCAL_KERNEL_MAX_EDGES
        and _keys_fit(num_vertices)
        and on_driver(8 * (6 * num_edges + 4 * num_vertices))
    )


def triangle_counts(
    edges_undirected: ray.data.Dataset,
    num_vertices: int,
    strategy: str = "auto",
    as_dataset: bool = False,
) -> KernelResult | ray.data.Dataset:
    """strategy:
    - "local" (auto at/below ``LOCAL_KERNEL_MAX_EDGES`` distinct
      undirected edges, within the driver budget): the tiny-graph
      regime — the distinct undirected edges are on the driver once and
      the whole orient/wedge/probe runs as in-process numpy (the same
      regime switch as ``engine.pagerank(reduce="local")``: below a few
      million edges every Ray Data execution's fixed cost dominates the
      arithmetic). When ``strategy="local"``, or the RAW edge count
      already fits (it bounds the distinct count, so auto's choice is the
      same), the edges are read from their blocks (``utils.pinned``: no
      Ray Data job on a materialized input) and canonicalized on the
      driver with the per-batch ``_canon`` and ``fast_distinct``'s
      ``distinct_rows``; otherwise ``_canon_undirected`` runs as a Ray
      Data job. Because probe cost is wedge pairs, not edges, the
      regime sub-switches: V ≤ ``DENSE_MATMUL_MAX_V`` dense graphs use
      exact diag(A³)/2 (one float64 GEMM; entries < 2^53 so exact), and
      sparse-but-wedge-heavy graphs above ``LOCAL_TRIANGLE_MAX_PAIRS``
      spill just the probe to the distributed vertex-range map over the
      driver-computed key array. Equivalence-tested vs both distributed
      strategies.
    - "broadcast" (auto when its key array fits the driver budget):
      wedge generation as a map stage over vertex ranges against the
      broadcast SORTED oriented edge-key array — the keys a·M+b are
      contiguous per center a, so each task slices its adjacency with
      two searchsorted calls; no shuffle, no per-group Python dispatch
      (~25x faster than map_groups on a dense 1000-vertex graph).
    - "shuffle": the huge-E path — degrees, orientation, wedge expansion
      and the (b, c) probe are all distributed (joins + coarse-bucket
      shuffles); no single object ever holds an edge-sized array.

    ``as_dataset=True`` returns the sparse (id, tri_count) Dataset instead
    of densifying into a V-sized driver array — the 10^12-vertex sink
    (vertices with zero triangles are absent).
    """
    uv_local = None  # the distinct (u, v) table, when the driver made it
    if strategy in ("auto", "local"):
        edges_undirected, n_raw = pinned(edges_undirected, ["src", "dst"])
        # the canonical count is at most the raw one: auto goes local by
        # the raw count only where the canonical count would take it too
        if strategy == "local" or _fits_local(n_raw, num_vertices):
            strategy = "local"
            uv_local = _canon_on_driver(edges_undirected, n_raw)
    if uv_local is None:
        uv = _canon_undirected(edges_undirected).materialize()
        n_edges = uv.count()
    else:
        n_edges = uv_local.num_rows
    if n_edges == 0:  # no edges → no triangles (empty sets have no schema)
        if as_dataset:
            return ray.data.from_arrow(
                pa.table(
                    {
                        "id": pa.array([], type=pa.int64()),
                        "tri_count": pa.array([], type=pa.int64()),
                    }
                )
            )
        return KernelResult(np.zeros(num_vertices, dtype=np.int64), 1, True, [])
    if strategy == "auto":
        if _fits_local(n_edges, num_vertices):
            strategy = "local"
        elif _keys_fit(num_vertices) and on_driver(
            8 * (2 * n_edges + 2 * num_vertices)
        ):
            # broadcast holds the sorted key array (built from its parts)
            # and the V-sized deg/ork arrays on the driver; huge graphs
            # take the shuffle path's two-column keys and distributed
            # degrees instead.
            strategy = "broadcast"
        else:
            strategy = "shuffle"

    if strategy == "local":
        tbl = collect_table(uv) if uv_local is None else uv_local
        u = tbl["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = tbl["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        M = num_vertices + 1
        deg = (
            np.bincount(u, minlength=num_vertices)
            + np.bincount(v, minlength=num_vertices)
        ).astype(np.int64)
        ork = deg * M + np.arange(num_vertices, dtype=np.int64)
        swap = ork[u] > ork[v]
        a = np.where(swap, v, u)
        b = np.where(swap, u, v)
        keys = np.sort(a * M + b)
        out_cnt = np.bincount(a, minlength=num_vertices).astype(np.int64)
        n_pairs = int(np.sum(out_cnt * (out_cnt - 1) // 2))
        use_matmul = (
            num_vertices <= DENSE_MATMUL_MAX_V
            and n_pairs * 625 > num_vertices**3
        )
        if use_matmul or n_pairs <= LOCAL_TRIANGLE_MAX_PAIRS:
            if use_matmul:
                counts = _dense_matmul_counts(u, v, num_vertices)
            else:
                ta, tb, tc = _wedge_probe_vectorized(
                    np.unique(a), keys, M, ork
                )
                hits = np.concatenate([ta, tb, tc])
                counts = np.bincount(hits, minlength=num_vertices).astype(
                    np.int64
                )
            if as_dataset:
                nz = np.flatnonzero(counts)
                return ray.data.from_arrow(
                    pa.table(
                        {
                            "id": pa.array(nz.astype(np.int64)),
                            "tri_count": pa.array(counts[nz]),
                        }
                    )
                )
            return KernelResult(counts, 1, True, [])
        # Dense mid-size graph: few edges, many wedges — keep the
        # driver-computed orientation (E is small) but distribute the probe.
        tri_vertices = _range_probe(keys, ork, M, num_vertices)
    elif strategy == "broadcast":
        deg_ds = _degree_table(uv)
        M = num_vertices + 1
        deg = dataset_to_dense_array(
            deg_ds, "id", "deg", num_vertices, default=0, dtype=np.int64
        )
        ork = deg * M + np.arange(num_vertices, dtype=np.int64)
        ork_ref = ray.put(ork)

        def orient(batch: pa.Table) -> pa.Table:
            r = ray.get(ork_ref)
            u = batch["u"].to_numpy(zero_copy_only=False)
            v = batch["v"].to_numpy(zero_copy_only=False)
            swap = r[u] > r[v]
            a = np.where(swap, v, u)
            b = np.where(swap, u, v)
            return pa.table({"a": pa.array(a), "b": pa.array(b)})

        oriented = uv.map_batches(orient, batch_format="pyarrow").materialize()
        edge_keys_parts: list[np.ndarray] = []
        for bt in oriented.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            a = bt["a"].to_numpy(zero_copy_only=False)
            b = bt["b"].to_numpy(zero_copy_only=False)
            edge_keys_parts.append(a * M + b)
        edge_keys = (
            np.sort(np.concatenate(edge_keys_parts))
            if edge_keys_parts
            else np.empty(0, dtype=np.int64)
        )
        # adjacency of each center a is the contiguous key slice
        # [a·M, (a+1)·M) of the broadcast sorted keys
        tri_vertices = _range_probe(edge_keys, ork, M, num_vertices)
    else:
        deg_ds = _degree_table(uv)
        cpus = _default_partitions()
        nj = min(64, cpus)
        oriented = _orient_distributed(uv, deg_ds, nj).materialize()

        wedges = exchange(
            [oriented], hash_buckets(["a"]), _expand_wedges_bucket, cpus * 4
        )
        # probe: distributed join of wedge pairs against the oriented edge
        # set on the composite TWO-COLUMN key (wb, wc) — each match is one
        # triangle {a, wb, wc}
        probe_side = oriented.map_batches(
            lambda t: pa.table({"wb": t["a"], "wc": t["b"]}),
            batch_format="pyarrow",
        )
        hits = bucketed_inner_join(wedges, probe_side, ["wb", "wc"], nj)
        tri_vertices = hits.map_batches(
            lambda t: pa.table(
                {
                    "id": pa.array(
                        np.concatenate(
                            [
                                t["a"].to_numpy(zero_copy_only=False),
                                t["wb"].to_numpy(zero_copy_only=False),
                                t["wc"].to_numpy(zero_copy_only=False),
                            ]
                        )
                        if t.num_rows
                        else np.empty(0, dtype=np.int64)
                    )
                }
            ),
            batch_format="pyarrow",
        )

    def partial_counts(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(ids, return_inverse=True)
        cnt = np.bincount(inv)
        return pa.table(
            {"id": pa.array(u), "cnt": pa.array(cnt.astype(np.int64))}
        )

    agg = fast_grouped_agg(
        tri_vertices.map_batches(partial_counts, batch_format="pyarrow"),
        ["id"],
        {"cnt": ("cnt", "sum")},
    )
    if as_dataset:
        return agg.map_batches(
            lambda t: pa.table({"id": t["id"], "tri_count": t["cnt"]}),
            batch_format="pyarrow",
        )
    counts = dataset_to_dense_array(
        agg, "id", "cnt", num_vertices, default=0, dtype=np.int64
    )
    return KernelResult(counts, 1, True, [])
