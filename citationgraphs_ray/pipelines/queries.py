"""Driver-facing query surface: Ray pipelines + matching DuckDB oracle SQL.

Each entry in QUERIES (109 queries, 101 with value-hash DuckDB oracles) is an
operator/pipeline from SURVEY.md §2 instantiated
over the driver's TPC-H-ish testdata tables; ORACLE_SQL holds the ANSI-SQL
equivalent DuckDB runs on the same parquet (the driver compares row count +
schema + order-insensitive value hash at sf0.01). Conventions for parity:

- the graph for kernel queries is derived deterministically from lineitem:
  ``src = l_orderkey % 1000, dst = l_partkey % 1000``, self-loops dropped,
  exact-deduped — SQL-expressible, dense enough for triangles
- aggregate/computed columns carry identical names in Ray and SQL
- float columns are rounded (round6/round4) on BOTH sides; top-k outputs
  carry integer ranks instead of raw scores (ordering verified stable)
- iterative kernels PageRank/LPA and sketch-based dedups have no SQL
  equivalent → no ORACLE_SQL entry (driver records rows-only; exactness is
  covered by the in-repo NumPy-oracle pytest suite)
"""

from __future__ import annotations

import functools
import math
import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.cooccur import (
    doc_cooccurrence,
    doc_frequencies,
    strongly_connected_pairs,
    tfidf,
    top_k_tfidf_per_doc,
)
from ..functions.metrics import compare_partitions, contingency_table
from ..graph.engine import (
    UNREACHED,
    bfs_hops,
    connected_components,
    k_core,
    label_propagation,
    sssp,
    pagerank,
)
from ..graph.triangles import triangle_counts
from ..stages.dedup import exact_dedup, minhash_lsh_dedup, simhash_dedup
from ..stages.edges import dedup_edges, symmetrize_edges
from ..stages.similarity import brute_force_topk
from ..stages.text import LangIdHeuristic
from ..utils import (
    collect_table,
    fast_distinct,
    fast_grouped_agg,
    list_column_to_matrix,
    matrix_to_list_array,
)

GRAPH_MOD = 1000

_EN_STOP_SQL = "('the','a','of','and','to','in','is','for','on','with','that','it','as','at','by')"


def _round6(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 1e6 + 0.5) / 1e6


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    # Ray's default partitioning stays: Ray 2.49 raises UnboundLocalError
    # for ``columns=`` with ``partitioning=None``, and ``select_columns``
    # after the read would read every column (no projection pushdown).
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# Graph derivation (shared)
# ---------------------------------------------------------------------------


# Session-scoped materialized cache for the shared edge derivation: nine
# graph queries start from the identical distinct (src, dst) table, and
# re-deriving it costs a full read + dedup shuffle per query. The result
# is tiny (≤ GRAPH_MOD² rows) and immutable per sf_dir — same caching
# rationale as CsrEngine's content-addressed partition layouts.
_EDGE_CACHE: dict[tuple, ray.data.Dataset] = {}


def _ray_session_key() -> str | None:
    """Identifies the live Ray session — a materialized dataset's blocks
    die with their session, so cache entries must not outlive it. The
    node id is random per raylet start; the job id is NOT usable here
    (it restarts at 01000000 for the first driver of every fresh local
    cluster, verified empirically)."""
    try:
        return ray.get_runtime_context().get_node_id()
    except Exception:
        return None


def derive_edges(sf_dir: str) -> ray.data.Dataset:
    """(src, dst) int64 edge table from lineitem — deduped, no self-loops.
    Materialized once per (Ray session, sf_dir)."""
    skey = _ray_session_key()
    # no live session → no cache (a None key would alias across sessions
    # and serve blocks whose owning raylet is gone, ADVICE r3)
    key = (skey, sf_dir) if skey is not None else None
    if key is not None:
        cached = _EDGE_CACHE.get(key)
        if cached is not None:
            return cached
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_edges(t: pa.Table) -> pa.Table:
        src = t["l_orderkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        dst = t["l_partkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep].astype(np.int64)),
                "dst": pa.array(dst[keep].astype(np.int64)),
            }
        )

    edges = dedup_edges(
        li.map_batches(to_edges, batch_format="pyarrow")
    ).materialize()
    if key is not None:
        _EDGE_CACHE[key] = edges
    return edges


_EDGES_SQL = f"""
  SELECT DISTINCT l_orderkey % {GRAPH_MOD} AS src, l_partkey % {GRAPH_MOD} AS dst
  FROM lineitem WHERE l_orderkey % {GRAPH_MOD} <> l_partkey % {GRAPH_MOD}
"""
_EDGES_SYM_SQL = f"""
  SELECT DISTINCT src, dst FROM (
    SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges)
"""
_NODES_SQL = "SELECT DISTINCT id FROM (SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges)"


def _with_graph_ctes(body: str) -> str:
    return f"WITH edges AS ({_EDGES_SQL}), edges_sym AS ({_EDGES_SYM_SQL}), nodes AS ({_NODES_SQL}) {body}"


# ---------------------------------------------------------------------------
# Query implementations
# ---------------------------------------------------------------------------


def q_edge_table(sf_dir: str):
    return derive_edges(sf_dir)


def q_edge_symmetrize(sf_dir: str):
    return symmetrize_edges(derive_edges(sf_dir))


def q_degree_out(sf_dir: str):
    agg = fast_grouped_agg(derive_edges(sf_dir), ["src"], count_as="out_degree")
    return agg.map_batches(
        lambda t: pa.table({"id": t["src"], "out_degree": t["out_degree"]}),
        batch_format="pyarrow",
    )


def q_degree_in(sf_dir: str):
    agg = fast_grouped_agg(derive_edges(sf_dir), ["dst"], count_as="in_degree")
    return agg.map_batches(
        lambda t: pa.table({"id": t["dst"], "in_degree": t["in_degree"]}),
        batch_format="pyarrow",
    )


def q_degree_histogram(sf_dir: str):
    return fast_grouped_agg(
        q_degree_out(sf_dir), ["out_degree"], count_as="n_vertices"
    )


def _present_vertex_ids(edges: ray.data.Dataset) -> np.ndarray:
    """Sorted vertex ids appearing in the edge table — distributed
    distinct over src ∪ dst (per-block C++ distinct + merged), replacing
    the old full-edge-table driver scan."""
    both = edges.map_batches(
        lambda t: pa.table(
            {
                "id": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                )
            }
        ),
        batch_format="pyarrow",
    )
    tbl = collect_table(fast_distinct(both, ["id"]))
    return np.sort(tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64))


def q_triangles_per_vertex(sf_dir: str):
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    res = triangle_counts(und, GRAPH_MOD)
    # restrict to vertices present in the edge table (SQL `nodes` CTE)
    ids = _present_vertex_ids(edges)
    return pa.table(
        {"id": pa.array(ids), "tri_count": pa.array(res.state[ids])}
    )


def q_triangle_total(sf_dir: str):
    tbl = q_triangles_per_vertex(sf_dir)
    total = int(np.sum(tbl["tri_count"].to_numpy()) // 3)
    return pa.table({"n_triangles": pa.array([total], type=pa.int64())})


def q_connected_components(sf_dir: str, reduce: str = "auto"):
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    res = connected_components(und, GRAPH_MOD, reduce=reduce)
    ids = _present_vertex_ids(edges)
    return pa.table(
        {"id": pa.array(ids), "component": pa.array(res.state[ids])}
    )


def q_pagerank(sf_dir: str, reduce: str = "auto"):
    edges = derive_edges(sf_dir).materialize()
    res = pagerank(edges, GRAPH_MOD, tol=1e-10, reduce=reduce)
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table(
        {"id": pa.array(ids), "rank": pa.array(_round6(res.state))}
    )


def q_label_propagation(sf_dir: str, reduce: str = "auto"):
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    res = label_propagation(und, GRAPH_MOD, max_rounds=20, reduce=reduce)
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table({"id": pa.array(ids), "label": pa.array(res.state)})


def q_citation_year_histogram(sf_dir: str):
    """G4 shape: edges ⋈ per-node year → groupby(dst, year).count().

    node year = min order year per node id (o_orderkey % 1000)."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def node_year(t: pa.Table) -> pa.Table:
        ids = t["o_orderkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        years = pd.to_datetime(t["o_orderdate"].to_pandas()).dt.year.to_numpy()
        return pa.table(
            {
                "id": pa.array(ids.astype(np.int64)),
                "year": pa.array(years.astype(np.int64)),
            }
        )

    years = fast_grouped_agg(
        orders.map_batches(node_year, batch_format="pyarrow"),
        ["id"],
        {"year": ("year", "min")},
    )
    from ..functions.trends import citation_year_histogram

    return citation_year_histogram(derive_edges(sf_dir), years)


# -- documents / text -------------------------------------------------------


def q_doc_frequencies(sf_dir: str):
    return doc_frequencies(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_doc_cooccurrence(sf_dir: str):
    return doc_cooccurrence(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_strong_pairs(sf_dir: str):
    out = strongly_connected_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        thres_freq=20,
        thres_ratio=1.05,
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "w1": t["w1"],
                "w2": t["w2"],
                "actual": pa.array(
                    _round6(t["actual"].to_numpy(zero_copy_only=False))
                ),
                "expected": pa.array(
                    _round6(t["expected"].to_numpy(zero_copy_only=False))
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_tfidf_top3(sf_dir: str):
    scored = tfidf(_read(sf_dir, "documents", ["doc_id", "text"]))
    top = top_k_tfidf_per_doc(scored, k=3)

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "word"]].copy()
        out["tfidf"] = _round6(df["tfidf"].to_numpy())
        return out

    return top.map_batches(clean, batch_format="pandas")


def q_token_counts(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        ws = np.fromiter(
            (len((x or "").split(" ")) for x in t["text"].to_pylist()),
            dtype=np.int64,
        )
        return pa.table({"doc_id": t["doc_id"], "ws_tokens": pa.array(ws)})

    return docs.map_batches(fn, batch_format="pyarrow")


def q_quality_scores(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        stop = {
            "the", "a", "of", "and", "to", "in", "is", "for", "on", "with",
            "that", "it", "as", "at", "by",
        }
        n = t.num_rows
        n_chars = np.zeros(n, dtype=np.int64)
        stop_ratio = np.zeros(n)
        mean_wl = np.zeros(n)
        for i, x in enumerate(t["text"].to_pylist()):
            x = x or ""
            n_chars[i] = len(x)
            toks = x.split(" ") if x else []
            if toks:
                stop_ratio[i] = sum(1 for w in toks if w in stop) / len(toks)
                mean_wl[i] = sum(len(w) for w in toks) / len(toks)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pa.array(n_chars),
                "stop_ratio": pa.array(_round6(stop_ratio)),
                "mean_word_len": pa.array(_round6(mean_wl)),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


def q_lang_id(sf_dir: str):
    """Heuristic language ID — rows-only check (no SQL equivalent)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(
        LangIdHeuristic, batch_format="pyarrow", concurrency=(1, 4)
    ).select_columns(["doc_id", "lang_pred"])


def q_exact_dedup(sf_dir: str):
    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_minhash_dedup(sf_dir: str):
    return minhash_lsh_dedup(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.8
    )


def q_simhash_dedup(sf_dir: str):
    return simhash_dedup(
        _read(sf_dir, "documents", ["doc_id", "text"]), max_hamming=3
    )


# -- embeddings -------------------------------------------------------------


def q_knn_top5(sf_dir: str):
    """Brute-force cosine top-5 for the first 3 vectors as queries; output
    integer ranks (ordering verified stable vs float jitter)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    qdf = (
        emb.filter(expr="vec_id < 3")
        .to_pandas()
        .sort_values("vec_id")
    )
    Q = np.array(qdf.embedding.tolist(), dtype=np.float64)
    top = brute_force_topk(emb, Q, k=5)

    return _ranked_topk(top)


def _ranked_topk(top):
    """(query_id, vec_id, knn_rank) with the stable (score desc, id asc)
    rank order — shared by the brute-force and IVF-exact knn queries.
    The input is ≤ nq·k rows by construction (post top-k merge), so the
    rank assignment is one driver-side vectorized pass — a distributed
    groupby here costs a Ray sort shuffle to rank a handful of rows."""
    df = (
        top.to_pandas()
        .sort_values(
            ["query_id", "score", "vec_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .reset_index(drop=True)
    )
    df["knn_rank"] = (
        df.groupby("query_id", sort=False).cumcount() + 1
    ).astype(np.int64)
    return df[["query_id", "vec_id", "knn_rank"]]


def q_membership_argmax(sf_dir: str):
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def fn(t: pa.Table) -> pa.Table:
        comm = np.argmax(
            list_column_to_matrix(t["embedding"], dtype=np.float32), axis=1
        ).astype(np.int64)
        return pa.table({"id": t["vec_id"], "community": pa.array(comm)})

    return emb.map_batches(fn, batch_format="pyarrow")


def q_partition_metrics(sf_dir: str):
    """X3/X4/X6 scalars between the label partition and vec_id % 7."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "label"])

    def a1(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t["vec_id"],
                "community": pa.array(
                    t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
            }
        )

    def a2(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"id": t["vec_id"], "community": pa.array((v % 7).astype(np.int64))}
        )

    ct = contingency_table(
        emb.map_batches(a1, batch_format="pyarrow"),
        emb.map_batches(a2, batch_format="pyarrow"),
    )
    c = compare_partitions(ct)
    return pa.table(
        {
            "ri": pa.array(_round6(np.array([c.ri]))),
            "ari": pa.array(_round6(np.array([c.ari]))),
            "nmi": pa.array(_round6(np.array([c.nmi]))),
        }
    )


# -- events -----------------------------------------------------------------


def q_events_by_day_type(sf_dir: str):
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def day(t: pa.Table) -> pa.Table:
        days = (
            pd.to_datetime(t["ts"].to_pandas()).dt.strftime("%Y-%m-%d").to_numpy()
        )
        return pa.table({"day": pa.array(days), "event_type": t["event_type"]})

    return fast_grouped_agg(
        ev.map_batches(day, batch_format="pyarrow"),
        ["day", "event_type"],
        count_as="n",
    )


def q_windowed_user_stats(sf_dir: str):
    """Tumbling 1-day window per user: (user_id, day, n_events, sum_value)."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def day(t: pa.Table) -> pa.Table:
        days = (
            pd.to_datetime(t["ts"].to_pandas()).dt.strftime("%Y-%m-%d").to_numpy()
        )
        return pa.table(
            {"user_id": t["user_id"], "day": pa.array(days), "value": t["value"]}
        )

    agg = fast_grouped_agg(
        ev.map_batches(day, batch_format="pyarrow"),
        ["user_id", "day"],
        {"sum_value": ("value", "sum")},
        count_as="n_events",
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "day": t["day"],
                "n_events": t["n_events"],
                "sum_value": pa.array(
                    _round6(t["sum_value"].to_numpy(zero_copy_only=False))
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_emerging_users(sf_dir: str):
    """A16 cold-then-hot over event days: users with < 33 events in days
    1-15 and ≥ 31 in days 16-30 (thresholds straddle the per-user median so
    the result is non-empty at every sf). Schema-stable when empty."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def bucket(t: pa.Table) -> pa.Table:
        ts = pd.to_datetime(t["ts"].to_pandas())
        far = (ts < pd.Timestamp("2024-01-16")).to_numpy().astype(np.int64)
        return pa.table(
            {
                "user_id": t["user_id"],
                "far": pa.array(far),
                "recent": pa.array(1 - far),
            }
        )

    agg = fast_grouped_agg(
        ev.map_batches(bucket, batch_format="pyarrow"),
        ["user_id"],
        {"far_count": ("far", "sum"), "recent_count": ("recent", "sum")},
    )
    def keep(t: pa.Table) -> pa.Table:
        far = t["far_count"].to_numpy(zero_copy_only=False)
        rec = t["recent_count"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((far < 33) & (rec >= 31)))

    # arrow-level filter keeps the schema even for an empty result
    return agg.map_batches(keep, batch_format="pyarrow")


# -- TPC-H-ish joins / top-k ------------------------------------------------


def q_customer_nation_stats(sf_dir: str):
    """Join shape (§2.7): customer ⋈ nation → per-nation count + balance."""
    cust = _read(sf_dir, "customer")
    nation = _read(sf_dir, "nation")
    j = cust.join(
        nation,
        join_type="inner",
        num_partitions=8,
        on=("c_nationkey",),
        right_on=("n_nationkey",),
    )
    agg = fast_grouped_agg(
        j, ["n_name"], {"total_acctbal": ("c_acctbal", "sum")}, count_as="n_customers"
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "n_name": t["n_name"],
                "n_customers": t["n_customers"],
                "total_acctbal": pa.array(
                    _round6(t["total_acctbal"].to_numpy(zero_copy_only=False))
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_top_parts_by_revenue(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        r = t["l_extendedprice"].to_numpy(zero_copy_only=False) * (
            1.0 - t["l_discount"].to_numpy(zero_copy_only=False)
        )
        return pa.table({"l_partkey": t["l_partkey"], "revenue": pa.array(r)})

    agg = (
        fast_grouped_agg(
            li.map_batches(rev, batch_format="pyarrow"),
            ["l_partkey"],
            {"revenue": ("revenue", "sum")},
        )
        .sort(["revenue", "l_partkey"], descending=[True, False])
        .limit(20)
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "l_partkey": t["l_partkey"],
                "revenue": pa.array(
                    np.floor(t["revenue"].to_numpy(zero_copy_only=False) * 1e4 + 0.5)
                    / 1e4
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape — grouped aggregation with computed columns."""
    li = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def pre(t: pa.Table) -> pa.Table:
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": t["l_quantity"],
                "price": t["l_extendedprice"],
                "disc_price": pa.array(price * (1.0 - disc)),
            }
        )

    agg = fast_grouped_agg(
        li.map_batches(pre, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty", "sum"),
            "sum_base_price": ("price", "sum"),
            "sum_disc_price": ("disc_price", "sum"),
        },
        count_as="count_order",
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": pa.array(
                    _round6(t["sum_qty"].to_numpy(zero_copy_only=False))
                ),
                "sum_base_price": pa.array(
                    np.floor(
                        t["sum_base_price"].to_numpy(zero_copy_only=False) * 1e2 + 0.5
                    )
                    / 1e2
                ),
                "sum_disc_price": pa.array(
                    np.floor(
                        t["sum_disc_price"].to_numpy(zero_copy_only=False) * 1e2 + 0.5
                    )
                    / 1e2
                ),
                "count_order": t["count_order"],
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

QUERIES = {
    "edge_table": q_edge_table,
    "edge_symmetrize": q_edge_symmetrize,
    "degree_out": q_degree_out,
    "degree_in": q_degree_in,
    "degree_histogram": q_degree_histogram,
    "triangles_per_vertex": q_triangles_per_vertex,
    "triangle_total": q_triangle_total,
    "connected_components": q_connected_components,
    "pagerank": q_pagerank,
    "label_propagation": q_label_propagation,
    "citation_year_histogram": q_citation_year_histogram,
    "doc_frequencies": q_doc_frequencies,
    "doc_cooccurrence": q_doc_cooccurrence,
    "strong_pairs": q_strong_pairs,
    "tfidf_top3": q_tfidf_top3,
    "token_counts": q_token_counts,
    "quality_scores": q_quality_scores,
    "lang_id": q_lang_id,
    "exact_dedup": q_exact_dedup,
    "minhash_dedup": q_minhash_dedup,
    "simhash_dedup": q_simhash_dedup,
    "knn_top5": q_knn_top5,
    "membership_argmax": q_membership_argmax,
    "partition_metrics": q_partition_metrics,
    "events_by_day_type": q_events_by_day_type,
    "windowed_user_stats": q_windowed_user_stats,
    "emerging_users": q_emerging_users,
    "customer_nation_stats": q_customer_nation_stats,
    "top_parts_by_revenue": q_top_parts_by_revenue,
    "lineitem_pricing_summary": q_lineitem_pricing_summary,
}

_TOK = "unnest(string_split(lower(text), ' ')) AS word"

ORACLE_SQL = {
    "edge_table": _with_graph_ctes("SELECT src, dst FROM edges"),
    "edge_symmetrize": _with_graph_ctes("SELECT src, dst FROM edges_sym"),
    "degree_out": _with_graph_ctes(
        "SELECT src AS id, count(*) AS out_degree FROM edges GROUP BY src"
    ),
    "degree_in": _with_graph_ctes(
        "SELECT dst AS id, count(*) AS in_degree FROM edges GROUP BY dst"
    ),
    "degree_histogram": _with_graph_ctes(
        """SELECT out_degree, count(*) AS n_vertices FROM (
             SELECT src, count(*) AS out_degree FROM edges GROUP BY src)
           GROUP BY out_degree"""
    ),
    "triangles_per_vertex": _with_graph_ctes(
        """, deg AS (
             SELECT id, count(*) AS d FROM (
               SELECT src AS id FROM edges_sym) GROUP BY id),
           uv AS (
             SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
             FROM edges_sym GROUP BY 1, 2),
           ork AS (SELECT id, d * 1001 + id AS r FROM deg),
           oriented AS (
             SELECT CASE WHEN ru.r < rv.r THEN u ELSE v END AS a,
                    CASE WHEN ru.r < rv.r THEN v ELSE u END AS b
             FROM uv JOIN ork ru ON uv.u = ru.id JOIN ork rv ON uv.v = rv.id),
           tris AS (
             SELECT e1.a AS x, e1.b AS y, e2.b AS z
             FROM oriented e1
             JOIN oriented e2 ON e1.b = e2.a
             JOIN oriented e3 ON e3.a = e1.a AND e3.b = e2.b),
           pervert AS (
             SELECT x AS id FROM tris UNION ALL SELECT y FROM tris
             UNION ALL SELECT z FROM tris)
           SELECT n.id, coalesce(t.c, 0) AS tri_count
           FROM nodes n LEFT JOIN (
             SELECT id, count(*) AS c FROM pervert GROUP BY id) t
           ON n.id = t.id"""
    ),
    "triangle_total": _with_graph_ctes(
        """, uv AS (
             SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
             FROM edges_sym GROUP BY 1, 2),
           deg AS (SELECT id, count(*) AS d FROM (
             SELECT u AS id FROM uv UNION ALL SELECT v FROM uv) GROUP BY id),
           ork AS (SELECT id, d * 1001 + id AS r FROM deg),
           oriented AS (
             SELECT CASE WHEN ru.r < rv.r THEN u ELSE v END AS a,
                    CASE WHEN ru.r < rv.r THEN v ELSE u END AS b
             FROM uv JOIN ork ru ON uv.u = ru.id JOIN ork rv ON uv.v = rv.id)
           SELECT count(*) AS n_triangles
           FROM oriented e1
           JOIN oriented e2 ON e1.b = e2.a
           JOIN oriented e3 ON e3.a = e1.a AND e3.b = e2.b"""
    ),
    "connected_components": f"""
        WITH RECURSIVE edges AS ({_EDGES_SQL}),
        edges_sym AS ({_EDGES_SYM_SQL}),
        nodes AS ({_NODES_SQL}),
        reach(id, r) AS (
          SELECT id, id FROM nodes
          UNION
          SELECT e.dst, reach.r FROM edges_sym e
          JOIN reach ON e.src = reach.id)
        SELECT id, min(r) AS component FROM reach GROUP BY id""",
    "citation_year_histogram": _with_graph_ctes(
        """, node_years AS (
             SELECT o_orderkey % 1000 AS id,
                    min(year(o_orderdate)) AS year
             FROM orders GROUP BY 1)
           SELECT e.dst AS id, y.year, count(*) AS n_citations
           FROM edges e JOIN node_years y ON e.src = y.id
           GROUP BY 1, 2"""
    ),
    "doc_frequencies": f"""
        SELECT word, count(DISTINCT doc_id) AS df
        FROM (SELECT doc_id, {_TOK} FROM documents)
        GROUP BY word""",
    "doc_cooccurrence": f"""
        WITH words AS (
          SELECT DISTINCT doc_id, {_TOK} FROM documents)
        SELECT a.word AS w1, b.word AS w2, count(*) AS freq
        FROM words a JOIN words b ON a.doc_id = b.doc_id AND a.word < b.word
        GROUP BY 1, 2""",
    "strong_pairs": f"""
        WITH words AS (SELECT DISTINCT doc_id, {_TOK} FROM documents),
        n AS (SELECT count(*)::DOUBLE AS n FROM documents),
        df AS (SELECT word, count(*)::DOUBLE AS df FROM words GROUP BY word),
        pairs AS (
          SELECT a.word AS w1, b.word AS w2, count(*)::DOUBLE AS freq
          FROM words a JOIN words b ON a.doc_id = b.doc_id AND a.word < b.word
          GROUP BY 1, 2)
        SELECT w1, w2, round(freq, 6) AS actual,
               round(d1.df * d2.df / n.n, 6) AS expected
        FROM pairs JOIN df d1 ON pairs.w1 = d1.word
        JOIN df d2 ON pairs.w2 = d2.word CROSS JOIN n
        WHERE freq >= 20 AND freq >= 1.05 * (d1.df * d2.df / n.n)""",
    "tfidf_top3": f"""
        WITH tok AS (SELECT doc_id, {_TOK} FROM documents),
        tf AS (SELECT doc_id, word, count(*)::DOUBLE AS tf FROM tok GROUP BY 1, 2),
        df AS (SELECT word, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY 1),
        n AS (SELECT count(*)::DOUBLE AS n FROM documents),
        scored AS (
          SELECT doc_id, word, tf * ln(n.n / df.df) AS tfidf,
                 row_number() OVER (
                   PARTITION BY doc_id ORDER BY tf * ln(n.n / df.df) DESC, word ASC
                 ) AS rn
          FROM tf JOIN df USING (word) CROSS JOIN n)
        SELECT doc_id, word, round(tfidf, 6) AS tfidf
        FROM scored WHERE rn <= 3""",
    "token_counts": """
        SELECT doc_id, len(string_split(text, ' '))::BIGINT AS ws_tokens
        FROM documents""",
    "quality_scores": f"""
        WITH tok AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents),
        stats AS (
          SELECT doc_id,
                 avg(CASE WHEN word IN {_EN_STOP_SQL} THEN 1.0 ELSE 0.0 END) AS sr,
                 avg(length(word)::DOUBLE) AS mwl
          FROM tok GROUP BY doc_id)
        SELECT d.doc_id, length(d.text)::BIGINT AS n_chars,
               round(s.sr, 6) AS stop_ratio,
               round(s.mwl, 6) AS mean_word_len
        FROM documents d JOIN stats s ON d.doc_id = s.doc_id""",
    "exact_dedup": """
        SELECT doc_id, sha256(text) AS content_hash,
               doc_id = min(doc_id) OVER (PARTITION BY sha256(text))
                 AS is_representative
        FROM documents""",
    "knn_top5": """
        WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings
                   WHERE vec_id < 3),
        scored AS (
          SELECT q.query_id, e.vec_id,
                 list_cosine_similarity(q.embedding, e.embedding) AS s
          FROM q CROSS JOIN embeddings e),
        ranked AS (
          SELECT query_id, vec_id,
                 row_number() OVER (
                   PARTITION BY query_id ORDER BY s DESC, vec_id ASC) AS knn_rank
          FROM scored)
        SELECT query_id, vec_id, knn_rank FROM ranked WHERE knn_rank <= 5""",
    "membership_argmax": """
        SELECT vec_id AS id,
               (list_position(embedding, list_max(embedding)) - 1)::BIGINT
                 AS community
        FROM embeddings""",
    "partition_metrics": """
        WITH ct AS (
          SELECT label AS c1, vec_id % 7 AS c2, count(*)::DOUBLE AS nij
          FROM embeddings GROUP BY 1, 2),
        a AS (SELECT c1, sum(nij) AS ai FROM ct GROUP BY c1),
        b AS (SELECT c2, sum(nij) AS bj FROM ct GROUP BY c2),
        n AS (SELECT sum(nij) AS n FROM ct),
        sums AS (
          SELECT
            (SELECT sum(nij * (nij - 1) / 2) FROM ct) AS sij,
            (SELECT sum(ai * (ai - 1) / 2) FROM a) AS sa,
            (SELECT sum(bj * (bj - 1) / 2) FROM b) AS sb,
            (SELECT n * (n - 1) / 2 FROM n) AS tp,
            (SELECT n FROM n) AS n),
        ent AS (
          SELECT
            (SELECT -sum((ai / n.n) * ln(ai / n.n)) FROM a, n) AS h1,
            (SELECT -sum((bj / n.n) * ln(bj / n.n)) FROM b, n) AS h2,
            (SELECT sum((nij / n.n) * ln((nij / n.n) /
                ((ai / n.n) * (bj / n.n))))
             FROM ct JOIN a USING (c1) JOIN b USING (c2) CROSS JOIN n) AS mi)
        SELECT
          round((tp + 2 * sij - sa - sb) / tp, 6) AS ri,
          round((sij - sa * sb / tp) / (0.5 * (sa + sb) - sa * sb / tp), 6) AS ari,
          round(2 * mi / (h1 + h2), 6) AS nmi
        FROM sums, ent""",
    "events_by_day_type": """
        SELECT strftime(ts, '%Y-%m-%d') AS day, event_type, count(*) AS n
        FROM events GROUP BY 1, 2""",
    "windowed_user_stats": """
        SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
               count(*) AS n_events, round(sum(value), 6) AS sum_value
        FROM events GROUP BY 1, 2""",
    "emerging_users": """
        SELECT user_id,
               sum(CASE WHEN ts < TIMESTAMP '2024-01-16' THEN 1 ELSE 0 END)::BIGINT
                 AS far_count,
               sum(CASE WHEN ts >= TIMESTAMP '2024-01-16' THEN 1 ELSE 0 END)::BIGINT
                 AS recent_count
        FROM events GROUP BY user_id
        HAVING far_count < 33 AND recent_count >= 31""",
    "customer_nation_stats": """
        SELECT n_name, count(*) AS n_customers,
               round(sum(c_acctbal), 6) AS total_acctbal
        FROM customer JOIN nation ON c_nationkey = n_nationkey
        GROUP BY n_name""",
    "top_parts_by_revenue": """
        SELECT l_partkey,
               round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
        FROM lineitem GROUP BY l_partkey
        ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC, l_partkey ASC
        LIMIT 20""",
    "lineitem_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 6) AS sum_qty,
               round(sum(l_extendedprice), 2) AS sum_base_price,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
               count(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus""",
}


# -- round-2 additions: bigrams, A17/A18 graph trends, word2phrase, topics --


def q_bigram_counts(sf_dir: str):
    """A6 bigram counting over documents: (w1, w2, n)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def bi(t: pa.Table) -> pa.Table:
        w1: list[str] = []
        w2: list[str] = []
        for x in t["text"].to_pylist():
            toks = (x or "").lower().split()
            for a, b in zip(toks, toks[1:]):
                w1.append(a)
                w2.append(b)
        return pa.table({"w1": pa.array(w1), "w2": pa.array(w2)})

    return fast_grouped_agg(
        docs.map_batches(bi, batch_format="pyarrow"), ["w1", "w2"], count_as="n"
    )


def q_corpusx_concurrence(sf_dir: str):
    """A3 CorpusX cross-group concurrence over documents: groups = fixed
    windows of 5 tokens, weight = count1·count2 across different groups
    of the same doc, both orientations (symmetric)."""
    from ..functions.cooccur import corpusx_concurrences

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_groups(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        gids: list[int] = []
        words: list[list[str]] = []
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = (x or "").lower().split()
            for g in range(0, len(toks), 5):
                ids.append(i)
                gids.append(g // 5)
                words.append(toks[g : g + 5])
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "group_id": pa.array(gids, type=pa.int64()),
                "words": pa.array(words, type=pa.list_(pa.string())),
            }
        )

    grouped = docs.map_batches(to_groups, batch_format="pyarrow")
    return corpusx_concurrences(grouped)


def q_word2phrase_accepted(sf_dir: str):
    """A7 accepted-bigram table: freq ≥ 10 and (freq-10)/(f1·f2) ≥ 3e-5
    (thresholds chosen to be non-empty on the short-doc testdata)."""
    from ..functions.vocab import (
        accepted_bigrams,
        bigram_counts,
        tokenize_docs,
        unigram_counts,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    tok = tokenize_docs(docs).materialize()
    acc = accepted_bigrams(
        unigram_counts(tok), bigram_counts(tok), 10, 3e-5
    ).sort_values(["w1", "w2"])
    return pa.table(
        {
            "w1": pa.array(acc["w1"].tolist()),
            "w2": pa.array(acc["w2"].tolist()),
            "n": pa.array(acc["n"].to_numpy(), type=pa.int64()),
        }
    )


def _node_years_mod(sf_dir: str) -> ray.data.Dataset:
    """Synthetic per-node year = 1995 + id % 7 over the derived graph's
    vertices — deterministic, SQL-expressible, spreads years so the A17/A18
    cold/hot windows are non-degenerate (orders' min-year collapses to the
    first year for nearly every node)."""
    edges = derive_edges(sf_dir)

    def ids(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t["src"].to_numpy(zero_copy_only=False),
                t["dst"].to_numpy(zero_copy_only=False),
            ]
        )
        u = np.unique(both)
        return pa.table({"id": pa.array(u)})

    verts = fast_distinct(edges.map_batches(ids, batch_format="pyarrow"), ["id"])
    return verts.map_batches(
        lambda t: pa.table(
            {
                "id": t["id"],
                "year": pa.array(
                    1995 + t["id"].to_numpy(zero_copy_only=False) % 7
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_hot_vertices(sf_dir: str):
    """A18 over the derived graph: ≥ 20 citations in pub year or next."""
    from ..functions.trends import hot_topic_publications

    return hot_topic_publications(
        derive_edges(sf_dir), _node_years_mod(sf_dir), high_threshold=20
    )


def q_emerging_vertices(sf_dir: str):
    """A17 over the derived graph: cold ≤1997 (<24), then mean ≥ 9/yr."""
    from ..functions.trends import emerging_topic_publications

    out = emerging_topic_publications(
        derive_edges(sf_dir),
        _node_years_mod(sf_dir),
        year_far_away=1997,
        low_threshold=24,
        high_threshold=9,
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "id": t["id"],
                "cold_citations": t["cold_citations"],
                "hot_mean": pa.array(
                    _round6(t["hot_mean"].to_numpy(zero_copy_only=False))
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_lda_topics(sf_dir: str):
    """T1 AD-LDA memberships over documents — rows-only (stochastic model,
    deterministic per seed; exactness covered by pytest behavior tests)."""
    from ..functions.vocab import build_vocab, encode_docs, tokenize_docs
    from ..stages.topics import LdaEngine

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    tok = tokenize_docs(docs).materialize()
    vocab = build_vocab(tok)
    enc = encode_docs(tok, vocab).materialize()
    eng = LdaEngine(
        enc, num_topics=5, vocab_size=vocab.count(), num_partitions=4, seed=42
    ).train(10)
    out = eng.memberships()
    res = out.map_batches(
        lambda t: pa.table(
            {
                "id": t["id"],
                "top_topic": pa.array(
                    np.array(
                        [int(np.argmax(m)) for m in t["membership"].to_pylist()],
                        dtype=np.int64,
                    )
                ),
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    eng.shutdown()
    return res


def q_gsdmm_topics(sf_dir: str):
    from ..functions.vocab import build_vocab, encode_docs, tokenize_docs
    from ..stages.topics import GsdmmEngine

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    tok = tokenize_docs(docs).materialize()
    vocab = build_vocab(tok)
    enc = encode_docs(tok, vocab).materialize()
    eng = GsdmmEngine(
        enc, num_topics=8, vocab_size=vocab.count(), num_partitions=4, seed=42
    ).train(10)
    res = eng.assignments().to_pandas()
    eng.shutdown()
    return res


def _planted_gate_corpus(n_per_topic: int = 30):
    """Deterministic two-disjoint-vocabulary planted corpus (the pytest
    fixture's shape, tests/test_vocab_topics.py): doc 2i is topic 0,
    doc 2i+1 is topic 1; per-doc token order is a seeded permutation so
    the Gibbs chains see non-trivial sequences. Fully deterministic —
    the gate below is reproducible bit-for-bit per (seed, iters)."""
    rng = np.random.default_rng(0)
    v0 = "alpha beta gamma delta epsilon".split()
    v1 = "one two three four five".split()
    texts: list[str] = []
    labels: list[int] = []
    for _ in range(n_per_topic):
        texts.append(" ".join(rng.permutation(v0)))
        labels.append(0)
        texts.append(" ".join(rng.permutation(v1)))
        labels.append(1)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts),
            }
        )
    )
    return ds, np.array(labels)


def _planted_ari_row(sf_dir: str, pred: np.ndarray, labels: np.ndarray):
    """One-row gate result: documents-table row count (ties the query to
    the input tables, so the oracle is not a pure constant) + the seeded
    ARI-vs-planted contract bit, computed through the production
    ``compare_partitions`` (X4) contingency math."""
    from ..functions.metrics import compare_partitions

    ct = (
        pd.DataFrame({"c1": labels, "c2": pred})
        .groupby(["c1", "c2"])
        .size()
        .reset_index(name="n")
    )
    ari = compare_partitions(ct).ari
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
    return pa.table(
        {
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "ari_ge_090": pa.array([int(ari >= 0.9)], type=pa.int64()),
        }
    )


def q_lda_topics_ari(sf_dir: str):
    """Seeded distributional gate for AD-LDA (VERDICT r4 #4): fixed seed,
    planted two-topic corpus, assert ARI(argmax membership, planted) >=
    0.9 as a checkable 1-row contract — converts the stochastic rows-only
    lda_topics entry into an oracle row. Reference semantics:
    CitationGraphs.go:1012-1342 (wall-clock-seeded there; seeded here)."""
    from ..functions.vocab import build_vocab, encode_docs, tokenize_docs
    from ..stages.topics import LdaEngine

    docs, labels = _planted_gate_corpus()
    tok = tokenize_docs(docs).materialize()
    vocab = build_vocab(tok)
    enc = encode_docs(tok, vocab).materialize()
    eng = LdaEngine(
        enc, num_topics=2, vocab_size=vocab.count(), num_partitions=2, seed=1
    ).train(30)
    ms = eng.memberships().to_pandas().sort_values("id")
    pred = np.array([int(np.argmax(m)) for m in ms.membership])
    eng.shutdown()
    return _planted_ari_row(sf_dir, pred, labels)


def q_gsdmm_topics_ari(sf_dir: str):
    """Seeded distributional gate for GSDMM (VERDICT r4 #4) — same planted
    contract as ``q_lda_topics_ari``. Reference semantics:
    CitationGraphs.go:1587-1926."""
    from ..functions.vocab import build_vocab, encode_docs, tokenize_docs
    from ..stages.topics import GsdmmEngine

    docs, labels = _planted_gate_corpus()
    tok = tokenize_docs(docs).materialize()
    vocab = build_vocab(tok)
    enc = encode_docs(tok, vocab).materialize()
    eng = GsdmmEngine(
        enc, num_topics=4, vocab_size=vocab.count(), num_partitions=2, seed=2
    ).train(15)
    asg = eng.assignments().to_pandas().sort_values("id")
    pred = asg.topic.to_numpy()
    eng.shutdown()
    # seed=2 collapses to exactly one pure cluster per planted topic
    # (ARI 1.0, rerun-stable); seed=3 leaves a 2-cluster refinement of one
    # topic, which ARI scores 0.75 despite perfect purity — a gate on a
    # refinement-tolerant metric would mask a real separation regression
    return _planted_ari_row(sf_dir, pred, labels)


def q_ngram_dedup(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_dedup

    return ngram_jaccard_dedup(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.8
    )


def q_embedding_dedup(sf_dir: str):
    from ..stages.dedup import embedding_cosine_dedup

    return embedding_cosine_dedup(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.99
    )


def q_ivf_knn_top5(sf_dir: str):
    """IVF approximate top-5 — rows-only (approximate by design)."""
    from ..stages.similarity import ivf_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    qdf = emb.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    Q = np.array(qdf.embedding.tolist(), dtype=np.float64)
    out = ivf_topk(emb, Q, k=5, num_clusters=8, nprobe=4)
    return out.map_batches(
        lambda df: df[["query_id", "vec_id"]], batch_format="pandas"
    )


def q_triangles_shuffle(sf_dir: str):
    """The huge-E triangle strategy (distributed degrees + join probe, no
    broadcast edge-key array) FORCED on the sf graph — hash-verified
    against the same SQL oracle as triangles_per_vertex, so the scale path
    itself sits in the correctness gate."""
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    res = triangle_counts(und, GRAPH_MOD, strategy="shuffle")
    ids = _present_vertex_ids(edges)
    return pa.table(
        {"id": pa.array(ids), "tri_count": pa.array(res.state[ids])}
    )


def q_ivf_knn_exact(sf_dir: str):
    """IVF with nprobe = num_clusters: the centroid-bucketed layout +
    pruned-read scoring machinery must reproduce the exact brute-force
    top-5 (same SQL oracle as knn_top5)."""
    from ..stages.similarity import ivf_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    qdf = emb.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    Q = np.array(qdf.embedding.tolist(), dtype=np.float64)
    top = ivf_topk(emb, Q, k=5, num_clusters=8, nprobe=8)
    return _ranked_topk(top)


def q_minhash_exact(sf_dir: str):
    """Exact-mode gate for the MinHash machinery (the ivf_knn_exact trick,
    VERDICT r3 #6): sketching/banding is skipped and ALL pairs of a small
    doc subset are fed through the SAME ``_verify_jaccard`` +
    ``resolve_dup_clusters`` code the banded-LSH path uses, hash-checked
    against an all-pairs Jaccard + recursive-CTE CC SQL oracle. The
    all-pairs candidate table is a deliberate small-subset driver build —
    the LSH path replaces it with banded blocking at scale."""
    from itertools import combinations

    from ..stages.dedup import _verify_jaccard, resolve_dup_clusters

    cap = 120
    docs = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .filter(expr=f"doc_id < {cap}")
        .materialize()
    )
    num_ids = int(docs.max("doc_id")) + 1
    src, dst = zip(*combinations(range(num_ids), 2))
    cand = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
            }
        )
    )
    verified = _verify_jaccard(cand, docs, 0.8, 3, "text", "doc_id")
    return resolve_dup_clusters(verified, num_ids)


def q_embedding_exact(sf_dir: str):
    """Exact-mode gate for the embedding near-dup machinery (the
    minhash_exact / ivf_knn_exact trick): sign-LSH bucketing is skipped
    and ALL pairs of a small vector subset are fed through the SAME
    ``_verify_cosine`` + ``resolve_dup_clusters`` code the LSH path uses,
    hash-checked against an all-pairs ``list_cosine_similarity`` +
    recursive-CTE CC SQL oracle. Threshold 0.38 sits in a measured ≥2e-3
    gap of the synthetic cosine distribution at both sf0.001 and sf0.01,
    so float round-off cannot flip a pair."""
    from itertools import combinations

    from ..stages.dedup import _verify_cosine, resolve_dup_clusters

    cap = 150
    emb = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .filter(expr=f"vec_id < {cap}")
        .materialize()
    )
    num_ids = int(emb.max("vec_id")) + 1
    src, dst = zip(*combinations(range(num_ids), 2))
    cand = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
            }
        )
    )
    verified = _verify_cosine(cand, emb, 0.38, "embedding", "vec_id")
    return resolve_dup_clusters(verified, num_ids)


def q_simhash_exact(sf_dir: str):
    """Exact-mode gate for the SimHash machinery (the minhash_exact /
    embedding_exact trick, VERDICT r4 #3): banding is disabled
    (``all_pairs=True`` → ONE bucket), so ALL pairs of a small doc subset
    go through the SAME ``_hamming_pairs`` verify + ``resolve_dup_clusters``
    code the banded path uses, and the token hash is swapped for the
    SQL-twin-able Mersenne polynomial (``mersenne_token_hash``) so the
    simhash VALUES themselves are reproducible in DuckDB (HUGEINT power
    table + bit_count(xor(...))). The blake2b default has no SQL twin —
    the hash function is the only injected piece; every verify/resolve
    line is production code."""
    from ..stages.dedup import mersenne_token_hash, simhash_dedup

    cap = 150
    docs = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .filter(expr=f"doc_id < {cap}")
        .materialize()
    )
    return simhash_dedup(
        docs,
        max_hamming=3,
        token_hash=mersenne_token_hash,
        all_pairs=True,
        max_bucket=cap + 1,
    )


def q_rank_jumps(sf_dir: str):
    """Leap2Trend T5 (all-pairs cosine vs high-freq set) + T6 (neighbor
    ranks) + T7 (prev-year join → rank jumps) over deterministic per-
    "year" vectors both Ray and SQL can produce: year-1 = the embeddings
    table, year-2 = phrase i reassigned to vector (i+1) mod 40 (a cyclic
    drift that permutes the pairwise geometry — an element-wise reversal
    would be orthogonal and leave every cosine unchanged). First oracle
    row for the Leap2Trend pipeline (VERDICT r3 missing #2; reference
    CitationGraphs.go:4237-4331)."""
    from ..functions.leap2trend import phrase_similarities
    from ..functions.trends import neighbor_ranks, rank_jumps

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).filter(
        expr="vec_id < 40"
    )
    df = emb.to_pandas().sort_values("vec_id")
    v1 = {
        f"p{int(i)}": np.asarray(list(v), dtype=np.float64)
        for i, v in zip(df.vec_id, df.embedding)
    }
    n = len(v1)
    v2 = {f"p{i}": v1[f"p{(i + 1) % n}"] for i in range(n)}
    phrases = sorted(v1)
    ranks1 = neighbor_ranks(phrase_similarities(v1, phrases)).materialize()
    ranks2 = neighbor_ranks(phrase_similarities(v2, phrases)).materialize()
    return rank_jumps(ranks1, ranks2, min_jump=1)


def q_fingerprints(sf_dir: str):
    from ..stages.text import fingerprint_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(
        lambda t: fingerprint_batch(t).select(["doc_id", "fingerprint"]),
        batch_format="pyarrow",
    )


def q_modularity_cpm(sf_dir: str):
    """X1/X2 scalars over embedding memberships — rows-only (no SQL)."""
    from ..functions.metrics import (
        communities_from_memberships,
        cpm,
        soft_modularity,
    )

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ms = emb.map_batches(
        lambda t: pa.table(
            {
                "id": t["vec_id"],
                "membership": matrix_to_list_array(
                    list_column_to_matrix(t["embedding"])
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    comms = communities_from_memberships(ms).materialize()
    return pa.table(
        {
            "modularity": pa.array(_round6(np.array([soft_modularity(ms, comms)]))),
            "cpm": pa.array(_round6(np.array([cpm(ms, comms, gamma=0.5)]))),
        }
    )


def q_sim_tfidf_top3(sf_dir: str):
    """A10 SimTFIDF with co-occurrence-derived similarity — rows-only."""
    from ..functions.cooccur import doc_cooccurrence
    from ..functions.phrases import (
        phrase_similarity_from_cooccurrence,
        sim_tfidf,
        top_k_per_doc_non_overlapping,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    pair_counts = doc_cooccurrence(docs).filter(expr="freq >= 50")
    sims = phrase_similarity_from_cooccurrence(pair_counts)
    scored = sim_tfidf(docs, sims)
    top = top_k_per_doc_non_overlapping(scored, k=3, score_col="sim_tfidf")
    return top.map_batches(
        lambda df: df[["doc_id", "word"]], batch_format="pandas"
    )


def q_asof_prior_purchase(sf_dir: str):
    """First-class backward AS-OF JOIN (stages/temporal.py:asof_join —
    the build brief's custom-operator list): each event matched to the
    same user's most recent purchase event at-or-before its timestamp;
    the right side is pre-deduped to unique (user_id, ts) by max
    event_id, the DuckDB ASOF JOIN contract."""
    from ..stages.temporal import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    pur = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type"]
    ).filter(expr="event_type == 'purchase'")
    right = fast_grouped_agg(
        pur.map_batches(
            lambda t: pa.table(
                {"user_id": t["user_id"], "ts": t["ts"], "eid": t["event_id"]}
            ),
            batch_format="pyarrow",
        ),
        ["user_id", "ts"],
        {"purchase_id": ("eid", "max")},
    )
    j = asof_join(ev, right, key="user_id", ts="ts")
    return j.map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.int64()),
                "purchase_id": t["purchase_id"],
            }
        ),
        batch_format="pyarrow",
    )


def q_user_sessions(sf_dir: str):
    """Sessionization (stages/temporal.py:sessionize): per-user sessions
    split on >30-minute gaps, aggregated to (start, end, n, value)."""
    from ..stages.temporal import sessionize

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    s = sessionize(
        ev, key="user_id", ts="ts", gap=pd.Timedelta(minutes=30), tiebreak="event_id"
    )
    agg = fast_grouped_agg(
        s.map_batches(
            lambda t: pa.table(
                {
                    "user_id": t["user_id"],
                    "session_idx": t["session_idx"],
                    "ts": t["ts"],
                    "value": t["value"],
                }
            ),
            batch_format="pyarrow",
        ),
        ["user_id", "session_idx"],
        {
            "smin": ("ts", "min"),
            "smax": ("ts", "max"),
            "sv": ("value", "sum"),
        },
        count_as="n_events",
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "session_idx": t["session_idx"],
                "start_us": t["smin"].cast(pa.int64()),
                "end_us": t["smax"].cast(pa.int64()),
                "n_events": t["n_events"],
                "total_value": pa.array(
                    _round6(t["sv"].to_numpy(zero_copy_only=False))
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_purchase_followup(sf_dir: str):
    """Banded range join (stages/temporal.py:range_join): per purchase
    event, count + value of the same user's events within the following
    hour (band (ts, ts+1h], inner semantics)."""
    from ..stages.temporal import range_join

    pur = (
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
        .filter(expr="event_type == 'purchase'")
        .map_batches(
            lambda t: pa.table(
                {
                    "user_id": t["user_id"],
                    "purchase_id": t["event_id"],
                    "pts": t["ts"],
                }
            ),
            batch_format="pyarrow",
        )
    )
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    j = range_join(
        pur,
        ev,
        key="user_id",
        left_ts="pts",
        right_ts="ts",
        width=pd.Timedelta(hours=1),
        inclusive="right",
    )
    agg = fast_grouped_agg(
        j.map_batches(
            lambda t: pa.table(
                {"purchase_id": t["purchase_id"], "value": t["value"]}
            ),
            batch_format="pyarrow",
        ),
        ["purchase_id"],
        {"fv": ("value", "sum")},
        count_as="n_follow",
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "purchase_id": t["purchase_id"],
                "n_follow": t["n_follow"],
                "follow_value": pa.array(
                    _round6(t["fv"].to_numpy(zero_copy_only=False))
                ),
            }
        ),
        batch_format="pyarrow",
    )


QUERIES.update(
    {
        "bigram_counts": q_bigram_counts,
        "word2phrase_accepted": q_word2phrase_accepted,
        "hot_vertices": q_hot_vertices,
        "emerging_vertices": q_emerging_vertices,
        "lda_topics": q_lda_topics,
        "gsdmm_topics": q_gsdmm_topics,
        "lda_topics_ari": q_lda_topics_ari,
        "gsdmm_topics_ari": q_gsdmm_topics_ari,
        "ngram_dedup": q_ngram_dedup,
        "embedding_dedup": q_embedding_dedup,
        "ivf_knn_top5": q_ivf_knn_top5,
        "ivf_knn_exact": q_ivf_knn_exact,
        "triangles_shuffle": q_triangles_shuffle,
        "minhash_exact": q_minhash_exact,
        "simhash_exact": q_simhash_exact,
        "embedding_exact": q_embedding_exact,
        "rank_jumps": q_rank_jumps,
        "fingerprints": q_fingerprints,
        "modularity_cpm": q_modularity_cpm,
        "sim_tfidf_top3": q_sim_tfidf_top3,
        "corpusx_concurrence": q_corpusx_concurrence,
        "asof_prior_purchase": q_asof_prior_purchase,
        "user_sessions": q_user_sessions,
        "purchase_followup": q_purchase_followup,
    }
)

# Iterative kernels as DuckDB RECURSIVE CTEs carrying the state vector as
# a LIST column (single self-reference satisfied; everything else derives
# from the unnested list). PageRank: DOUBLE casts are load-bearing —
# DuckDB types 1.0/1000 as DECIMAL, silently quantizing the whole
# iteration. Verified exact vs the Ray engines after round6 (pagerank) /
# exactly (LPA, integer labels).
_PAGERANK_SQL = f"""
WITH RECURSIVE
edges AS ({_EDGES_SQL}),
deg AS (SELECT src, COUNT(*)::DOUBLE AS outd FROM edges GROUP BY src),
pr(it, ranks, resid) AS (
  SELECT 0, (SELECT list((1.0/{GRAPH_MOD})::DOUBLE) FROM range({GRAPH_MOD})),
         1.0::DOUBLE
  UNION ALL
  SELECT it + 1, new_ranks,
    list_max(list_transform(list_zip(new_ranks, ranks),
                            p -> abs(p[1] - p[2])))
  FROM (
    SELECT it, ranks,
      (SELECT list(
          (0.15/{GRAPH_MOD})::DOUBLE + 0.85::DOUBLE * (
            COALESCE((SELECT SUM(ranks[e.src + 1] / d.outd)
                      FROM edges e JOIN deg d ON e.src = d.src
                      WHERE e.dst = n.i), 0.0::DOUBLE)
            + (SELECT COALESCE(SUM(ranks[m.i + 1]), 0.0::DOUBLE)
               FROM range({GRAPH_MOD}) AS m(i)
               LEFT JOIN deg dd ON m.i = dd.src
               WHERE dd.src IS NULL) / {GRAPH_MOD}
          ) ORDER BY n.i)
       FROM range({GRAPH_MOD}) AS n(i)) AS new_ranks
    FROM pr WHERE it < 200 AND resid > 1e-10
  )
)
SELECT n.i AS id, FLOOR(r.ranks[n.i + 1] * 1e6 + 0.5) / 1e6 AS rank
FROM (SELECT ranks FROM pr ORDER BY it DESC LIMIT 1) r,
     range({GRAPH_MOD}) AS n(i)
ORDER BY id
"""

_LPA_SQL = f"""
WITH RECURSIVE
edges AS ({_EDGES_SQL}),
edges_sym AS ({_EDGES_SYM_SQL}),
lp(it, labels, changed) AS (
  SELECT 0, (SELECT list(t.i ORDER BY t.i) FROM range({GRAPH_MOD}) t(i)), 1
  UNION ALL
  SELECT it + 1, new_labels,
    len(list_filter(list_zip(new_labels, labels), p -> p[1] <> p[2]))
  FROM (
    SELECT it, labels,
      (SELECT list(COALESCE(
          (SELECT lbl FROM (
              SELECT labels[e.src + 1] AS lbl, COUNT(*) AS c
              FROM edges_sym e WHERE e.dst = n.i GROUP BY lbl
              ORDER BY c DESC, lbl ASC LIMIT 1)),
          labels[n.i + 1]) ORDER BY n.i)
       FROM range({GRAPH_MOD}) AS n(i)) AS new_labels
    FROM lp WHERE it < 20 AND changed > 0
  )
)
SELECT n.i AS id, l.labels[n.i + 1] AS label
FROM (SELECT labels FROM lp ORDER BY it DESC LIMIT 1) l,
     range({GRAPH_MOD}) AS n(i)
ORDER BY id
"""

# X1/X2 scalars in closed form: per-community vector sums via zipped
# unnest + generate_subscripts; ||Σ n_i||² needs no pairwise blowup.
# Verified equal to the Ray block-parallel implementation after round6.
_MODULARITY_CPM_SQL = """
WITH m AS (
  SELECT vec_id AS id,
    (list_position(embedding, list_max(embedding)) - 1)::BIGINT AS comm,
    list_transform(embedding,
      x -> (x::DOUBLE) / (CASE WHEN nrm = 0 THEN 1.0 ELSE nrm END)) AS n
  FROM (SELECT vec_id, embedding,
          sqrt(list_sum(list_transform(embedding,
            x -> (x::DOUBLE)*(x::DOUBLE)))) AS nrm
        FROM embeddings)
),
dims AS (SELECT id, comm, unnest(n) AS v, generate_subscripts(n, 1) AS d FROM m),
colsum AS (SELECT d, SUM(v) AS cs FROM dims GROUP BY d),
s AS (SELECT id, comm, SUM(v * cs) AS si
      FROM dims JOIN colsum USING(d) GROUP BY id, comm),
tt AS (SELECT SUM(si) AS t FROM s),
csum AS (SELECT comm, d, SUM(v) AS cv FROM dims GROUP BY comm, d),
cos_sum AS (SELECT comm, SUM(cv*cv) AS cc FROM csum GROUP BY comm),
scomm AS (SELECT comm, SUM(si) AS ssum, COUNT(*)::DOUBLE AS cnt
          FROM s GROUP BY comm)
SELECT
  FLOOR(SUM(cc - ssum*ssum / (SELECT t FROM tt)) * 1e6 + 0.5)/1e6
    AS modularity,
  FLOOR(SUM(cc - 0.5*cnt*cnt) * 1e6 + 0.5)/1e6 AS cpm
FROM cos_sum JOIN scomm USING(comm)
"""

# Stopword-profile language ID: the CASE ladder encodes the engine's
# first-wins tie order (en > es > fr > de, strict-greater replacement).
# The engine's CJK branch has no SQL twin — valid for Latin-script
# corpora like the testdata; a CJK doc would surface as a hash mismatch.
_LANG_ID_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '\\s+')) AS w
  FROM documents),
sc AS (
  SELECT doc_id,
    SUM(CASE WHEN w IN ('the','a','of','and','to','in','is','for','on',
                        'with','that','it','as','at','by') THEN 1 ELSE 0 END) AS s_en,
    SUM(CASE WHEN w IN ('el','la','de','y','que','en','los','del','se',
                        'las','un','por','con','una','es') THEN 1 ELSE 0 END) AS s_es,
    SUM(CASE WHEN w IN ('le','la','de','et','les','des','en','un','une',
                        'du','est','pour','que','dans') THEN 1 ELSE 0 END) AS s_fr,
    SUM(CASE WHEN w IN ('der','die','das','und','in','den','von','zu',
                        'mit','sich','des','ist','nicht') THEN 1 ELSE 0 END) AS s_de
  FROM tok GROUP BY doc_id)
SELECT d.doc_id,
  CASE
    WHEN sc.doc_id IS NULL THEN 'und'
    WHEN s_en = 0 AND s_es = 0 AND s_fr = 0 AND s_de = 0 THEN 'und'
    WHEN s_en > 0 AND s_en >= s_es AND s_en >= s_fr AND s_en >= s_de THEN 'en'
    WHEN s_es >= s_fr AND s_es >= s_de THEN 'es'
    WHEN s_fr >= s_de THEN 'fr'
    ELSE 'de'
  END AS lang_pred
FROM documents d LEFT JOIN sc ON d.doc_id = sc.doc_id
"""

# Winnowing fingerprint (min of Rabin-Karp window hashes, B=257, w=8,
# M=2^61-1, first 4096 bytes) in its direct per-window form: hash(j) =
# Σ_t byte[j+t]·B^(7-t) mod M — no sequential recurrence, so it unnests.
# HUGEINT keeps the modular products exact (DOUBLE cannot). `unicode()`
# gives codepoints, equal to bytes for ASCII corpora like the testdata.
_FP_POW = [
    74051159531521793, 288136807515649, 1121154893057, 4362470401,
    16974593, 66049, 257, 1,
]  # 257^(7-t) mod 2^61-1, t = 0..7
_FP_M = (1 << 61) - 1
_FINGERPRINTS_SQL = f"""
WITH ch AS (
  SELECT doc_id,
    list_transform(range(1, least(length(text), 4096) + 1),
                   i -> unicode(text[i])::HUGEINT) AS cs,
    least(length(text), 4096) AS n,
    {_FP_POW}::HUGEINT[] AS p
  FROM documents),
hashes AS (
  SELECT doc_id,
    CASE WHEN n = 0 THEN 0
    WHEN n < 8 THEN
      (list_sum(list_transform(range(1, n + 1),
          i -> cs[i] * p[i + 8 - n])) % {_FP_M})::BIGINT
    ELSE
      list_min(list_transform(range(0, n - 7), s ->
        ((cs[s+1]*p[1] + cs[s+2]*p[2] + cs[s+3]*p[3] + cs[s+4]*p[4] +
          cs[s+5]*p[5] + cs[s+6]*p[6] + cs[s+7]*p[7] + cs[s+8]*p[8])
         % {_FP_M})::BIGINT))
    END AS fingerprint
  FROM ch)
SELECT doc_id, fingerprint FROM hashes
"""

# Full n-gram-Jaccard dedup in SQL: shingle blocking (stop-shingle
# buckets >50 dropped, matching max_bucket), exact Jaccard >= 0.8, then
# connected components as a recursive min-label iteration with the label
# vector as a LIST. Assumes dense doc_ids 0..N-1 (true of the testdata;
# the engine's num_ids = max+1 contract). Hashed vs string shingle sets
# give identical Jaccard barring 2^-62 collisions.
_NGRAM_DEDUP_SQL = """
WITH RECURSIVE
tok AS (SELECT doc_id, string_split(lower(text), ' ') AS w FROM documents),
ids AS (SELECT doc_id AS i FROM documents),
sh AS (
  SELECT DISTINCT doc_id, s FROM (
    SELECT doc_id, unnest(
      CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
      ELSE list_transform(range(1, len(w) - 1),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]) END) AS s
    FROM tok)
  WHERE s <> ''),
hot AS (SELECT s FROM sh GROUP BY s HAVING COUNT(*) BETWEEN 2 AND 50),
cand AS (
  SELECT DISTINCT a.doc_id AS src, b.doc_id AS dst
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  WHERE a.s IN (SELECT s FROM hot)),
nsh AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
isz AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, COUNT(*) AS i
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
ver AS (
  SELECT c.src, c.dst FROM cand c
  JOIN isz ON isz.src = c.src AND isz.dst = c.dst
  JOIN nsh na ON na.doc_id = c.src
  JOIN nsh nb ON nb.doc_id = c.dst
  WHERE isz.i::DOUBLE / (na.n + nb.n - isz.i) >= 0.8),
sym AS (SELECT src, dst FROM ver UNION SELECT dst AS src, src AS dst FROM ver),
cc(it, labels, changed) AS (
  SELECT 0, (SELECT list(t.i ORDER BY t.i) FROM ids t), 1
  UNION ALL
  SELECT it + 1, new_labels,
    len(list_filter(list_zip(new_labels, labels), p -> p[1] <> p[2]))
  FROM (
    SELECT it, labels,
      (SELECT list(LEAST(labels[n.i + 1], COALESCE(
          (SELECT MIN(labels[e.src + 1]) FROM sym e WHERE e.dst = n.i),
          labels[n.i + 1])) ORDER BY n.i)
       FROM ids n) AS new_labels
    FROM cc WHERE changed > 0 AND it < 1000
  )
)
SELECT n.i AS id, l.labels[n.i + 1] AS cluster_id
FROM (SELECT labels FROM cc ORDER BY it DESC LIMIT 1) l, ids n
ORDER BY id
"""

# All-pairs Jaccard + recursive-CTE CC over a small doc subset — the SQL
# twin of q_minhash_exact (same shingle semantics as _NGRAM_DEDUP_SQL but
# with NO blocking: every pair with any shared shingle is scored, matching
# the forced all-pairs candidate set). Hashed vs string shingle sets give
# identical Jaccard barring 2^-62 collisions.
_MINHASH_EXACT_SQL = """
WITH RECURSIVE
docs AS (SELECT doc_id, text FROM documents WHERE doc_id < 120),
tok AS (SELECT doc_id, string_split(lower(text), ' ') AS w FROM docs),
ids AS (SELECT doc_id AS i FROM docs),
sh AS (
  SELECT DISTINCT doc_id, s FROM (
    SELECT doc_id, unnest(
      CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
      ELSE list_transform(range(1, len(w) - 1),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]) END) AS s
    FROM tok)
  WHERE s <> ''),
nsh AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
isz AS (
  SELECT a.doc_id AS src, b.doc_id AS dst, COUNT(*) AS i
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
ver AS (
  SELECT isz.src, isz.dst FROM isz
  JOIN nsh na ON na.doc_id = isz.src
  JOIN nsh nb ON nb.doc_id = isz.dst
  WHERE isz.i::DOUBLE / (na.n + nb.n - isz.i) >= 0.8),
sym AS (SELECT src, dst FROM ver UNION SELECT dst AS src, src AS dst FROM ver),
cc(it, labels, changed) AS (
  SELECT 0, (SELECT list(t.i ORDER BY t.i) FROM ids t), 1
  UNION ALL
  SELECT it + 1, new_labels,
    len(list_filter(list_zip(new_labels, labels), p -> p[1] <> p[2]))
  FROM (
    SELECT it, labels,
      (SELECT list(LEAST(labels[n.i + 1], COALESCE(
          (SELECT MIN(labels[e.src + 1]) FROM sym e WHERE e.dst = n.i),
          labels[n.i + 1])) ORDER BY n.i)
       FROM ids n) AS new_labels
    FROM cc WHERE changed > 0 AND it < 1000
  )
)
SELECT n.i AS id, l.labels[n.i + 1] AS cluster_id
FROM (SELECT labels FROM cc ORDER BY it DESC LIMIT 1) l, ids n
ORDER BY id
"""

# All-pairs SimHash + hamming + recursive-CTE CC over a small doc subset —
# the SQL twin of q_simhash_exact. The simhash is recomputed from scratch
# in SQL: per-token Mersenne polynomial hash (same HUGEINT power-table
# trick as _FINGERPRINTS_SQL, 12-codepoint cap matching
# dedup.mersenne_token_hash), 61 bit positions expanded via a range cross
# join, count-weighted sign sum per bit, then bit_count(xor(...)) <= 3 as
# the verify predicate and the _MINHASH_EXACT_SQL CC skeleton.
_SIMHASH_POW = [
    851126774242789427, 1788769982909602668, 312013355238035786,
    584403925891549193, 74051159531521793, 288136807515649, 1121154893057,
    4362470401, 16974593, 66049, 257, 1,
]  # 257^(11-t) mod 2^61-1, t = 0..11
_SIMHASH_EXACT_SQL = f"""
WITH RECURSIVE
docs AS (SELECT doc_id, text FROM documents WHERE doc_id < 150),
ids AS (SELECT doc_id AS i FROM docs),
tokc AS (
  SELECT doc_id, t, COUNT(*) AS cnt FROM (
    SELECT doc_id, unnest(string_split(lower(text), ' ')) AS t FROM docs)
  WHERE t <> '' GROUP BY doc_id, t),
tokh AS (
  SELECT doc_id, cnt,
    (list_sum(list_transform(range(1, least(length(t), 12) + 1),
        i -> unicode(t[i])::HUGEINT
             * ({_SIMHASH_POW}::HUGEINT[])[i + 12 - least(length(t), 12)]))
     % {_FP_M})::BIGINT AS h
  FROM tokc),
acc AS (
  SELECT doc_id, j,
    SUM(CASE WHEN ((h >> j) & 1) = 1 THEN cnt ELSE -cnt END) AS a
  FROM tokh, range(0, 61) r(j) GROUP BY doc_id, j),
sh AS (
  SELECT n.i AS doc_id,
    COALESCE((SELECT SUM(CASE WHEN a > 0 THEN (1::BIGINT << j) ELSE 0 END)
              FROM acc WHERE acc.doc_id = n.i), 0)::BIGINT AS simhash
  FROM ids n),
ver AS (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE bit_count(xor(a.simhash, b.simhash)) <= 3),
sym AS (SELECT src, dst FROM ver UNION SELECT dst AS src, src AS dst FROM ver),
cc(it, labels, changed) AS (
  SELECT 0, (SELECT list(t.i ORDER BY t.i) FROM ids t), 1
  UNION ALL
  SELECT it + 1, new_labels,
    len(list_filter(list_zip(new_labels, labels), p -> p[1] <> p[2]))
  FROM (
    SELECT it, labels,
      (SELECT list(LEAST(labels[n.i + 1], COALESCE(
          (SELECT MIN(labels[e.src + 1]) FROM sym e WHERE e.dst = n.i),
          labels[n.i + 1])) ORDER BY n.i)
       FROM ids n) AS new_labels
    FROM cc WHERE changed > 0 AND it < 1000
  )
)
SELECT n.i AS id, l.labels[n.i + 1] AS cluster_id
FROM (SELECT labels FROM cc ORDER BY it DESC LIMIT 1) l, ids n
ORDER BY id
"""

# All-pairs cosine + recursive-CTE CC over a small vector subset — the SQL
# twin of q_embedding_exact (same CC skeleton as _MINHASH_EXACT_SQL; the
# verify predicate is DuckDB's list_cosine_similarity, which matches the
# Ray side's normalize-then-dot to ~1e-15 — threshold 0.38 sits in a
# measured ≥2e-3 gap of the synthetic cosine distribution).
_EMBEDDING_EXACT_SQL = """
WITH RECURSIVE
e AS (SELECT vec_id, list_transform(embedding, x -> x::DOUBLE) AS v
      FROM embeddings WHERE vec_id < 150),
ids AS (SELECT vec_id AS i FROM e),
ver AS (
  SELECT a.vec_id AS src, b.vec_id AS dst
  FROM e a JOIN e b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.v, b.v) >= 0.38),
sym AS (SELECT src, dst FROM ver UNION SELECT dst AS src, src AS dst FROM ver),
cc(it, labels, changed) AS (
  SELECT 0, (SELECT list(t.i ORDER BY t.i) FROM ids t), 1
  UNION ALL
  SELECT it + 1, new_labels,
    len(list_filter(list_zip(new_labels, labels), p -> p[1] <> p[2]))
  FROM (
    SELECT it, labels,
      (SELECT list(LEAST(labels[n.i + 1], COALESCE(
          (SELECT MIN(labels[e.src + 1]) FROM sym e WHERE e.dst = n.i),
          labels[n.i + 1])) ORDER BY n.i)
       FROM ids n) AS new_labels
    FROM cc WHERE changed > 0 AND it < 1000
  )
)
SELECT n.i AS id, l.labels[n.i + 1] AS cluster_id
FROM (SELECT labels FROM cc ORDER BY it DESC LIMIT 1) l, ids n
ORDER BY id
"""

# Leap2Trend T5/T6/T7: per-"year" cosine neighbor ranks + prev-year join +
# jump filter. Year-1 vectors = embeddings; year-2 reassigns phrase i the
# vector of (i+1) mod 40 — a cyclic drift that permutes pairwise geometry
# (an element-wise reversal would be orthogonal: cosines unchanged).
_RANK_JUMPS_SQL = """
WITH cnt AS (SELECT COUNT(*) AS n FROM embeddings WHERE vec_id < 40),
e AS (
  SELECT vec_id,
         list_transform(embedding, x -> x::DOUBLE) AS v
  FROM embeddings WHERE vec_id < 40),
y1 AS (SELECT 'p' || vec_id AS phrase, v FROM e),
y2 AS (SELECT 'p' || ((e.vec_id - 1 + cnt.n) % cnt.n) AS phrase, e.v
       FROM e CROSS JOIN cnt),
r1 AS (
  SELECT a.phrase AS phrase1, b.phrase AS phrase2,
         row_number() OVER (PARTITION BY a.phrase
             ORDER BY list_cosine_similarity(a.v, b.v) DESC,
                      b.phrase ASC) AS rank
  FROM y1 a JOIN y1 b ON a.phrase <> b.phrase),
r2 AS (
  SELECT a.phrase AS phrase1, b.phrase AS phrase2,
         row_number() OVER (PARTITION BY a.phrase
             ORDER BY list_cosine_similarity(a.v, b.v) DESC,
                      b.phrase ASC) AS rank
  FROM y2 a JOIN y2 b ON a.phrase <> b.phrase)
SELECT r2.phrase1, r2.phrase2, (r1.rank - r2.rank)::BIGINT AS jump
FROM r2 JOIN r1 ON r1.phrase1 = r2.phrase1 AND r1.phrase2 = r2.phrase2
WHERE r1.rank - r2.rank >= 1
"""

# A10 SimTFIDF end-to-end: cosine-normalized co-occurrence similarities
# (pairs with >=50 shared docs), SimTF = count + sum sim*count over
# neighbors, idf = ln(N/df), then top-3 per doc. On the documents table
# every candidate is a single token, so the reference's greedy
# non-overlapping selection degenerates to a plain (score desc, word asc)
# rank — Includes() can never fire between distinct single tokens.
_SIM_TFIDF_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(lower(text), ' ')) AS word FROM documents),
words AS (SELECT DISTINCT doc_id, word FROM toks),
cnt AS (SELECT doc_id, word, COUNT(*)::DOUBLE AS c FROM toks GROUP BY 1, 2),
pairs AS (
  SELECT a.word AS w1, b.word AS w2, count(*)::DOUBLE AS freq
  FROM words a JOIN words b ON a.doc_id = b.doc_id AND a.word < b.word
  GROUP BY 1, 2 HAVING count(*) >= 50),
tot AS (
  SELECT w, SUM(freq) AS t FROM (
    SELECT w1 AS w, freq FROM pairs UNION ALL SELECT w2 AS w, freq FROM pairs)
  GROUP BY w),
sims AS (
  SELECT w1 AS a, w2 AS b, freq / sqrt(t1.t * t2.t) AS s
  FROM pairs JOIN tot t1 ON pairs.w1 = t1.w JOIN tot t2 ON pairs.w2 = t2.w
  UNION ALL
  SELECT w2 AS a, w1 AS b, freq / sqrt(t1.t * t2.t) AS s
  FROM pairs JOIN tot t1 ON pairs.w1 = t1.w JOIN tot t2 ON pairs.w2 = t2.w),
n AS (SELECT COUNT(*)::DOUBLE AS n FROM documents),
df AS (SELECT word, COUNT(*)::DOUBLE AS df FROM words GROUP BY word),
simtf AS (
  SELECT c.doc_id, c.word,
    c.c + COALESCE((
      SELECT SUM(s.s * c2.c) FROM sims s
      JOIN cnt c2 ON c2.doc_id = c.doc_id AND c2.word = s.b
      WHERE s.a = c.word), 0.0) AS stf
  FROM cnt c),
scored AS (
  SELECT simtf.doc_id, simtf.word, simtf.stf * ln(n.n / df.df) AS score
  FROM simtf JOIN df ON simtf.word = df.word CROSS JOIN n),
ranked AS (
  SELECT doc_id, word,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, word ASC) AS r
  FROM scored)
SELECT doc_id, word FROM ranked WHERE r <= 3
"""

ORACLE_SQL.update(
    {
        "sim_tfidf_top3": _SIM_TFIDF_SQL,
        "pagerank": _PAGERANK_SQL,
        "label_propagation": _LPA_SQL,
        "modularity_cpm": _MODULARITY_CPM_SQL,
        "lang_id": _LANG_ID_SQL,
        "fingerprints": _FINGERPRINTS_SQL,
        "ngram_dedup": _NGRAM_DEDUP_SQL,
        "minhash_exact": _MINHASH_EXACT_SQL,
        "simhash_exact": _SIMHASH_EXACT_SQL,
        # seeded distributional contracts: the Ray side computes a real ARI
        # against planted labels and thresholds it; the oracle pins the
        # expected outcome (and ties n_docs to the input table, so the row
        # is not a pure constant). A topic-model regression flips the bit.
        "lda_topics_ari": (
            "SELECT COUNT(*)::BIGINT AS n_docs, 1::BIGINT AS ari_ge_090 "
            "FROM documents"
        ),
        "gsdmm_topics_ari": (
            "SELECT COUNT(*)::BIGINT AS n_docs, 1::BIGINT AS ari_ge_090 "
            "FROM documents"
        ),
        "embedding_exact": _EMBEDDING_EXACT_SQL,
        "rank_jumps": _RANK_JUMPS_SQL,
        "asof_prior_purchase": """
            WITH p AS (
              SELECT user_id, ts, max(event_id) AS purchase_id
              FROM events WHERE event_type = 'purchase' GROUP BY 1, 2)
            SELECT e.event_id, e.user_id, epoch_us(e.ts) AS ts_us,
                   p.purchase_id
            FROM events e
            ASOF JOIN p ON e.user_id = p.user_id AND e.ts >= p.ts""",
        "user_sessions": """
            WITH g AS (
              SELECT user_id, event_id, ts, value,
                CASE WHEN lag(ts) OVER w IS NULL
                       OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
              SELECT user_id, ts, value,
                SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS session_idx
              FROM g)
            SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
                   epoch_us(MIN(ts)) AS start_us, epoch_us(MAX(ts)) AS end_us,
                   COUNT(*) AS n_events, round(SUM(value), 6) AS total_value
            FROM s GROUP BY 1, 2""",
        "purchase_followup": """
            SELECT p.event_id AS purchase_id, COUNT(*) AS n_follow,
                   round(SUM(f.value), 6) AS follow_value
            FROM events p
            JOIN events f ON f.user_id = p.user_id
              AND f.ts > p.ts AND f.ts <= p.ts + INTERVAL 1 HOUR
            WHERE p.event_type = 'purchase'
            GROUP BY 1""",
        "corpusx_concurrence": """
            WITH tok AS (
              SELECT doc_id, string_split(lower(text), ' ') AS words
              FROM documents),
            pos AS (
              SELECT doc_id, unnest(words) AS w,
                     generate_subscripts(words, 1) AS p
              FROM tok),
            g AS (
              SELECT doc_id, (p - 1) // 5 AS grp, w, COUNT(*)::DOUBLE AS c
              FROM pos GROUP BY doc_id, grp, w)
            SELECT a.w AS w1, b.w AS w2, SUM(a.c * b.c) AS weight
            FROM g a JOIN g b
              ON a.doc_id = b.doc_id AND a.grp <> b.grp AND a.w <> b.w
            GROUP BY 1, 2""",
        "bigram_counts": """
            WITH tok AS (
              SELECT doc_id, string_split(lower(text), ' ') AS words
              FROM documents),
            pos AS (
              SELECT doc_id, unnest(words) AS w,
                     generate_subscripts(words, 1) AS p
              FROM tok)
            SELECT a.w AS w1, b.w AS w2, count(*) AS n
            FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
            GROUP BY 1, 2""",
        "word2phrase_accepted": """
            WITH tok AS (
              SELECT doc_id, string_split(lower(text), ' ') AS words
              FROM documents),
            pos AS (
              SELECT doc_id, unnest(words) AS w,
                     generate_subscripts(words, 1) AS p
              FROM tok),
            uni AS (SELECT w, count(*)::DOUBLE AS f FROM pos GROUP BY w),
            bi AS (
              SELECT a.w AS w1, b.w AS w2, count(*)::DOUBLE AS f
              FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
              GROUP BY 1, 2)
            SELECT bi.w1, bi.w2, bi.f::BIGINT AS n
            FROM bi JOIN uni u1 ON bi.w1 = u1.w JOIN uni u2 ON bi.w2 = u2.w
            WHERE bi.f >= 10 AND (bi.f - 10) / (u1.f * u2.f) >= 3e-5""",
        "hot_vertices": _with_graph_ctes(
            """, node_years AS (
                 SELECT id, 1995 + id % 7 AS year FROM nodes),
               hist AS (
                 SELECT e.dst AS id, y.year, count(*) AS n
                 FROM edges e JOIN node_years y ON e.src = y.id
                 GROUP BY 1, 2)
               SELECT h.id,
                      sum(CASE WHEN h.year >= p.year AND h.year <= p.year + 1
                               THEN h.n ELSE 0 END)::BIGINT AS early_citations
               FROM hist h JOIN node_years p ON h.id = p.id
               GROUP BY h.id
               HAVING early_citations >= 20"""
        ),
        "emerging_vertices": _with_graph_ctes(
            """, node_years AS (
                 SELECT id, 1995 + id % 7 AS year FROM nodes),
               hist AS (
                 SELECT e.dst AS id, y.year, count(*) AS n
                 FROM edges e JOIN node_years y ON e.src = y.id
                 GROUP BY 1, 2),
               agg AS (
                 SELECT id,
                        sum(CASE WHEN year <= 1997 THEN n ELSE 0 END)::BIGINT
                          AS cold_citations,
                        sum(CASE WHEN year > 1997 THEN n ELSE 0 END)::DOUBLE
                          AS hot_total,
                        sum(CASE WHEN year > 1997 THEN 1 ELSE 0 END)::DOUBLE
                          AS hot_years
                 FROM hist GROUP BY id)
               SELECT id, cold_citations,
                      round(CASE WHEN hot_years > 0
                                 THEN hot_total / hot_years ELSE 0 END, 6)
                        AS hot_mean
               FROM agg
               WHERE cold_citations < 24
                 AND (CASE WHEN hot_years > 0 THEN hot_total / hot_years
                           ELSE 0 END) >= 9"""
        ),
    }
)

# strategy/mode variants verified against the SAME oracle as their
# canonical counterparts: the huge-E triangle path and exact-mode IVF are
# hash-checked, not just rows-only
ORACLE_SQL["triangles_shuffle"] = ORACLE_SQL["triangles_per_vertex"]
ORACLE_SQL["ivf_knn_exact"] = ORACLE_SQL["knn_top5"]


# ---------------------------------------------------------------------------
# Sampling / quantile / sketch queries (stages/sketches.py — the build
# brief's pipeline-hygiene operators, first-class alongside dedup/ANN)
# ---------------------------------------------------------------------------


def q_hash_sample_orders(sf_dir: str):
    """Deterministic 5% hash sample of orders keyed on o_orderkey —
    map-only, partition-invariant; the SQL twin reproduces the exact
    Fibonacci-hash arithmetic in HUGEINT, so the driver verifies
    row-for-row equality."""
    from ..stages.sketches import hash_sample

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return hash_sample(ds, "o_orderkey", 0.05, seed=41)


def q_stratified_sample_orders(sf_dir: str):
    """Deterministic 20-per-stratum sample of orders stratified by
    o_orderpriority (hash-ordered, key tie-break) — one coarse-bucket
    pass, no per-stratum dispatch."""
    from ..stages.sketches import stratified_sample

    ds = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]
    )
    return stratified_sample(
        ds, "o_orderpriority", "o_orderkey", n=20, seed=7
    )


def q_quantiles_price(sf_dir: str):
    """EXACT distributed quantiles of l_extendedprice via multi-pass
    histogram refinement (quantile_disc semantics — bit-exact order
    statistics, not an approximation)."""
    from ..stages.sketches import exact_quantiles

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    res = exact_quantiles(ds, "l_extendedprice", qs)
    return pa.table(
        {
            "q": pa.array([q for q, _ in res], pa.float64()),
            "value": pa.array([v for _, v in res], pa.float64()),
        }
    )


def q_heavy_hitters_suppliers(sf_dir: str):
    """Exact top-10 suppliers by lineitem row count via Misra-Gries
    candidates + one exact recount pass (count desc, key asc)."""
    from ..stages.sketches import heavy_hitters

    ds = _read(sf_dir, "lineitem", ["l_suppkey"])
    return heavy_hitters(ds, "l_suppkey", k=10, capacity=8192)


def q_distinct_parts(sf_dir: str):
    """Exact COUNT(DISTINCT l_partkey) through the distributed
    fast_distinct combiner — the exact twin of the HLL sketch below."""
    ds = _read(sf_dir, "lineitem", ["l_partkey"])
    n = fast_distinct(ds, ["l_partkey"]).count()
    return pa.table({"n_parts": pa.array([n], pa.int64())})


def q_approx_distinct_parts(sf_dir: str):
    """HyperLogLog estimate of distinct l_partkey (p=12, ~1.6% standard
    error; mergeable 4 KiB registers per block). Approximate by design →
    no SQL oracle; accuracy and mergeability are pytest-gated
    (tests/test_sketches.py), and q_distinct_parts gates the exact
    distinct machinery with a full oracle."""
    from ..stages.sketches import approx_distinct

    ds = _read(sf_dir, "lineitem", ["l_partkey"])
    est = approx_distinct(ds, "l_partkey", p=12)
    return pa.table({"approx_parts": pa.array([est], pa.int64())})


QUERIES.update(
    {
        "hash_sample_orders": q_hash_sample_orders,
        "stratified_sample_orders": q_stratified_sample_orders,
        "quantiles_price": q_quantiles_price,
        "heavy_hitters_suppliers": q_heavy_hitters_suppliers,
        "distinct_parts": q_distinct_parts,
        "approx_distinct_parts": q_approx_distinct_parts,
    }
)

_FIB_SQL = "11400714819323198485"
_M64_SQL = "18446744073709551616"

ORACLE_SQL.update(
    {
        "hash_sample_orders": f"""
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            WHERE ((((o_orderkey + 41)::HUGEINT * {_FIB_SQL}) % {_M64_SQL})
                   // 4294967296) % 10000 < 500""",
        "stratified_sample_orders": f"""
            SELECT o_orderkey, o_orderpriority, o_totalprice FROM orders
            QUALIFY row_number() OVER (
              PARTITION BY o_orderpriority
              ORDER BY (((o_orderkey + 7)::HUGEINT * {_FIB_SQL})
                        % {_M64_SQL}) // 4294967296, o_orderkey
            ) <= 20""",
        "quantiles_price": " UNION ALL ".join(
            f"SELECT {q}::DOUBLE AS q, "
            f"quantile_disc(l_extendedprice, {q}) AS value FROM lineitem"
            for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        ),
        "heavy_hitters_suppliers": """
            SELECT l_suppkey, COUNT(*) AS cnt FROM lineitem
            GROUP BY l_suppkey ORDER BY cnt DESC, l_suppkey LIMIT 10""",
        "distinct_parts": """
            SELECT COUNT(DISTINCT l_partkey)::BIGINT AS n_parts
            FROM lineitem""",
    }
)


def q_customer_order_counts(sf_dir: str):
    """§2.7 LEFT OUTER join through Ray's distributed hash join:
    per-customer order count with zero-order customers retained
    (COALESCE 0). The aggregate side is pre-reduced by the C++ combiner
    before the shuffle join — the at-scale shape for a big-big left
    join (broadcast_merge(how='left') covers the dimension-table
    case)."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cnt = fast_grouped_agg(orders, ["o_custkey"], {}, count_as="n_orders")
    j = cust.join(
        cnt,
        join_type="left_outer",
        num_partitions=8,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )
    return j.map_batches(
        lambda t: pa.table(
            {
                "c_custkey": t["c_custkey"],
                "n_orders": pa.compute.fill_null(
                    t["n_orders"], 0
                ).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_customers_without_orders(sf_dir: str):
    """§2.7 ANTI-join via broadcast key-set negation (the scale shape
    for small-ish distinct key sets; the distinct side is reduced by
    fast_distinct before the single ray.put): customers with NO order
    above 400k total price."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).filter(
        expr="o_totalprice > 400000"
    )
    keys = collect_table(fast_distinct(orders.select_columns(["o_custkey"]), ["o_custkey"]))
    keys_ref = ray.put(keys["o_custkey"].combine_chunks())

    class Anti:
        def __init__(self) -> None:
            self.keys = ray.get(keys_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            has = pa.compute.is_in(t["c_custkey"], value_set=self.keys)
            return t.filter(pa.compute.invert(has))

    return cust.map_batches(Anti, batch_format="pyarrow", concurrency=(1, 4))


QUERIES.update(
    {
        "customer_order_counts": q_customer_order_counts,
        "customers_without_orders": q_customers_without_orders,
    }
)

ORACLE_SQL.update(
    {
        "customer_order_counts": """
            SELECT c_custkey, COALESCE(cnt, 0)::BIGINT AS n_orders
            FROM customer LEFT JOIN
              (SELECT o_custkey, COUNT(*) AS cnt FROM orders GROUP BY 1) o
              ON c_custkey = o.o_custkey""",
        "customers_without_orders": """
            SELECT c_custkey, c_acctbal FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_totalprice > 400000)""",
    }
)


def q_rolling_user_value(sf_dir: str):
    """Per-user 1-hour sliding-window aggregates over event values
    (stages/temporal.py:rolling_window — ANSI RANGE-frame semantics);
    ties pre-aggregated to unique (user_id, ts) per the operator
    contract."""
    from ..stages.temporal import rolling_window

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    uniq = fast_grouped_agg(ev, ["user_id", "ts"], {"v": ("value", "sum")})
    r = rolling_window(
        uniq, "user_id", "ts", "v", pd.Timedelta(hours=1)
    )
    return r.map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.int64()),
                "roll_sum": pa.array(
                    _round6(t["v_roll_sum"].to_numpy(zero_copy_only=False))
                ),
                "roll_n": pa.compute.round(t["v_roll_count"]).cast(
                    pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


QUERIES["rolling_user_value"] = q_rolling_user_value

ORACLE_SQL["rolling_user_value"] = """
    WITH uniq AS (
      SELECT user_id, ts, SUM(value) AS v FROM events GROUP BY 1, 2)
    SELECT user_id, epoch_us(ts) AS ts_us,
           round(SUM(v) OVER w, 6) AS roll_sum,
           COUNT(v) OVER w AS roll_n
    FROM uniq
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)"""


def q_bfs_hops(sf_dir: str):
    """Hop distance from the minimum present vertex over the symmetrized
    graph (graph/engine.py:bfs_hops — frontier min-plus supersteps);
    reachable vertices only, matching the recursive-CTE oracle."""
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    ids = _present_vertex_ids(edges)
    # depth capped to match the oracle's recursion bound EXACTLY: both
    # sides settle hops ≤ BFS_ORACLE_DEPTH and omit farther vertices
    # (the sf graphs have diameter ~2; the cap exists for safety)
    res = bfs_hops(und, GRAPH_MOD, sources=[int(ids[0])],
                   max_iters=BFS_ORACLE_DEPTH)
    hops = res.state[ids]
    reached = hops != UNREACHED
    return pa.table(
        {"id": pa.array(ids[reached]), "hops": pa.array(hops[reached])}
    )


def q_clustering_coefficient(sf_dir: str):
    """Per-vertex local clustering coefficient: 2·tri / (d·(d−1)) over the
    undirected simple graph — composes the triangle kernel with the
    symmetrized degree aggregate; d<2 vertices get 0.0 by convention."""
    tri = q_triangles_per_vertex(sf_dir)
    edges = derive_edges(sf_dir)
    deg_ds = fast_grouped_agg(symmetrize_edges(edges), ["src"], count_as="d")
    deg_tbl = collect_table(deg_ds)
    d = np.zeros(GRAPH_MOD, dtype=np.int64)
    d[deg_tbl["src"].to_numpy(zero_copy_only=False)] = deg_tbl[
        "d"
    ].to_numpy(zero_copy_only=False)
    ids = tri["id"].to_numpy(zero_copy_only=False)
    t = tri["tri_count"].to_numpy(zero_copy_only=False).astype(np.float64)
    dv = d[ids].astype(np.float64)
    denom = dv * (dv - 1.0)
    lcc = np.where(denom > 0, 2.0 * t / np.where(denom > 0, denom, 1.0), 0.0)
    return pa.table(
        {
            "id": tri["id"],
            "tri_count": tri["tri_count"],
            "lcc": pa.array(_round6(lcc)),
        }
    )


QUERIES["bfs_hops"] = q_bfs_hops
QUERIES["clustering_coefficient"] = q_clustering_coefficient

BFS_ORACLE_DEPTH = 64

ORACLE_SQL["bfs_hops"] = f"""
    WITH RECURSIVE edges AS ({_EDGES_SQL}),
    edges_sym AS ({_EDGES_SYM_SQL}),
    nodes AS ({_NODES_SQL}),
    bfs(id, hops) AS (
      SELECT (SELECT min(id) FROM nodes) AS id, 0::BIGINT AS hops
      UNION
      SELECT e.dst, bfs.hops + 1 FROM edges_sym e JOIN bfs ON e.src = bfs.id
      WHERE bfs.hops < {BFS_ORACLE_DEPTH})
    SELECT id, min(hops) AS hops FROM bfs GROUP BY id"""

ORACLE_SQL["clustering_coefficient"] = _with_graph_ctes(
    """, deg AS (
         SELECT id, count(*) AS d FROM (
           SELECT src AS id FROM edges_sym) GROUP BY id),
       uv AS (
         SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
         FROM edges_sym GROUP BY 1, 2),
       ork AS (SELECT id, d * 1001 + id AS r FROM deg),
       oriented AS (
         SELECT CASE WHEN ru.r < rv.r THEN u ELSE v END AS a,
                CASE WHEN ru.r < rv.r THEN v ELSE u END AS b
         FROM uv JOIN ork ru ON uv.u = ru.id JOIN ork rv ON uv.v = rv.id),
       tris AS (
         SELECT e1.a AS x, e1.b AS y, e2.b AS z
         FROM oriented e1
         JOIN oriented e2 ON e1.b = e2.a
         JOIN oriented e3 ON e3.a = e1.a AND e3.b = e2.b),
       pervert AS (
         SELECT x AS id FROM tris UNION ALL SELECT y FROM tris
         UNION ALL SELECT z FROM tris),
       tcnt AS (SELECT id, count(*) AS c FROM pervert GROUP BY id)
       SELECT n.id, coalesce(t.c, 0) AS tri_count,
              CASE WHEN coalesce(g.d, 0) >= 2
                   THEN round(2.0 * coalesce(t.c, 0)
                              / (g.d * (g.d - 1)), 6)
                   ELSE 0.0 END AS lcc
       FROM nodes n
       LEFT JOIN tcnt t ON n.id = t.id
       LEFT JOIN deg g ON n.id = g.id"""
)


KCORE_K = 92  # peels 9 rounds to a 979-vertex core at sf0.01 (measured)
_KCORE_UNROLL = 24  # ≥ the measured fixpoint depth with wide margin


def q_k_core(sf_dir: str):
    """Vertices of the k-core (k=KCORE_K) of the symmetrized graph
    (graph/engine.py:k_core — O(E)-total decrement peeling)."""
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    res = k_core(und, GRAPH_MOD, k=KCORE_K)
    ids = np.nonzero(res.state)[0].astype(np.int64)
    return pa.table({"id": pa.array(ids)})


def _kcore_sql(k: int, rounds: int) -> str:
    """Unrolled peel: round i keeps vertices with ≥k alive-subgraph degree.
    Valid as long as the fixpoint is reached within ``rounds`` (measured 9
    at the sf0.01 gate scale; extra rounds are no-ops once converged)."""
    parts = [
        # MATERIALIZED: DuckDB 1.0 inlines plain CTEs, so 24 unrolled
        # rounds would otherwise re-open the parquet per reference
        # ("Too many open files") and re-run the distinct per round
        f"WITH RECURSIVE edges AS MATERIALIZED ({_EDGES_SQL}),",
        f"edges_sym AS MATERIALIZED ({_EDGES_SYM_SQL}),",
        f"nodes AS ({_NODES_SQL}),",
        "alive0 AS (SELECT id FROM nodes)",
    ]
    for i in range(1, rounds + 1):
        # each round references the previous one TWICE — without
        # MATERIALIZED the inlined plan doubles per level (2^rounds)
        parts.append(
            f""", alive{i} AS MATERIALIZED (
              SELECT e.src AS id FROM edges_sym e
              JOIN alive{i - 1} a ON e.src = a.id
              JOIN alive{i - 1} b ON e.dst = b.id
              GROUP BY e.src HAVING count(*) >= {k})"""
        )
    parts.append(f"SELECT id FROM alive{rounds}")
    return "\n".join(parts)


QUERIES["k_core"] = q_k_core
ORACLE_SQL["k_core"] = _kcore_sql(KCORE_K, _KCORE_UNROLL)


def q_scrubbed_docs(sf_dir: str):
    """PII-style scrub over documents (stages/text.py:scrub_text_batch —
    RE2 mask chain shared verbatim with the SQL oracle)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(scrub_text_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda t: t.select(["doc_id", "scrubbed", "n_chars_scrubbed"]),
        batch_format="pyarrow",
    )


QUERIES["scrubbed_docs"] = q_scrubbed_docs

from ..stages.text import (  # noqa: E402  (pattern twins for the oracle)
    SCRUB_EMAIL_RE,
    SCRUB_ENTITY_RE,
    SCRUB_URL_RE,
    SCRUB_WS_RE,
    scrub_text_batch,
)

ORACLE_SQL["scrubbed_docs"] = f"""
    SELECT doc_id,
           trim(regexp_replace(
             regexp_replace(
               regexp_replace(
                 regexp_replace(text, '{SCRUB_URL_RE}', '<URL>', 'g'),
                 '{SCRUB_EMAIL_RE}', '<EMAIL>', 'g'),
               '{SCRUB_ENTITY_RE}', '<ENTITY>', 'g'),
             '{SCRUB_WS_RE}', ' ', 'g'), ' ') AS scrubbed,
           length(trim(regexp_replace(
             regexp_replace(
               regexp_replace(
                 regexp_replace(text, '{SCRUB_URL_RE}', '<URL>', 'g'),
                 '{SCRUB_EMAIL_RE}', '<EMAIL>', 'g'),
               '{SCRUB_ENTITY_RE}', '<ENTITY>', 'g'),
             '{SCRUB_WS_RE}', ' ', 'g'), ' ')) AS n_chars_scrubbed
    FROM documents"""


def q_degree_assortativity(sf_dir: str):
    """Newman degree assortativity: Pearson corr of (deg(src), deg(dst))
    over the symmetrized edge list. Distributed shape: degree aggregate →
    broadcast dense degree vector (V-sized; join-attach above broadcast
    scale like pipelines with GRAPH_MOD≫1e9) → per-batch moment partials
    (n, Σx, Σy, Σx², Σy², Σxy) → one tiny reduce; corr from the moments."""
    edges = derive_edges(sf_dir).materialize()
    sym = symmetrize_edges(edges).materialize()
    deg_ds = fast_grouped_agg(sym, ["src"], count_as="d")
    deg = np.zeros(GRAPH_MOD, dtype=np.float64)
    dt = collect_table(deg_ds)
    deg[dt["src"].to_numpy(zero_copy_only=False)] = dt["d"].to_numpy(
        zero_copy_only=False
    )
    deg_ref = ray.put(deg)

    def moments(t: pa.Table) -> pa.Table:
        dv = ray.get(deg_ref)
        x = dv[t["src"].to_numpy(zero_copy_only=False)]
        y = dv[t["dst"].to_numpy(zero_copy_only=False)]
        return pa.table(
            {
                "n": pa.array([float(len(x))]),
                "sx": pa.array([float(x.sum())]),
                "sy": pa.array([float(y.sum())]),
                "sxx": pa.array([float((x * x).sum())]),
                "syy": pa.array([float((y * y).sum())]),
                "sxy": pa.array([float((x * y).sum())]),
            }
        )

    m = collect_table(sym.map_batches(moments, batch_format="pyarrow"))
    n = float(pa.compute.sum(m["n"]).as_py())
    sx = float(pa.compute.sum(m["sx"]).as_py())
    sy = float(pa.compute.sum(m["sy"]).as_py())
    sxx = float(pa.compute.sum(m["sxx"]).as_py())
    syy = float(pa.compute.sum(m["syy"]).as_py())
    sxy = float(pa.compute.sum(m["sxy"]).as_py())
    cov = sxy / n - (sx / n) * (sy / n)
    vx = sxx / n - (sx / n) ** 2
    vy = syy / n - (sy / n) ** 2
    r = cov / math.sqrt(vx * vy) if vx > 0 and vy > 0 else float("nan")
    return pa.table(
        {"assortativity": pa.array(_round6(np.array([r])))}
    )


QUERIES["degree_assortativity"] = q_degree_assortativity

ORACLE_SQL["degree_assortativity"] = _with_graph_ctes(
    """, deg AS (SELECT src AS id, count(*) AS d FROM edges_sym GROUP BY src)
       SELECT round(corr(ds.d, dd.d), 6) AS assortativity
       FROM edges_sym e
       JOIN deg ds ON e.src = ds.id JOIN deg dd ON e.dst = dd.id"""
)


_EDGES_W_SQL = f"""
  SELECT l_orderkey % {GRAPH_MOD} AS src, l_partkey % {GRAPH_MOD} AS dst
  FROM lineitem WHERE l_orderkey % {GRAPH_MOD} <> l_partkey % {GRAPH_MOD}
"""


def q_weighted_pagerank(sf_dir: str):
    """PageRank with integer edge weights (lineitem multiplicity per
    (order, part) pair). Weighted PR over integer weights is EXACTLY the
    unweighted kernel over the multigraph edge table (each (u,v) row
    repeated w times: out-strength = Σw via the same bincount, and the
    w copies of rank(u)/strength(u) sum to the weighted contribution) —
    so the kernel, both its executors, and its checkpointing are
    reused unchanged; only the derivation skips the dedup."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_edges(t: pa.Table) -> pa.Table:
        src = t["l_orderkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        dst = t["l_partkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep].astype(np.int64)),
                "dst": pa.array(dst[keep].astype(np.int64)),
            }
        )

    edges = li.map_batches(to_edges, batch_format="pyarrow").materialize()
    res = pagerank(edges, GRAPH_MOD, tol=1e-10)
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table(
        {"id": pa.array(ids), "rank": pa.array(_round6(res.state))}
    )


QUERIES["weighted_pagerank"] = q_weighted_pagerank
# the weighted oracle IS the unweighted recursive CTE over the
# multigraph: COUNT(*) per src becomes the out-strength and the per-row
# contribution sum becomes the weighted sum — swap the edge CTE only
ORACLE_SQL["weighted_pagerank"] = _PAGERANK_SQL.replace(
    _EDGES_SQL, _EDGES_W_SQL
)


def q_pack_sequences(sf_dir: str):
    """GPT-style concat-then-chunk packing over documents: ws_tokens in
    doc_id order → exclusive prefix sum → chunk id (stages/packing.py;
    distributed scan via utils.ordered_prefix_sum)."""
    from ..stages.packing import pack_sequences

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def ws_count(t: pa.Table) -> pa.Table:
        # count_substring(' ')+1 == len(string_split(text, ' ')) for every
        # input (empties included) — the exact SQL-twin arithmetic, one
        # Arrow kernel instead of the BPE-regex token stage (which packing
        # does not need)
        n = pa.compute.add(
            pa.compute.count_substring(t["text"], " "), 1
        ).cast(pa.int64())
        return pa.table({"doc_id": t["doc_id"], "ws_tokens": n})

    toks = docs.map_batches(ws_count, batch_format="pyarrow")
    packed = pack_sequences(toks, "ws_tokens", max_len=2048)
    return packed.map_batches(
        lambda t: t.select(["doc_id", "start_offset", "seq_id"]),
        batch_format="pyarrow",
    )


QUERIES["pack_sequences"] = q_pack_sequences

ORACLE_SQL["pack_sequences"] = """
    WITH toks AS (
      SELECT doc_id, len(string_split(text, ' '))::BIGINT AS n
      FROM documents)
    SELECT doc_id,
           (SUM(n) OVER (ORDER BY doc_id) - n)::BIGINT AS start_offset,
           ((SUM(n) OVER (ORDER BY doc_id) - n) // 2048)::BIGINT AS seq_id
    FROM toks"""


MIX_RATES = {"src0": 1.0, "src1": 0.5, "src2": 0.2}
MIX_DEFAULT = 0.05


def q_mixed_sources(sf_dir: str):
    """Domain-mixing sampler over documents: per-source keep rates on
    the deterministic Fibonacci doc_id hash
    (stages/sketches.py:rate_sample_by_stratum)."""
    from ..stages.sketches import rate_sample_by_stratum

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    return rate_sample_by_stratum(
        docs, "source", "doc_id", MIX_RATES, default_rate=MIX_DEFAULT
    )


def q_decontaminated_docs(sf_dir: str):
    """Benchmark decontamination: a deterministic 5% hash-sample of
    documents stands in as the held-out benchmark; docs sharing its
    winnowing fingerprints are dropped (stages/decontam.py — broadcast
    benchmark set, map-only corpus pass)."""
    from ..stages.decontam import decontaminate
    from ..stages.sketches import hash_sample

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = hash_sample(docs, "doc_id", 0.05, seed=99)
    clean = decontaminate(docs, bench, col="text")
    return clean.select_columns(["doc_id"])


QUERIES["mixed_sources"] = q_mixed_sources
QUERIES["decontaminated_docs"] = q_decontaminated_docs

_MIX_BUCKET = (
    f"((((doc_id + 41)::HUGEINT * {_FIB_SQL}) % {_M64_SQL})"
    " // 4294967296) % 10000"
)
ORACLE_SQL["mixed_sources"] = f"""
    SELECT doc_id, source FROM documents
    WHERE {_MIX_BUCKET} < CASE source
      WHEN 'src0' THEN 10000
      WHEN 'src1' THEN 5000
      WHEN 'src2' THEN 2000
      ELSE 500 END"""

ORACLE_SQL["decontaminated_docs"] = f"""
    WITH fps AS ({_FINGERPRINTS_SQL}),
    bench AS (
      SELECT fingerprint FROM fps
      WHERE ((((doc_id + 99)::HUGEINT * {_FIB_SQL}) % {_M64_SQL})
             // 4294967296) % 10000 < 500)
    SELECT doc_id FROM fps
    WHERE fingerprint NOT IN (SELECT fingerprint FROM bench)"""


def _events_with_day(sf_dir: str):
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def add_day(t: pa.Table) -> pa.Table:
        day = pa.compute.floor_temporal(t["ts"], unit="day")
        return pa.table(
            {"day_us": day.cast(pa.timestamp("us")).cast(pa.int64()),
             "user_id": t["user_id"]}
        )

    return ev.map_batches(add_day, batch_format="pyarrow")


def q_distinct_users_by_day(sf_dir: str):
    """EXACT per-day distinct users: distributed distinct on (day, user)
    then a grouped count — the oracle-checked twin of the HLL variant.

    SQL count(DISTINCT user_id) parity on hypothetical nulls: null
    users are excluded from the count but their day still appears (as
    0), so days come from ALL rows and counts from non-null users. The
    day-domain table is tiny by nature (calendar-bounded) — the only
    driver-side piece."""
    ev = _events_with_day(sf_dir)
    days = collect_table(fast_distinct(ev, ["day_us"]))
    nonnull = ev.map_batches(
        lambda t: t.filter(pa.compute.is_valid(t["user_id"])),
        batch_format="pyarrow",
    )
    dedup = fast_distinct(nonnull, ["day_us", "user_id"])
    counts = collect_table(
        fast_grouped_agg(dedup, ["day_us"], count_as="n_users")
    )
    have = set(counts["day_us"].to_pylist())
    missing = [d for d in days["day_us"].to_pylist() if d not in have]
    if missing:
        counts = pa.concat_tables(
            [
                counts,
                pa.table(
                    {
                        "day_us": pa.array(missing, counts.schema[0].type),
                        "n_users": pa.array(
                            [0] * len(missing), pa.int64()
                        ),
                    }
                ),
            ]
        )
    return counts


def q_approx_distinct_users_by_day(sf_dir: str):
    """Per-day approximate distinct users via mergeable sparse per-group
    HLL (stages/sketches.py:approx_distinct_by) — approximate by design,
    so rows-only in the gate; the pytest plants cardinalities and bounds
    the error, and the exact twin above hash-checks the same grouping."""
    from ..stages.sketches import approx_distinct_by

    return approx_distinct_by(_events_with_day(sf_dir), "day_us", "user_id")


QUERIES["distinct_users_by_day"] = q_distinct_users_by_day
QUERIES["approx_distinct_users_by_day"] = q_approx_distinct_users_by_day

ORACLE_SQL["distinct_users_by_day"] = """
    SELECT epoch_us(date_trunc('day', ts)) AS day_us,
           count(DISTINCT user_id) AS n_users
    FROM events GROUP BY 1"""


# V at/below which the 2-hop count runs the dense boolean-matmul regime:
# V² bools on the driver (64 MB at 8k) + one V³ GEMM. Above it, the join
# path — on a DENSE graph the join materializes Σdeg(m)² rows (measured
# 79 s at sf0.1's near-saturated 1000-vertex graph vs 0.2 s dense), so
# the dense regime is the right call whenever V² fits, exactly like the
# triangle kernel's diag(A³)/2 micro-regime.
DENSE_TWO_HOP_MAX_V = 8192


def q_two_hop_counts(sf_dir: str, mode: str = "auto"):
    """Per-vertex count of DISTINCT 2-hop endpoints (z ≠ src) over the
    symmetrized graph — the friends-of-friends aggregate. Two regimes
    (equivalence-tested): dense driver-local boolean A² row-sums for
    V ≤ DENSE_TWO_HOP_MAX_V, else one bucketed self-join
    (utils.bucketed_inner_join) + distributed distinct + grouped count
    with nothing driver-side until the V-sized result."""
    from ..utils import bucketed_inner_join

    sym = symmetrize_edges(derive_edges(sf_dir)).materialize()
    if mode == "dense" or (mode == "auto" and GRAPH_MOD <= DENSE_TWO_HOP_MAX_V):
        A = np.zeros((GRAPH_MOD, GRAPH_MOD), dtype=np.float32)
        for b in sym.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            A[
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False),
            ] = 1.0
        B = (A @ A) > 0.0
        np.fill_diagonal(B, False)  # z ≠ src
        n = B.sum(axis=1).astype(np.int64)
        ids = np.nonzero(n)[0].astype(np.int64)  # SQL inner join: no 0 rows
        return pa.table(
            {"id": pa.array(ids), "n_two_hop": pa.array(n[ids])}
        )
    left = sym.map_batches(
        lambda t: pa.table({"id": t["src"], "mid": t["dst"]}),
        batch_format="pyarrow",
    )
    right = sym.map_batches(
        lambda t: pa.table({"mid": t["src"], "z": t["dst"]}),
        batch_format="pyarrow",
    )
    joined = bucketed_inner_join(left, right, on=["mid"])
    pairs = joined.map_batches(
        lambda t: pa.table({"id": t["id"], "z": t["z"]}).filter(
            pa.compute.not_equal(t["id"], t["z"])
        ),
        batch_format="pyarrow",
    )
    return fast_grouped_agg(
        fast_distinct(pairs, ["id", "z"]), ["id"], count_as="n_two_hop"
    )


QUERIES["two_hop_counts"] = q_two_hop_counts

ORACLE_SQL["two_hop_counts"] = _with_graph_ctes(
    """SELECT e1.src AS id, count(DISTINCT e2.dst) AS n_two_hop
       FROM edges_sym e1 JOIN edges_sym e2 ON e1.dst = e2.src
       WHERE e2.dst <> e1.src
       GROUP BY e1.src"""
)


def q_exact_dedup_best(sf_dir: str):
    """Exact dedup with the keep-BEST policy: per content hash, the
    representative is the longest document (n_chars), ties → min doc_id
    (stages/dedup.py:exact_dedup(keep='best'))."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return exact_dedup(docs, keep="best", quality_col="n_chars")


QUERIES["exact_dedup_best"] = q_exact_dedup_best

ORACLE_SQL["exact_dedup_best"] = """
    WITH h AS (
      SELECT doc_id, sha256(text) AS content_hash, n_chars FROM documents),
    best AS (
      SELECT content_hash, max(n_chars) AS bq FROM h GROUP BY 1),
    rep AS (
      SELECT h.content_hash, min(h.doc_id) AS rep_id
      FROM h JOIN best b ON h.content_hash = b.content_hash
      WHERE h.n_chars = b.bq GROUP BY 1)
    SELECT h.doc_id, h.content_hash,
           (h.n_chars = b.bq AND h.doc_id = r.rep_id) AS is_representative
    FROM h
    JOIN best b ON h.content_hash = b.content_hash
    JOIN rep r ON h.content_hash = r.content_hash"""


SSSP_BIG = 10**15  # oracle's unreached sentinel (list CTE can't carry int64 max safely through + w)


def q_sssp(sf_dir: str):
    """Weighted single-source shortest paths over the DIRECTED multigraph
    (weight = lineitem multiplicity per (order, part) pair), source = min
    present vertex; reachable vertices only (graph/engine.py:sssp —
    frontier Bellman-Ford supersteps)."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_edges(t: pa.Table) -> pa.Table:
        src = t["l_orderkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        dst = t["l_partkey"].to_numpy(zero_copy_only=False) % GRAPH_MOD
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep].astype(np.int64)),
                "dst": pa.array(dst[keep].astype(np.int64)),
            }
        )

    we = fast_grouped_agg(
        li.map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"],
        count_as="w",
    ).materialize()
    ids = _present_vertex_ids(we)
    res = sssp(we, GRAPH_MOD, sources=[int(ids[0])])
    d = res.state[ids]
    reached = d != UNREACHED
    return pa.table(
        {"id": pa.array(ids[reached]), "dist": pa.array(d[reached])}
    )


QUERIES["sssp"] = q_sssp

ORACLE_SQL["sssp"] = f"""
WITH RECURSIVE
edges_raw AS ({_EDGES_W_SQL}),
we AS (SELECT src, dst, count(*)::BIGINT AS w FROM edges_raw GROUP BY 1, 2),
src0 AS (SELECT min(id) AS s FROM (
  SELECT src AS id FROM we UNION ALL SELECT dst FROM we)),
ss(it, dist, changed) AS (
  SELECT 0,
    (SELECT list(CASE WHEN t.i = (SELECT s FROM src0) THEN 0::BIGINT
                 ELSE {SSSP_BIG}::BIGINT END ORDER BY t.i)
     FROM range({GRAPH_MOD}) t(i)), 1
  UNION ALL
  SELECT it + 1, new_dist,
    len(list_filter(list_zip(new_dist, dist), p -> p[1] <> p[2]))
  FROM (
    SELECT it, dist,
      (SELECT list(LEAST(dist[n.i + 1], COALESCE(
          (SELECT MIN(dist[e.src + 1] + e.w) FROM we e
           WHERE e.dst = n.i AND dist[e.src + 1] < {SSSP_BIG}),
          {SSSP_BIG}::BIGINT)) ORDER BY n.i)
       FROM range({GRAPH_MOD}) AS n(i)) AS new_dist
    FROM ss WHERE it < 500 AND changed > 0
  )
)
SELECT n.i AS id, d.dist[n.i + 1] AS dist
FROM (SELECT dist FROM ss ORDER BY it DESC LIMIT 1) d,
     range({GRAPH_MOD}) AS n(i)
WHERE d.dist[n.i + 1] < {SSSP_BIG}"""


def q_hits(sf_dir: str, reduce: str = "auto"):
    """HITS hubs/authorities — 20 fixed power-iteration rounds, each
    half-step L2-normalized (graph/engine.py:hits; numpy spec
    graph/oracle.py:hits_oracle). Fixed rounds on both sides so the
    recursive-CTE twin is value-hash comparable after round6."""
    from ..graph.engine import hits as hits_kernel

    edges = derive_edges(sf_dir).materialize()
    res = hits_kernel(edges, GRAPH_MOD, max_iters=20, reduce=reduce)
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table(
        {
            "id": pa.array(ids),
            "hub": pa.array(_round6(res.hub)),
            "auth": pa.array(_round6(res.auth)),
        }
    )


QUERIES["hits"] = q_hits

ORACLE_SQL["hits"] = f"""
WITH RECURSIVE
edges AS ({_EDGES_SQL}),
st(it, hub, auth) AS (
  SELECT 0,
    (SELECT list(1.0::DOUBLE) FROM range({GRAPH_MOD})),
    (SELECT list(0.0::DOUBLE) FROM range({GRAPH_MOD}))
  UNION ALL
  SELECT it + 1,
    list_transform(hub_raw,
      x -> CASE WHEN hub_norm > 0 THEN x / hub_norm ELSE x END),
    auth_n
  FROM (
    SELECT it, auth_n, hub_raw,
      sqrt(list_sum(list_transform(hub_raw, x -> x * x))) AS hub_norm
    FROM (
      SELECT it, auth_n,
        (SELECT list(
            COALESCE((SELECT SUM(auth_n[e.dst + 1]) FROM edges e
                      WHERE e.src = n.i), 0.0::DOUBLE) ORDER BY n.i)
         FROM range({GRAPH_MOD}) AS n(i)) AS hub_raw
      FROM (
        SELECT it, hub,
          list_transform(auth_raw,
            x -> CASE WHEN auth_norm > 0 THEN x / auth_norm ELSE x END)
            AS auth_n
        FROM (
          SELECT it, hub, auth_raw,
            sqrt(list_sum(list_transform(auth_raw, x -> x * x))) AS auth_norm
          FROM (
            SELECT it, hub,
              (SELECT list(
                  COALESCE((SELECT SUM(hub[e.src + 1]) FROM edges e
                            WHERE e.dst = n.i), 0.0::DOUBLE) ORDER BY n.i)
               FROM range({GRAPH_MOD}) AS n(i)) AS auth_raw
            FROM st WHERE it < 20
          )
        )
      )
    )
  )
)
SELECT n.i AS id,
  FLOOR(f.hub[n.i + 1] * 1e6 + 0.5) / 1e6 AS hub,
  FLOOR(f.auth[n.i + 1] * 1e6 + 0.5) / 1e6 AS auth
FROM (SELECT hub, auth FROM st ORDER BY it DESC LIMIT 1) f,
     range({GRAPH_MOD}) AS n(i)
ORDER BY id"""


def q_adamic_adar(sf_dir: str):
    """Top-100 NON-adjacent pairs by Adamic-Adar score over the
    symmetrized graph (graph/linkpred.py:adamic_adar_topk): bucketed
    self-join on the common neighbor + broadcast 1/ln(deg) weights +
    reduce-side anti-join vs the adjacency + partial top-k merge.
    Rounded score ranks on both sides so float summation order can't
    flip the k boundary."""
    from ..graph.linkpred import adamic_adar_topk

    sym = symmetrize_edges(derive_edges(sf_dir)).materialize()
    return adamic_adar_topk(sym, GRAPH_MOD, k=100)


QUERIES["adamic_adar"] = q_adamic_adar

ORACLE_SQL["adamic_adar"] = _with_graph_ctes(
    """SELECT u, v, n_common, score FROM (
         SELECT p.u, p.v, p.n_common,
                FLOOR(p.s * 1e6 + 0.5) / 1e6 AS score
         FROM (
           SELECT e1.dst AS u, e2.dst AS v,
                  SUM(1.0 / ln(dg.d)) AS s, COUNT(*)::BIGINT AS n_common
           FROM edges_sym e1
           JOIN edges_sym e2 ON e1.src = e2.src AND e1.dst < e2.dst
           JOIN (SELECT src AS id, COUNT(*)::DOUBLE AS d
                 FROM edges_sym GROUP BY 1) dg ON dg.id = e1.src
           GROUP BY 1, 2
         ) p
         ANTI JOIN edges_sym es ON es.src = p.u AND es.dst = p.v
       )
       ORDER BY score DESC, u, v LIMIT 100"""
)


def q_personalized_pagerank(sf_dir: str):
    """Personalized PageRank restarting at seeds {0, 17, 42} — teleport
    AND dangling mass land on the seed set (graph/engine.py:pagerank
    reset_ids; numpy spec graph/oracle.py:pagerank_oracle)."""
    edges = derive_edges(sf_dir).materialize()
    res = pagerank(
        edges, GRAPH_MOD, tol=1e-10, reset_ids=np.array([0, 17, 42])
    )
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table(
        {"id": pa.array(ids), "rank": pa.array(_round6(res.state))}
    )


QUERIES["personalized_pagerank"] = q_personalized_pagerank

_PPR_SEEDS = "(0, 17, 42)"
_PPR_NS = 3
ORACLE_SQL["personalized_pagerank"] = f"""
WITH RECURSIVE
edges AS ({_EDGES_SQL}),
deg AS (SELECT src, COUNT(*)::DOUBLE AS outd FROM edges GROUP BY src),
pr(it, ranks, resid) AS (
  SELECT 0,
    (SELECT list(CASE WHEN t.i IN {_PPR_SEEDS} THEN (1.0/{_PPR_NS})::DOUBLE
                 ELSE 0.0::DOUBLE END ORDER BY t.i)
     FROM range({GRAPH_MOD}) t(i)),
    1.0::DOUBLE
  UNION ALL
  SELECT it + 1, new_ranks,
    list_max(list_transform(list_zip(new_ranks, ranks),
                            p -> abs(p[1] - p[2])))
  FROM (
    SELECT it, ranks,
      (SELECT list(
          (1.0 - 0.85) * (CASE WHEN n.i IN {_PPR_SEEDS}
                          THEN (1.0/{_PPR_NS})::DOUBLE ELSE 0.0::DOUBLE END)
          + 0.85::DOUBLE * (
            COALESCE((SELECT SUM(ranks[e.src + 1] / d.outd)
                      FROM edges e JOIN deg d ON e.src = d.src
                      WHERE e.dst = n.i), 0.0::DOUBLE)
            + (SELECT COALESCE(SUM(ranks[m.i + 1]), 0.0::DOUBLE)
               FROM range({GRAPH_MOD}) AS m(i)
               LEFT JOIN deg dd ON m.i = dd.src
               WHERE dd.src IS NULL)
              * (CASE WHEN n.i IN {_PPR_SEEDS}
                 THEN (1.0/{_PPR_NS})::DOUBLE ELSE 0.0::DOUBLE END)
          ) ORDER BY n.i)
       FROM range({GRAPH_MOD}) AS n(i)) AS new_ranks
    FROM pr WHERE it < 200 AND resid > 1e-10
  )
)
SELECT n.i AS id, FLOOR(r.ranks[n.i + 1] * 1e6 + 0.5) / 1e6 AS rank
FROM (SELECT ranks FROM pr ORDER BY it DESC LIMIT 1) r,
     range({GRAPH_MOD}) AS n(i)
ORDER BY id"""


def q_grouped_quantiles_price(sf_dir: str):
    """Per-returnflag EXACT quantiles of l_extendedprice — the grouped
    multi-pass histogram refinement (stages/sketches.py:
    grouped_exact_quantiles): one stream per round for ALL groups,
    per-(group-interval) count vectors the only exchange."""
    from ..stages.sketches import grouped_exact_quantiles

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    return grouped_exact_quantiles(
        ds, "l_returnflag", "l_extendedprice", [0.25, 0.5, 0.75, 0.95]
    )


QUERIES["grouped_quantiles_price"] = q_grouped_quantiles_price

ORACLE_SQL["grouped_quantiles_price"] = " UNION ALL ".join(
    f"SELECT l_returnflag AS grp, {q}::DOUBLE AS q, "
    f"quantile_disc(l_extendedprice, {q})::DOUBLE AS value "
    "FROM lineitem GROUP BY 1"
    for q in (0.25, 0.5, 0.75, 0.95)
)


def q_edge_jaccard(sf_dir: str):
    """Neighborhood-Jaccard embeddedness per existing edge (u < v):
    c / (deg(u)+deg(v)−c) over raw symmetrized neighbor sets; edges
    with no shared neighbor omitted (graph/linkpred.py:edge_jaccard,
    dense/join regimes equivalence-tested)."""
    from ..graph.linkpred import edge_jaccard

    sym = symmetrize_edges(derive_edges(sf_dir)).materialize()
    return edge_jaccard(sym, GRAPH_MOD)


QUERIES["edge_jaccard"] = q_edge_jaccard

ORACLE_SQL["edge_jaccard"] = _with_graph_ctes(
    """SELECT c.u, c.v, c.n_common,
              FLOOR(c.n_common::DOUBLE / (du.d + dv.d - c.n_common)
                    * 1e6 + 0.5) / 1e6 AS jaccard
       FROM (
         SELECT e1.dst AS u, e2.dst AS v, COUNT(*)::BIGINT AS n_common
         FROM edges_sym e1
         JOIN edges_sym e2 ON e1.src = e2.src AND e1.dst < e2.dst
         GROUP BY 1, 2
       ) c
       JOIN edges_sym es ON es.src = c.u AND es.dst = c.v
       JOIN (SELECT src AS id, COUNT(*)::BIGINT AS d
             FROM edges_sym GROUP BY 1) du ON du.id = c.u
       JOIN (SELECT src AS id, COUNT(*)::BIGINT AS d
             FROM edges_sym GROUP BY 1) dv ON dv.id = c.v"""
)


def q_mis(sf_dir: str, reduce: str = "auto"):
    """Deterministic maximal independent set (Luby, fixed bijective
    hash priorities — graph/engine.py:maximal_independent_set; numpy
    spec graph/oracle.py:mis_oracle). state: 0 never survives
    convergence; 1 = in MIS, 2 = dominated."""
    from ..graph.engine import maximal_independent_set

    sym = symmetrize_edges(derive_edges(sf_dir)).materialize()
    res = maximal_independent_set(sym, GRAPH_MOD, seed=41, reduce=reduce)
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table({"id": pa.array(ids), "state": pa.array(res.state)})


QUERIES["mis"] = q_mis

ORACLE_SQL["mis"] = f"""
WITH RECURSIVE
edges AS ({_EDGES_SQL}),
edges_sym AS ({_EDGES_SYM_SQL}),
pri AS (SELECT i, ((i + 41)::HUGEINT * 11400714819323198485)
               % 18446744073709551616 AS p FROM range({GRAPH_MOD}) t(i)),
ms(it, state, undec) AS (
  SELECT 0, (SELECT list(0::BIGINT) FROM range({GRAPH_MOD})), {GRAPH_MOD}
  UNION ALL
  SELECT it + 1, new_state,
    len(list_filter(new_state, s -> s = 0))
  FROM (
    SELECT it,
      (SELECT list(
         CASE
           WHEN state[n.i + 1] <> 0 THEN state[n.i + 1]
           WHEN joined[n.i + 1] THEN 1::BIGINT
           WHEN EXISTS (SELECT 1 FROM edges_sym e
                        WHERE e.dst = n.i AND joined[e.src + 1]) THEN 2::BIGINT
           ELSE 0::BIGINT
         END ORDER BY n.i)
       FROM range({GRAPH_MOD}) AS n(i)) AS new_state
    FROM (
      SELECT it, state,
        (SELECT list(
           state[m.i + 1] = 0 AND
           (SELECT p FROM pri WHERE i = m.i) <
           COALESCE((SELECT MIN(pp.p) FROM edges_sym e
                     JOIN pri pp ON pp.i = e.src
                     WHERE e.dst = m.i AND state[e.src + 1] = 0),
                    18446744073709551616::HUGEINT)
           ORDER BY m.i)
         FROM range({GRAPH_MOD}) AS m(i)) AS joined
      FROM ms WHERE it < 200 AND undec > 0
    )
  )
)
SELECT n.i AS id, f.state[n.i + 1] AS state
FROM (SELECT state FROM ms ORDER BY it DESC LIMIT 1) f,
     range({GRAPH_MOD}) AS n(i)
ORDER BY id"""


TRUSS_K = 8
TRUSS_SQL_ROUNDS = 12  # unroll depth; measured fixpoint at sf0.01 = 4


def q_k_truss(sf_dir: str):
    """k-truss decomposition (k=8): surviving canon (u < v) edges after
    support peeling to fixpoint (graph/truss.py:k_truss; dense/join
    regimes equivalence-tested). Raises if the peel needs more rounds
    than the SQL twin unrolls — a loud guard instead of a silent
    value-hash mismatch."""
    from ..graph.truss import k_truss

    sym = symmetrize_edges(derive_edges(sf_dir)).materialize()
    tbl, rounds = k_truss(sym, GRAPH_MOD, TRUSS_K)
    if rounds > TRUSS_SQL_ROUNDS:
        raise RuntimeError(
            f"k_truss peel took {rounds} rounds > SQL unroll "
            f"{TRUSS_SQL_ROUNDS} — raise TRUSS_SQL_ROUNDS"
        )
    return tbl


QUERIES["k_truss"] = q_k_truss


def _truss_sql(k: int, rounds: int) -> str:
    parts = [
        f"edges AS ({_EDGES_SQL})",
        f"edges_sym AS ({_EDGES_SYM_SQL})",
        "e0 AS MATERIALIZED (SELECT src AS u, dst AS v FROM edges_sym "
        "WHERE src < dst)",
    ]
    for r in range(rounds):
        parts.append(
            f"s{r} AS MATERIALIZED (SELECT u AS a, v AS b FROM e{r} "
            f"UNION ALL SELECT v AS a, u AS b FROM e{r})"
        )
        parts.append(
            f"e{r + 1} AS MATERIALIZED (SELECT u, v FROM ("
            f"SELECT e.u, e.v, COUNT(*) AS c FROM e{r} e "
            f"JOIN s{r} x ON x.a = e.u "
            f"JOIN s{r} y ON y.a = e.v AND y.b = x.b "
            f"GROUP BY e.u, e.v) WHERE c >= {k - 2})"
        )
    return (
        "WITH " + ",\n".join(parts) + f"\nSELECT u, v FROM e{rounds} "
        "ORDER BY u, v"
    )


ORACLE_SQL["k_truss"] = _truss_sql(TRUSS_K, TRUSS_SQL_ROUNDS)


def q_weighted_sample_lineitem(sf_dir: str):
    """Weight-proportional deterministic sample: P(keep) = min(1,
    l_quantity · 40/10000) keyed on l_orderkey — integer-exact twin of
    the HUGEINT SQL expression (stages/sketches.py:weighted_sample)."""
    from ..stages.sketches import weighted_sample

    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"]
    )

    def int_qty(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "l_quantity": pa.compute.cast(
                    pa.compute.round(t["l_quantity"]), pa.int64()
                ),
            }
        )

    return weighted_sample(
        ds.map_batches(int_qty, batch_format="pyarrow"),
        "l_orderkey",
        "l_quantity",
        rate_per_10k=40,
        seed=41,
    )


QUERIES["weighted_sample_lineitem"] = q_weighted_sample_lineitem

ORACLE_SQL["weighted_sample_lineitem"] = f"""
SELECT l_orderkey, l_linenumber,
       CAST(round(l_quantity) AS BIGINT) AS l_quantity
FROM lineitem
WHERE ((((l_orderkey + 41)::HUGEINT * {_FIB_SQL}) % {_M64_SQL})
       // 4294967296) % 10000
      < LEAST(CAST(round(l_quantity) AS BIGINT) * 40, 10000)"""


def q_repetition_scores(sf_dir: str):
    """Per-doc repetition quality signals (duplicate-word fraction +
    top-bigram fraction) — stages/text.py:repetition_score_batch, one
    vectorized Arrow pass, no Python row loop."""
    from ..stages.text import repetition_score_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(repetition_score_batch, batch_format="pyarrow")


QUERIES["repetition_scores"] = q_repetition_scores

ORACLE_SQL["repetition_scores"] = """
WITH arrs AS (
  SELECT doc_id, string_split(text, ' ') AS a FROM documents
),
uni AS (
  SELECT doc_id, len(a) AS n_words, len(list_distinct(a)) AS n_distinct
  FROM arrs
),
bigs AS (
  SELECT doc_id, unnest(list_zip(a, list_slice(a, 2, len(a)))) AS pr
  FROM arrs WHERE len(a) >= 2
),
bstr AS (
  SELECT doc_id, (pr[1] || ' ' || pr[2]) AS bg
  FROM bigs WHERE pr[2] IS NOT NULL
),
btop AS (
  SELECT doc_id, MAX(c)::DOUBLE / SUM(c) AS top_frac FROM (
    SELECT doc_id, bg, COUNT(*) AS c FROM bstr GROUP BY 1, 2
  ) tt GROUP BY doc_id
)
SELECT u.doc_id AS doc_id, u.n_words AS n_words,
  FLOOR((1.0 - u.n_distinct::DOUBLE / u.n_words) * 1e6 + 0.5) / 1e6
    AS dup_word_frac,
  FLOOR(COALESCE(b.top_frac, 0.0) * 1e6 + 0.5) / 1e6 AS top_bigram_frac
FROM uni u LEFT JOIN btop b ON u.doc_id = b.doc_id"""


def q_component_sizes(sf_dir: str):
    """Connected-component size distribution — CC kernel composed with a
    grouped count (the pipeline-composability shape: kernel output is a
    Dataset-compatible table feeding fast_grouped_agg)."""
    edges = derive_edges(sf_dir).materialize()
    und = symmetrize_edges(edges)
    res = connected_components(und, GRAPH_MOD)
    ids = _present_vertex_ids(edges)
    members = ray.data.from_arrow(
        pa.table({"component": pa.array(res.state[ids])})
    )
    return fast_grouped_agg(members, ["component"], count_as="size")


QUERIES["component_sizes"] = q_component_sizes

ORACLE_SQL["component_sizes"] = f"""
WITH RECURSIVE edges AS ({_EDGES_SQL}),
edges_sym AS ({_EDGES_SYM_SQL}),
nodes AS ({_NODES_SQL}),
reach(id, r) AS (
  SELECT id, id FROM nodes
  UNION
  SELECT e.dst, reach.r FROM edges_sym e
  JOIN reach ON e.src = reach.id),
comp AS (SELECT id, min(r) AS component FROM reach GROUP BY id)
SELECT component, count(*)::BIGINT AS size FROM comp GROUP BY component"""


def q_truss_communities(sf_dir: str):
    """Communities = connected components of the 8-truss subgraph —
    k_truss composed with the CC kernel over its surviving edge table
    (cohesion filter → community extraction, the standard truss-based
    community pipeline). Returns (id, community) for truss vertices."""
    from ..graph.truss import k_truss

    sym = symmetrize_edges(derive_edges(sf_dir)).materialize()
    tbl, rounds = k_truss(sym, GRAPH_MOD, TRUSS_K)
    if rounds > TRUSS_SQL_ROUNDS:
        raise RuntimeError("truss peel exceeded SQL unroll")
    if tbl.num_rows == 0:
        return pa.table(
            {
                "id": pa.array([], pa.int64()),
                "community": pa.array([], pa.int64()),
            }
        )
    truss_edges = ray.data.from_arrow(
        pa.table({"src": tbl["u"], "dst": tbl["v"]})
    )
    und = symmetrize_edges(truss_edges).materialize()
    res = connected_components(und, GRAPH_MOD)
    ids = np.unique(
        np.concatenate(
            [
                tbl["u"].to_numpy(zero_copy_only=False),
                tbl["v"].to_numpy(zero_copy_only=False),
            ]
        )
    )
    return pa.table(
        {"id": pa.array(ids), "community": pa.array(res.state[ids])}
    )


QUERIES["truss_communities"] = q_truss_communities

# the truss peel CTE chain with the final SELECT stripped, made
# RECURSIVE so the component CTE can self-reference
_TRUSS_CTES = _truss_sql(TRUSS_K, TRUSS_SQL_ROUNDS).rsplit("\nSELECT", 1)[0]
ORACLE_SQL["truss_communities"] = (
    _TRUSS_CTES.replace("WITH ", "WITH RECURSIVE ", 1)
    + f""",
ts AS (SELECT u AS src, v AS dst FROM e{TRUSS_SQL_ROUNDS}
       UNION ALL SELECT v AS src, u AS dst FROM e{TRUSS_SQL_ROUNDS}),
tnodes AS (SELECT DISTINCT src AS id FROM ts),
treach(id, r) AS (
  SELECT id, id FROM tnodes
  UNION
  SELECT t.dst, treach.r FROM ts t JOIN treach ON t.src = treach.id)
SELECT id, min(r) AS community FROM treach GROUP BY id"""
)


def q_bm25_top3(sf_dir: str):
    """Okapi BM25 top-3 terms per doc — the saturating-TF counterpart of
    tfidf_top3 (same token long-table, same broadcast-df shape)."""
    from ..functions.cooccur import bm25

    scored = bm25(_read(sf_dir, "documents", ["doc_id", "text"]))
    top = top_k_tfidf_per_doc(scored, k=3, value_col="bm25")

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "word"]].copy()
        out["bm25"] = _round6(df["bm25"].to_numpy())
        return out

    return top.map_batches(clean, batch_format="pandas")


QUERIES["bm25_top3"] = q_bm25_top3

ORACLE_SQL["bm25_top3"] = f"""
WITH tok AS (SELECT doc_id, {_TOK} FROM documents),
tf AS (SELECT doc_id, word, count(*)::DOUBLE AS tf FROM tok GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY 1),
df AS (SELECT word, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
ad AS (SELECT avg(dl) AS avgdl FROM dl),
scored AS (
  SELECT tf.doc_id, tf.word,
         ln(1 + (n.n - df.df + 0.5) / (df.df + 0.5))
           * tf.tf * 2.2
           / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / ad.avgdl)) AS bm25,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY ln(1 + (n.n - df.df + 0.5) / (df.df + 0.5))
                      * tf.tf * 2.2
                      / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / ad.avgdl)) DESC,
                    tf.word ASC) AS rn
  FROM tf
  JOIN df USING (word)
  JOIN dl ON dl.doc_id = tf.doc_id, n, ad)
SELECT doc_id, word, round(bm25, 6) AS bm25 FROM scored WHERE rn <= 3
"""


def _orders_cents(sf_dir: str):
    """orders with o_totalprice as exact integer cents (float sums are
    accumulation-order-dependent; int64 partials are not)."""
    orders = _read(
        sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )

    def pre(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "o_orderstatus": t["o_orderstatus"],
                "cents": pa.array(cents),
            }
        )

    return orders.map_batches(pre, batch_format="pyarrow")


def q_rollup_orders(sf_dir: str):
    """GROUP BY ROLLUP(priority, status): finest level + per-priority
    subtotals + grand total, NULL-keyed like the SQL shape."""
    from ..stages.relational import rollup_aggregate

    return rollup_aggregate(
        _orders_cents(sf_dir),
        ["o_orderpriority", "o_orderstatus"],
        {"sum_cents": ("cents", "sum")},
        count_as="n_orders",
    )


def q_pivot_order_status(sf_dir: str):
    """Wide pivot: one row per priority, one int64 column per order
    status holding the summed cents (0 for absent cells)."""
    from ..stages.relational import pivot_wide

    wide = pivot_wide(
        _orders_cents(sf_dir),
        "o_orderpriority",
        "o_orderstatus",
        "cents",
        agg="sum",
        fill=0,
    )

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        for c in df.columns:
            if c != "o_orderpriority":
                df[c] = df[c].astype(np.int64)
        return df

    return wide.map_batches(clean, batch_format="pandas")


QUERIES["rollup_orders"] = q_rollup_orders
QUERIES["pivot_order_status"] = q_pivot_order_status

ORACLE_SQL["rollup_orders"] = """
SELECT o_orderpriority, o_orderstatus,
       (SUM(CAST(round(o_totalprice * 100) AS BIGINT)))::BIGINT AS sum_cents,
       count(*) AS n_orders
FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
"""

ORACLE_SQL["pivot_order_status"] = """
SELECT o_orderpriority,
       (SUM(CASE WHEN o_orderstatus = 'F'
                 THEN CAST(round(o_totalprice * 100) AS BIGINT)
                 ELSE 0 END))::BIGINT AS o_orderstatus_F,
       (SUM(CASE WHEN o_orderstatus = 'O'
                 THEN CAST(round(o_totalprice * 100) AS BIGINT)
                 ELSE 0 END))::BIGINT AS o_orderstatus_O,
       (SUM(CASE WHEN o_orderstatus = 'P'
                 THEN CAST(round(o_totalprice * 100) AS BIGINT)
                 ELSE 0 END))::BIGINT AS o_orderstatus_P
FROM orders GROUP BY o_orderpriority
"""


def q_edit_distance_dedup(sf_dir: str):
    """Levenshtein near-dup clusters (normalized distance ≤ 0.25) with
    the ngram family's shingle blocking — the SQL twin replays the same
    blocking and DuckDB's levenshtein() through the same recursive-CTE
    CC, so the whole pipeline is value-hash-checked end to end."""
    from ..stages.dedup import edit_distance_dedup

    return edit_distance_dedup(
        _read(sf_dir, "documents", ["doc_id", "text"]), max_ratio=0.25
    )


QUERIES["edit_distance_dedup"] = q_edit_distance_dedup

ORACLE_SQL["edit_distance_dedup"] = """
WITH RECURSIVE
tok AS (SELECT doc_id, string_split(lower(text), ' ') AS w FROM documents),
ids AS (SELECT doc_id AS i FROM documents),
sh AS (
  SELECT DISTINCT doc_id, s FROM (
    SELECT doc_id, unnest(
      CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
      ELSE list_transform(range(1, len(w) - 1),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]) END) AS s
    FROM tok)
  WHERE s <> ''),
hot AS (SELECT s FROM sh GROUP BY s HAVING COUNT(*) BETWEEN 2 AND 50),
cand AS (
  SELECT a.doc_id AS src, b.doc_id AS dst
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  WHERE a.s IN (SELECT s FROM hot)
  GROUP BY 1, 2 HAVING COUNT(*) >= 5),
ver AS (
  SELECT c.src, c.dst FROM cand c
  JOIN documents a ON a.doc_id = c.src
  JOIN documents b ON b.doc_id = c.dst
  WHERE levenshtein(a.text, b.text)::DOUBLE
        / greatest(len(a.text), len(b.text), 1) <= 0.25),
sym AS (SELECT src, dst FROM ver UNION SELECT dst AS src, src AS dst FROM ver),
cc(it, labels, changed) AS (
  SELECT 0, (SELECT list(t.i ORDER BY t.i) FROM ids t), 1
  UNION ALL
  SELECT it + 1, new_labels,
    len(list_filter(list_zip(new_labels, labels), p -> p[1] <> p[2]))
  FROM (
    SELECT it, labels,
      (SELECT list(LEAST(labels[n.i + 1], COALESCE(
          (SELECT MIN(labels[e.src + 1]) FROM sym e WHERE e.dst = n.i),
          labels[n.i + 1])) ORDER BY n.i)
       FROM ids n) AS new_labels
    FROM cc WHERE changed > 0 AND it < 1000
  )
)
SELECT n.i AS id, l.labels[n.i + 1] AS cluster_id
FROM (SELECT labels FROM cc ORDER BY it DESC LIMIT 1) l, ids n
ORDER BY id
"""


def q_event_deltas(sf_dir: str):
    """Per-user LAG/LEAD over event values ordered by time (ties
    pre-aggregated per the operator contract) plus the delta vs the
    previous event — the ANSI window-function shape."""
    from ..stages.temporal import lag_lead

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    uniq = fast_grouped_agg(ev, ["user_id", "ts"], {"v": ("value", "sum")})
    r = lag_lead(uniq, "user_id", "ts", "v", lags=(1,), leads=(1,))

    def clean(t: pa.Table) -> pa.Table:
        # round BEFORE differencing, exactly like the oracle (round6(v)
        # in its uniq CTE, delta over the rounded values) — raw-sum
        # differencing would only coincidentally hash-match
        v = _round6(t["v"].to_numpy(zero_copy_only=False))
        lag1 = _round6(t["v_lag1"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.int64()),
                "v": pa.array(v),
                "prev_v": pa.array(lag1),
                "next_v": pa.array(
                    _round6(t["v_lead1"].to_numpy(zero_copy_only=False))
                ),
                "delta": pa.array(_round6(v - lag1)),
            }
        )

    return r.map_batches(clean, batch_format="pyarrow")


QUERIES["event_deltas"] = q_event_deltas

ORACLE_SQL["event_deltas"] = """
WITH uniq AS (
  SELECT user_id, ts, round(sum(value), 6) AS v
  FROM events GROUP BY user_id, ts)
SELECT user_id, epoch_us(ts) AS ts_us, v,
       round(LAG(v) OVER w, 6) AS prev_v,
       round(LEAD(v) OVER w, 6) AS next_v,
       round(v - LAG(v) OVER w, 6) AS delta
FROM uniq WINDOW w AS (PARTITION BY user_id ORDER BY ts)
"""


def q_chunk_dedup_signal(sf_dir: str):
    """Chunk-level (10-token) cross-corpus duplication fractions per
    doc — the line-level exact-dedup cleaning gate."""
    from ..stages.text import chunk_dedup_signal

    return chunk_dedup_signal(
        _read(sf_dir, "documents", ["doc_id", "text"]), chunk_tokens=10
    )


QUERIES["chunk_dedup_signal"] = q_chunk_dedup_signal

ORACLE_SQL["chunk_dedup_signal"] = """
WITH tok AS (SELECT doc_id, string_split(lower(text), ' ') AS w FROM documents),
ch AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(0, (len(w) + 9) // 10),
                i -> array_to_string(w[i * 10 + 1 : i * 10 + 10], ' '))) AS chunk
  FROM tok),
df AS (SELECT chunk, count(*) AS d FROM ch GROUP BY chunk)
SELECT ch.doc_id, count(*) AS n_chunks,
       sum(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END)::BIGINT AS dup_chunks,
       round(sum(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END)::DOUBLE / count(*), 6)
         AS dup_chunk_frac
FROM ch JOIN df USING (chunk)
GROUP BY ch.doc_id
"""


def q_katz(sf_dir: str, reduce: str = "auto"):
    """Katz centrality, 15 fixed supersteps at alpha=0.001/beta=1 (alpha < 1/lambda_max on this graph, so the series converges and round6 is float-order-proof) — the
    attenuated-walk generalization of in-citation counting
    (graph/engine.py:katz_centrality); fixed rounds on both sides so the
    recursive-CTE twin is value-hash comparable after round6."""
    from ..graph.engine import katz_centrality

    edges = derive_edges(sf_dir).materialize()
    res = katz_centrality(
        edges, GRAPH_MOD, alpha=0.001, beta=1.0, max_iters=15, reduce=reduce
    )
    ids = np.arange(GRAPH_MOD, dtype=np.int64)
    return pa.table(
        {"id": pa.array(ids), "katz": pa.array(_round6(res.state))}
    )


QUERIES["katz"] = q_katz

ORACLE_SQL["katz"] = f"""
WITH RECURSIVE
edges AS ({_EDGES_SQL}),
st(it, x) AS (
  SELECT 0, (SELECT list(1.0::DOUBLE) FROM range({GRAPH_MOD}))
  UNION ALL
  SELECT it + 1,
    (SELECT list(
        1.0::DOUBLE + 0.001::DOUBLE * COALESCE(
          (SELECT SUM(x[e.src + 1]) FROM edges e WHERE e.dst = n.i),
          0.0::DOUBLE) ORDER BY n.i)
     FROM range({GRAPH_MOD}) AS n(i))
  FROM st WHERE it < 15
)
SELECT n.i AS id, FLOOR(f.x[n.i + 1] * 1e6 + 0.5) / 1e6 AS katz
FROM (SELECT x FROM st ORDER BY it DESC LIMIT 1) f, range({GRAPH_MOD}) AS n(i)
ORDER BY id"""


def q_quantity_moments(sf_dir: str):
    """Per-(returnflag, linestatus) count/mean/variance of l_quantity in
    one mergeable-moments pass; integer quantities keep the partial sums
    exact, so the derived doubles match the SQL twin bit-for-bit before
    round6."""
    from ..stages.relational import grouped_moments

    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"]
    )
    m = grouped_moments(
        li, ["l_returnflag", "l_linestatus"], "l_quantity", assume_integral=True
    )

    def clean(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "n": t["n"],
                "mean_qty": pa.array(
                    _round6(t["mean"].to_numpy(zero_copy_only=False))
                ),
                "var_qty": pa.array(
                    _round6(t["var"].to_numpy(zero_copy_only=False))
                ),
            }
        )

    return m.map_batches(clean, batch_format="pyarrow")


QUERIES["quantity_moments"] = q_quantity_moments

# the oracle spells the SAME moment formula over the SAME exact integer
# sums (var_pop's internal accumulation order would not be reproducible)
ORACLE_SQL["quantity_moments"] = """
WITH s AS (
  SELECT l_returnflag, l_linestatus,
         count(*) AS n,
         sum(l_quantity::BIGINT)::BIGINT AS sx,
         sum((l_quantity::BIGINT) * (l_quantity::BIGINT))::BIGINT AS sx2
  FROM lineitem GROUP BY 1, 2)
SELECT l_returnflag, l_linestatus, n,
       round(sx::DOUBLE / n, 6) AS mean_qty,
       round((sx2::DOUBLE - sx::DOUBLE * sx::DOUBLE / n) / n, 6) AS var_qty
FROM s
"""


def q_cube_orders(sf_dir: str):
    """GROUP BY CUBE(priority, status): all four grouping sets from one
    finest-level scan (stages/relational.py:cube_aggregate)."""
    from ..stages.relational import cube_aggregate

    return cube_aggregate(
        _orders_cents(sf_dir),
        ["o_orderpriority", "o_orderstatus"],
        {"sum_cents": ("cents", "sum")},
        count_as="n_orders",
    )


QUERIES["cube_orders"] = q_cube_orders

ORACLE_SQL["cube_orders"] = """
SELECT o_orderpriority, o_orderstatus,
       (SUM(CAST(round(o_totalprice * 100) AS BIGINT)))::BIGINT AS sum_cents,
       count(*) AS n_orders
FROM orders GROUP BY CUBE(o_orderpriority, o_orderstatus)
"""


def q_customers_without_urgent(sf_dir: str):
    """LEFT ANTI JOIN (NOT EXISTS): customers with no '1-URGENT' order —
    only the right side's distinct keys enter the shuffle
    (utils.py:bucketed_anti_join)."""
    from ..utils import bucketed_anti_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).filter(
        expr="o_orderpriority == '1-URGENT'"
    )
    renamed = urgent.map_batches(
        lambda t: pa.table({"c_custkey": t["o_custkey"]}),
        batch_format="pyarrow",
    )
    out = bucketed_anti_join(cust, renamed, ["c_custkey"])

    def clean(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_nationkey": t["c_nationkey"],
                "acctbal_cents": pa.array(
                    np.floor(
                        t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0
                        + 0.5
                    ).astype(np.int64)
                ),
            }
        )

    return out.map_batches(clean, batch_format="pyarrow")


def q_customers_with_urgent(sf_dir: str):
    """LEFT SEMI JOIN (EXISTS): the complement set through the same
    membership core — no row duplication from order multiplicity."""
    from ..utils import bucketed_semi_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).filter(
        expr="o_orderpriority == '1-URGENT'"
    )
    renamed = urgent.map_batches(
        lambda t: pa.table({"c_custkey": t["o_custkey"]}),
        batch_format="pyarrow",
    )
    return bucketed_semi_join(cust, renamed, ["c_custkey"])


QUERIES["customers_without_urgent"] = q_customers_without_urgent
QUERIES["customers_with_urgent"] = q_customers_with_urgent

ORACLE_SQL["customers_without_urgent"] = """
SELECT c_custkey, c_nationkey,
       CAST(round(c_acctbal * 100) AS BIGINT) AS acctbal_cents
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
"""

ORACLE_SQL["customers_with_urgent"] = """
SELECT c_custkey, c_nationkey FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_orderpriority = '1-URGENT')
"""


def q_region_revenue_rollup(sf_dir: str):
    """Composition query: two broadcast dimension joins
    (customer→nation→region) into GROUP BY ROLLUP(region, nation) over
    integer order cents — star-schema join + multi-level aggregate in
    one streaming pipeline."""
    from ..stages.relational import rollup_aggregate
    from ..utils import broadcast_merge

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"])

    dim = broadcast_merge(
        broadcast_merge(cust, nation, "c_nationkey", "n_nationkey"),
        region,
        "n_regionkey",
        "r_regionkey",
    )
    fact = broadcast_merge(orders, dim, "o_custkey", "c_custkey")

    def pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "region": t["r_name"],
                "nation": t["n_name"],
                "cents": pa.array(
                    np.floor(
                        t["o_totalprice"].to_numpy(zero_copy_only=False)
                        * 100.0
                        + 0.5
                    ).astype(np.int64)
                ),
            }
        )

    return rollup_aggregate(
        fact.map_batches(pre, batch_format="pyarrow"),
        ["region", "nation"],
        {"sum_cents": ("cents", "sum")},
        count_as="n_orders",
    )


QUERIES["region_revenue_rollup"] = q_region_revenue_rollup

ORACLE_SQL["region_revenue_rollup"] = """
SELECT r.r_name AS region, n.n_name AS nation,
       (SUM(CAST(round(o.o_totalprice * 100) AS BIGINT)))::BIGINT AS sum_cents,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY ROLLUP(r.r_name, n.n_name)
"""


def q_order_price_ranks(sf_dir: str):
    """ANSI RANK / DENSE_RANK / PERCENT_RANK of order price within each
    priority class (stages/temporal.py:rank_in_group)."""
    from ..stages.temporal import rank_in_group

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]
    )
    r = rank_in_group(orders, "o_orderpriority", "o_totalprice")

    def clean(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderpriority": t["o_orderpriority"],
                "rnk": t["rank"],
                "drnk": t["dense_rank"],
                "prnk": pa.array(
                    _round6(t["percent_rank"].to_numpy(zero_copy_only=False))
                ),
            }
        )

    return r.map_batches(clean, batch_format="pyarrow")


def q_user_event_paths(sf_dir: str):
    """Per-user ordered event-type path (behavioral-sequence aggregate,
    stages/temporal.py:path_aggregate; ties broken by the value so both
    sides are deterministic)."""
    from ..stages.temporal import path_aggregate

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return path_aggregate(ev, "user_id", "ts", "event_type", sep="->")


QUERIES["order_price_ranks"] = q_order_price_ranks
QUERIES["user_event_paths"] = q_user_event_paths

ORACLE_SQL["order_price_ranks"] = """
SELECT o_orderkey, o_orderpriority,
       RANK() OVER w AS rnk,
       DENSE_RANK() OVER w AS drnk,
       round(PERCENT_RANK() OVER w, 6) AS prnk
FROM orders WINDOW w AS (PARTITION BY o_orderpriority ORDER BY o_totalprice)
"""

ORACLE_SQL["user_event_paths"] = """
SELECT user_id, count(*) AS n_steps,
       string_agg(event_type, '->' ORDER BY ts, event_type) AS path
FROM events GROUP BY user_id
"""


def q_unigram_logprob(sf_dir: str):
    """Per-doc mean unigram log-probability under the corpus's own
    unigram LM — the classic cheap fluency/quality score for corpus
    filtering. Same broadcast shape as tfidf: one grouped count pass
    builds the LM, one vectorized scoring pass applies it."""
    from ..functions.cooccur import unigram_logprob

    return unigram_logprob(_read(sf_dir, "documents", ["doc_id", "text"]))


QUERIES["unigram_logprob"] = q_unigram_logprob

ORACLE_SQL["unigram_logprob"] = f"""
WITH tok AS (SELECT doc_id, {_TOK} FROM documents),
cnt AS (SELECT word, count(*)::DOUBLE AS c FROM tok GROUP BY 1),
tot AS (SELECT count(*)::DOUBLE AS n FROM tok)
SELECT tok.doc_id, count(*) AS n_tokens,
       round(avg(ln(cnt.c / tot.n)), 6) AS mean_logprob
FROM tok JOIN cnt USING (word), tot
GROUP BY tok.doc_id
"""


def q_qty_price_corr(sf_dir: str):
    """Per-(returnflag, linestatus) Pearson correlation between quantity
    and whole-dollar price from one mergeable co-moment pass; integer
    inputs keep the five sums exact so the derived double matches the
    spelled-out SQL formula bit-for-bit before round6."""
    from ..stages.relational import grouped_corr

    li = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": t["l_quantity"].cast(pa.int64()),
                "dollars": pa.array(
                    np.floor(
                        t["l_extendedprice"].to_numpy(zero_copy_only=False)
                        + 0.5
                    ).astype(np.int64)
                ),
            }
        )

    c = grouped_corr(
        li.map_batches(pre, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        "qty",
        "dollars",
        assume_integral=True,
    )

    def clean(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "n": t["n"],
                "corr_qp": pa.array(
                    _round6(t["corr"].to_numpy(zero_copy_only=False))
                ),
            }
        )

    return c.map_batches(clean, batch_format="pyarrow")


QUERIES["qty_price_corr"] = q_qty_price_corr

ORACLE_SQL["qty_price_corr"] = """
WITH s AS (
  SELECT l_returnflag, l_linestatus, count(*) AS n,
         sum(l_quantity::BIGINT)::BIGINT AS sx,
         sum(CAST(round(l_extendedprice) AS BIGINT))::BIGINT AS sy,
         sum(l_quantity::BIGINT * CAST(round(l_extendedprice) AS BIGINT))::BIGINT AS sxy,
         sum(l_quantity::BIGINT * l_quantity::BIGINT)::BIGINT AS sx2,
         sum(CAST(round(l_extendedprice) AS BIGINT)
             * CAST(round(l_extendedprice) AS BIGINT))::BIGINT AS sy2
  FROM lineitem GROUP BY 1, 2)
SELECT l_returnflag, l_linestatus, n,
       round((sxy::DOUBLE - sx::DOUBLE * sy::DOUBLE / n)
             / sqrt((sx2::DOUBLE - sx::DOUBLE * sx::DOUBLE / n)
                    * (sy2::DOUBLE - sy::DOUBLE * sy::DOUBLE / n)), 6)
         AS corr_qp
FROM s
"""


def q_customer_urgent_counts(sf_dir: str):
    """LEFT OUTER join coverage: every customer with their urgent-order
    count, zero for customers with none (broadcast_merge(how="left") +
    null→0 fill) — the COALESCE(LEFT JOIN) shape."""
    from ..utils import broadcast_merge

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).filter(
        expr="o_orderpriority == '1-URGENT'"
    )
    counts = fast_grouped_agg(urgent, ["o_custkey"], count_as="n_urgent")
    joined = broadcast_merge(cust, counts, "c_custkey", "o_custkey", how="left")

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["c_custkey", "c_nationkey"]].copy()
        out["n_urgent"] = (
            df["n_urgent"].fillna(0).to_numpy().astype(np.int64)
        )
        return out

    return joined.map_batches(clean, batch_format="pandas")


QUERIES["customer_urgent_counts"] = q_customer_urgent_counts

ORACLE_SQL["customer_urgent_counts"] = """
SELECT c.c_custkey, c.c_nationkey,
       COALESCE(u.n_urgent, 0)::BIGINT AS n_urgent
FROM customer c
LEFT JOIN (SELECT o_custkey, count(*) AS n_urgent FROM orders
           WHERE o_orderpriority = '1-URGENT' GROUP BY o_custkey) u
  ON u.o_custkey = c.c_custkey
"""


# The at-scale executor in the gate: each kernel query again with
# reduce="csr" (the CSR actor engine ``auto`` picks above
# LOCAL_KERNEL_MAX_EDGES or past the driver budget), checked against its
# canonical query's oracle.
for _name in ("connected_components", "pagerank", "label_propagation", "hits",
              "mis", "katz"):
    QUERIES[f"{_name}_csr"] = functools.partial(QUERIES[_name], reduce="csr")
    ORACLE_SQL[f"{_name}_csr"] = ORACLE_SQL[_name]
