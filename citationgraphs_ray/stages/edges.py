"""Edge extraction + graph construction over Ray Data.

This is the north-rule edge-extraction stage (SURVEY.md §2.12): the
reference builds its graph by mutating per-node ``Refs``/``Cites`` slices
from CSV edge rows (CitationGraphs.go:1528-1540 — G1) and dedups /
symmetrizes on save via nested sets (CitationGraphs.go:2003-2026 — G2).
Here the canonical representation is an **edge table** ``(src:int64,
dst:int64)``; adjacency is always derived, never node-embedded.

Pipeline (``extract_edge_table``; one plan for every corpus):

    source groups: parquet paths (bare read_parquet) or block refs of
                   the materialized (repo, path, lang, content) projection
      → sample ≤32 keys per sampled part     → driver mint splitters
      → one task per group: read → regex extract (polars) → row hashes
          ├─ distinct (repo, path), range-bucketed  → mint exchange
          └─ 96-bit edge hashes, hash-bucketed      → resolve exchange
      → mint reduce: sort + adjacent-unique, ids = offset + rank
      → resolve pass 1 (src) → pass 2 (dst, self-loop drop, dedup)

Both exchanges are raw-task bucketed exchanges (the ``utils`` module
docstring describes them), so ``content`` never crosses a shuffle
(SURVEY.md §7.4) and no driver object holds the vertex map.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..utils import (
    _bucket_slices,
    _reduce_and_resplit,
    _reduce_buckets,
    _reduce_exchange,
    _split_refs,
    bucketed_inner_join,
    fast_distinct,
    fast_grouped_agg,
)

# Regexes matching the synthetic corpus grammar (corpus.py): same-repo
# ``import m<k>`` lines and cross-repo ``from org<A>/repo<B>.m<k> import``
# lines. Real-world extractors plug in here (user-extension hook, SURVEY.md
# §2.11): any callable str -> list[(dst_repo_or_None, dst_module)].
_SAME_REPO = re.compile(r"^import m(\d+)\s*$", re.MULTILINE)
_CROSS_REPO = re.compile(r"^from ([\w./-]+/[\w.-]+)\.m(\d+) import", re.MULTILINE)


# Same patterns for the vectorized (polars / Rust-regex) kernel: polars
# has no flags argument, so the MULTILINE flag is inline. Kept textually
# in sync with the compiled constants above (the Python regexes remain
# the reference semantics and the slow-path fallback).
_SAME_REPO_PL = r"(?m)^import m(\d+)\s*$"
_CROSS_REPO_PL = r"(?m)^from ([\w./-]+/[\w.-]+)\.m(\d+) import"


def _extract_edges_pl(df) -> "object":
    """Core vectorized extraction over a polars frame
    (repo, path, lang, content) → polars frame
    (src_repo, src_path, dst_repo, dst_path): ``str.extract_all``
    (Rust regex) + explode, no Python-object row loop. Measured 2.1×
    the Python ``finditer`` loop per core on the bench corpus (1.10 s
    vs 2.34 s per 181k-file fragment) with far less allocator/bus
    traffic — the extraction pass is the dominant compute of the
    extraction pipeline. Exact-equality-tested against the loop."""
    import polars as pl

    df = df.filter(
        (pl.col("lang") == "python") & pl.col("content").is_not_null()
    )
    base = df.select(
        "repo",
        "path",
        pl.col("content").str.extract_all(_SAME_REPO_PL).alias("s"),
        pl.col("content").str.extract_all(_CROSS_REPO_PL).alias("c"),
    )
    same = (
        base.select("repo", "path", "s")
        .filter(pl.col("s").list.len() > 0)
        .explode("s", empty_as_null=False)
        .select(
            pl.col("repo").alias("src_repo"),
            pl.col("path").alias("src_path"),
            pl.col("repo").alias("dst_repo"),
            pl.format(
                "src/m{}.py", pl.col("s").str.extract(r"m(\d+)", 1)
            ).alias("dst_path"),
        )
    )
    cross = (
        base.select("repo", "path", "c")
        .filter(pl.col("c").list.len() > 0)
        .explode("c", empty_as_null=False)
        .select(
            pl.col("repo").alias("src_repo"),
            pl.col("path").alias("src_path"),
            pl.col("c").str.extract(_CROSS_REPO_PL, 1).alias("dst_repo"),
            pl.format(
                "src/m{}.py", pl.col("c").str.extract(_CROSS_REPO_PL, 2)
            ).alias("dst_path"),
        )
    )
    return pl.concat([same, cross])


_RAW_EDGE_SCHEMA = pa.schema(
    [
        ("src_repo", pa.string()),
        ("src_path", pa.string()),
        ("dst_repo", pa.string()),
        ("dst_path", pa.string()),
    ]
)


def _extract_edges_vectorized(batch: pa.Table) -> pa.Table:
    """Arrow adapter over ``_extract_edges_pl``."""
    import polars as pl

    out = _extract_edges_pl(
        pl.from_arrow(batch.select(["repo", "path", "lang", "content"]))
    ).to_arrow()
    # polars emits large_string; downstream exchange schemas are string
    return out.cast(_RAW_EDGE_SCHEMA)


class ExtractImportEdges:
    """Stateless-per-batch edge extractor (actor pool so regexes compile once).

    In: corpus batch (repo, path, lang, content). Out: raw string-keyed edge
    rows (src_repo, src_path, dst_repo, dst_path) — unresolved, undeduped.
    Markdown/go files simply yield no rows (empty-edge case). The reference
    analog is keyphrase-candidate extraction per title (CitationGraphs.go
    call sites 2065/2414) restated as content → import targets.

    ``__call__`` dispatches to the vectorized polars kernel; the Python
    ``finditer`` loop below (``_call_py``) is the reference semantics the
    kernel is exact-equality-tested against.
    """

    def __init__(self) -> None:
        self.same_repo = _SAME_REPO
        self.cross_repo = _CROSS_REPO

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _extract_edges_vectorized(batch)

    def _call_py(self, batch: pa.Table) -> pa.Table:
        repos = batch["repo"].to_pylist()
        paths = batch["path"].to_pylist()
        langs = batch["lang"].to_pylist()
        contents = batch["content"].to_pylist()
        sr: list[str] = []
        sp: list[str] = []
        dr: list[str] = []
        dp: list[str] = []
        for repo, path, lang, content in zip(repos, paths, langs, contents):
            if lang != "python" or not content:
                continue
            for m in self.same_repo.finditer(content):
                sr.append(repo)
                sp.append(path)
                dr.append(repo)
                dp.append(f"src/m{m.group(1)}.py")
            for m in self.cross_repo.finditer(content):
                sr.append(repo)
                sp.append(path)
                dr.append(m.group(1))
                dp.append(f"src/m{m.group(2)}.py")
        return pa.table(
            {
                "src_repo": pa.array(sr, type=pa.string()),
                "src_path": pa.array(sp, type=pa.string()),
                "dst_repo": pa.array(dr, type=pa.string()),
                "dst_path": pa.array(dp, type=pa.string()),
            }
        )


# The extraction regexes are MODULE-LEVEL compiled constants, so the
# extractor carries no per-actor state worth amortizing — the task-pool
# form below avoids the actor-pool ramp entirely (measured on the 770k-file
# bench corpus: actor pool 7.7 s @ 8 cpus / 4.9 s @ 32; task pool 5.5 s /
# 2.3 s — the ramp was the flat cost capping extraction's 8→32 scaling).
_MODULE_EXTRACTOR = ExtractImportEdges()


def extract_import_edges_batch(batch: pa.Table) -> pa.Table:
    """Stateless task-pool form of ``ExtractImportEdges``."""
    return _MODULE_EXTRACTOR(batch)


def sha256_content(batch: pa.Table) -> pa.Table:
    """Append per-row sha256(content) — the input_hint invariant column.

    The pipeline never mutates the corpus, so sha256 before == sha256 after
    any stage; tests assert equality against a fresh read of the source.
    Stateless task stage (plain function).
    """
    shas = [
        hashlib.sha256(c.encode() if c is not None else b"").hexdigest()
        for c in batch["content"].to_pylist()
    ]
    return pa.table(
        {
            "repo": batch["repo"],
            "path": batch["path"],
            "sha256": pa.array(shas),
        }
    )


_VERT_SCHEMA = pa.schema([("repo", pa.string()), ("path", pa.string())])
_VH_SCHEMA = pa.schema(
    [("h1", pa.int64()), ("h2", pa.int32()), ("id", pa.int64())]
)
_EH_SCHEMA = pa.schema(
    [
        ("s1", pa.int64()),
        ("s2", pa.int32()),
        ("d1", pa.int64()),
        ("d2", pa.int32()),
    ]
)


def _splitters_from_samples(samp: pa.Table, P: int) -> np.ndarray:
    """Evenly-spaced quantile splitters (P-1 boundaries) over the
    NUL-joined sort keys of a (repo, path) sample table. An empty sample
    gives no splitters (every row lands in bucket 0); splitters only
    balance bucket sizes — ``_mint_rank_reduce`` needs only range-disjoint
    buckets."""
    if samp.num_rows == 0:
        return np.array([], dtype=object)
    keys_sorted = np.sort(
        _exact_keys(samp["repo"], samp["path"]).to_numpy(
            zero_copy_only=False
        )
    )
    q = np.linspace(0, len(keys_sorted) - 1, P + 1).astype(np.int64)
    return keys_sorted[q[1:-1]]


def _range_bucketer(splitters: np.ndarray):
    """Range bucket function over (repo, path) rows for the splitters
    produced by ``_splitters_from_samples`` (searchsorted side='right'
    — the ONE bucketing the mint reduce's rank math depends on)."""

    def f(t: pa.Table, nparts: int) -> np.ndarray:
        keys = _exact_keys(t["repo"], t["path"]).to_numpy(
            zero_copy_only=False
        )
        return np.searchsorted(splitters, keys, side="right").astype(
            np.int64
        )

    return f


def _mint_rank_reduce(t: pa.Table | None) -> tuple[pa.Table, int]:
    """Per-bucket mint reduce: C++ sort by the NUL-joined key,
    adjacent-unique dedup (buckets are key-range-disjoint, so per-bucket
    distinct IS global distinct), emit (repo, path) in global sorted
    order + the bucket's distinct row count (→ driver offsets)."""
    if t is None:
        e = pa.table(
            {
                "repo": pa.array([], type=pa.string()),
                "path": pa.array([], type=pa.string()),
            }
        )
        return e, 0
    t = t.append_column("__key", _exact_keys(t["repo"], t["path"]))
    t = t.sort_by([("__key", "ascending")])
    k = t["__key"].combine_chunks()
    if isinstance(k, pa.ChunkedArray):
        k = k.chunk(0) if k.num_chunks == 1 else pa.concat_arrays(k.chunks)
    n = len(k)
    if n > 1:
        # adjacent-unique over the sorted keys: drops cross-block
        # duplicates the map-side combiner couldn't see
        neq = pc.not_equal(k.slice(1), k.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
        if not neq.all():
            keep = np.empty(n, dtype=bool)
            keep[0] = True
            keep[1:] = neq
            t = t.filter(pa.array(keep))
    out = t.select(["repo", "path"])
    return out, out.num_rows


@ray.remote(num_returns=2)
def _attach_ids(t: pa.Table, offset: int) -> tuple[pa.Table, pa.Table]:
    """Bucket finalizer: ids = offset + local rank; emits the vids block
    AND its hashed twin (h1, h2, id) in one task, so the resolve exchange
    needs no separate vertex-hashing pass."""
    ids = pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64))
    vids = pa.table({"repo": t["repo"], "path": t["path"], "id": ids})
    if t.num_rows:
        h1, h2 = _row_hashes(t["repo"], t["path"])
        vh = pa.table(
            {
                "h1": pa.array(h1.view(np.int64)),
                "h2": pa.array(h2.view(np.int32)),
                "id": ids,
            }
        )
    else:
        vh = _VH_SCHEMA.empty_table()
    return vids, vh


class _VertexHashCollision(Exception):
    """A (h1, h2) collision in the vertex map (P ≈ V²/2^97): the
    hash-keyed resolve is unsafe — callers fall back to the exact string
    join. Detected for free inside pass-1's reduce tasks (same-h1 rows
    land in the same bucket, so per-bucket adjacent-duplicate detection
    over the lexsorted (h1, h2) IS the global uniqueness guard)."""


# Rows per coarse partition in the bucketed reduce-side resolve exchange:
# a bucket (rows/P × ~40 B of int64 columns) must fit a worker's heap, so
# P tracks DATA volume (cluster-size-independent at scale) with a 2×CPU
# floor for parallelism on small inputs. 4M rows × ~40 B ≈ 160 MB per
# reduce input — comfortably inside a worker heap while keeping the
# exchange's P² small-object count (and the driver's P×2P ref-submission
# work) from exploding: at 500k rows/partition the 97M-edge corpus got
# P=232 → 54k objects per pass and seconds of pure driver submission;
# P=64 moves the same bytes in ~4k objects. The 2×CPU floor, not this
# divisor, is what sets P on every input that fits the sandbox.
EXCHANGE_ROWS_PER_PARTITION = 4_000_000
_BUCKET_MASK = np.int64(2**62 - 1)


def _exchange_partitions(approx_rows: int) -> int:
    cpus = int(ray.cluster_resources().get("CPU", 8))
    by_data = -(-int(approx_rows) // EXCHANGE_ROWS_PER_PARTITION)
    return max(2 * cpus, by_data, 2)


def _bucket_on(col: str):
    """Bucket by the low bits of an int64 hash column."""

    def f(t: pa.Table, P: int) -> np.ndarray:
        h = t[col].to_numpy(zero_copy_only=False)
        return ((h & _BUCKET_MASK) % P).astype(np.int64)

    return f


def _probe_reduce(
    key_cols: tuple[str, str],
    carry_cols: list[str],
    out_name: str,
    post=None,
    guard: bool = False,
):
    """Per-bucket resolve kernel factory: match the left side's 128-bit
    (k1, k2) keys against the vertex map's (h1, h2) with a vectorized
    lexsort + searchsorted probe (the probe walks duplicate-h1 runs to
    their end, so matching is exact on the full 128-bit pair). Unmatched
    left rows drop (dangling imports).

    ``guard=True`` (pass 1) additionally counts duplicate (h1, h2) pairs
    in this bucket's vertex-map rows — same-h1 rows always share a
    bucket, so the summed per-bucket counts ARE the global uniqueness
    guard that used to be a separate fast_grouped_agg shuffle (~1 s).
    ``post`` runs on the matched output (pass 2: self-loop drop + fused
    dedup). Returns (table, collision_count).
    """
    k1, k2 = key_cols
    out_cols = list(carry_cols) + [out_name]

    def empty_out() -> pa.Table:
        return pa.table(
            {c: pa.array(np.array([], dtype=np.int64)) for c in out_cols}
        )

    def reduce(lt: pa.Table | None, rt: pa.Table | None):
        collisions = 0
        if rt is not None and (guard or lt is not None):
            rs1 = rt["h1"].to_numpy(zero_copy_only=False)
            rs2 = rt["h2"].to_numpy(zero_copy_only=False)
            rid = rt["id"].to_numpy(zero_copy_only=False)
            order = np.lexsort((rs2, rs1))
            rs1, rs2, rid = rs1[order], rs2[order], rid[order]
            if guard and len(rs1) > 1:
                collisions = int(
                    ((rs1[1:] == rs1[:-1]) & (rs2[1:] == rs2[:-1])).sum()
                )
        if lt is None or rt is None:
            tbl = empty_out()
            return (tbl if post is None else post(tbl)), collisions
        ls1 = lt[k1].to_numpy(zero_copy_only=False)
        ls2 = lt[k2].to_numpy(zero_copy_only=False)
        cur = np.minimum(np.searchsorted(rs1, ls1), len(rs1) - 1)
        res = np.full(len(ls1), -1, dtype=np.int64)
        hit = np.zeros(len(ls1), dtype=bool)
        active = np.ones(len(ls1), dtype=bool)
        # exact scan over the (rare) duplicate-h1 run: each probe advances
        # until its full 128-bit pair matches or the h1 run ends
        while active.any():
            ok = active & (rs1[cur] == ls1) & (rs2[cur] == ls2)
            res[ok] = rid[cur[ok]]
            hit |= ok
            active = active & ~ok & (rs1[cur] == ls1) & (cur < len(rs1) - 1)
            cur[active] += 1
        out = {}
        for c in carry_cols:
            out[c] = pa.array(lt[c].to_numpy(zero_copy_only=False)[hit])
        out[out_name] = pa.array(res[hit])
        tbl = pa.table(out)
        return (tbl if post is None else post(tbl)), collisions

    return reduce


def _finish_edges(t: pa.Table) -> pa.Table:
    """Pass-2 post kernel: drop self-loops and emit distinct (src, dst) —
    globally distinct because a given (src, dst) always carries the same
    (d1, d2) key and so always lands in the same pass-2 bucket."""
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if len(src):
        # lexsort + adjacent-unique: np.unique on a structured dtype
        # falls back to generic comparison sort (~6x slower — it was
        # the whole pass-2 wall time at bench scale)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.empty(len(src), dtype=bool)
        keep[0] = True
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    return pa.table({"src": pa.array(src), "dst": pa.array(dst)})


_STAGE1_SCHEMA = pa.schema(
    [("d1", pa.int64()), ("d2", pa.int32()), ("src", pa.int64())]
)


def _resolve_hashed(l1: list, vh_refs: list, P: int) -> ray.data.Dataset:
    """Resolve (s1,s2)→src then (d1,d2)→dst with two raw-task bucket
    exchanges (``utils``). Only int64 columns cross
    the exchange; unmatched endpoints drop, and the pass-2 bucket task
    drops self-loops and dedups (``_finish_edges``) — no extra shuffle.

    ``l1`` is the edge side's already-launched split outputs (one list
    of P refs per extraction task, bucketed by s1); ``vh_refs`` are the
    hashed vertex-map blocks from ``_attach_ids``. Both passes bucket the
    map by h1, so it is SPLIT ONCE and the split outputs are reused.
    Pass 2 consumes pass 1's bucket outputs directly as refs — per-bucket
    pipelined, no barrier, no repartition.

    Raises ``_VertexHashCollision`` if the map's (h1, h2) pairs are not
    unique (P ≈ V²/2^97) — the caller falls back to the exact string join.
    """
    r_splits = _split_refs(vh_refs, _VH_SCHEMA, _bucket_on("h1"), P)
    # pass 1 reduces are FUSED with pass 2's map side
    # (_reduce_and_resplit): each bucket task probes src and immediately
    # re-buckets its output by d1 into P slices — the stage-1 table is
    # never written whole and never re-read by a separate split wave.
    reduce1 = _probe_reduce(("s1", "s2"), ["d1", "d2"], "src", guard=True)
    counts1 = [len(l1), len(r_splits)]
    out1_slices: list[list] = []
    metas1 = []
    for p in range(P):
        pieces = [m[p] for m in l1] + [m[p] for m in r_splits]
        refs = _reduce_and_resplit.options(num_returns=P + 1).remote(
            reduce1, counts1, _bucket_on("d1"), P, _STAGE1_SCHEMA, *pieces
        )
        out1_slices.append(refs[:P])
        metas1.append(refs[P])
    # pass 2 is submitted before the collision check so it pipelines
    # behind pass 1's buckets; on the effectively-never collision path
    # the in-flight work is simply discarded
    reduce2 = _probe_reduce(("d1", "d2"), ["src"], "dst", post=_finish_edges)
    counts2 = [P, len(r_splits)]
    out2 = []
    for q in range(P):
        pieces = [out1_slices[p][q] for p in range(P)] + [
            m[q] for m in r_splits
        ]
        o, _ = _reduce_buckets.remote(reduce2, counts2, *pieces)
        out2.append(o)
    if sum(ray.get(metas1)):
        raise _VertexHashCollision
    return ray.data.from_arrow_refs(out2)


def _join_strings(
    raw_edges: ray.data.Dataset, vertex_ids: ray.data.Dataset
) -> ray.data.Dataset:
    """The exact collision fallback: resolve string-keyed raw edges
    against the minted ``(repo, path, id)`` map with two
    ``bucketed_inner_join``s on the string keys, then drop self-loops and
    dedup. Unresolvable dsts (dangling imports) drop, mirroring
    "unresolved-edge dropping" in FIXTURES.md."""
    vs = vertex_ids.map_batches(
        lambda t: pa.table(
            {"src_repo": t["repo"], "src_path": t["path"], "src": t["id"]}
        ),
        batch_format="pyarrow",
    )
    vd = vertex_ids.map_batches(
        lambda t: pa.table(
            {"dst_repo": t["repo"], "dst_path": t["path"], "dst": t["id"]}
        ),
        batch_format="pyarrow",
    )
    j = bucketed_inner_join(
        bucketed_inner_join(raw_edges, vs, ["src_repo", "src_path"]),
        vd,
        ["dst_repo", "dst_path"],
    )
    return dedup_edges(j.map_batches(_finish_edges, batch_format="pyarrow"))


def dedup_edges(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Exact edge dedup: hash-partition on (src, dst), first per group.

    Reference analog: nested-set dedup on save (CitationGraphs.go:2003-2026).
    groupby is the shuffle; the count column is projected away.
    """
    return fast_distinct(edges, ["src", "dst"])


def symmetrize_edges(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Undirected view: union(edges, reversed(edges)) then exact dedup.

    Reference analog: SaveCitationGraph's union of Refs and reversed Cites
    (CitationGraphs.go:2003-2026). Self-loops assumed already dropped.
    """
    # normalize both branches to Arrow blocks: upstream pandas-block stages
    # (map_groups) mixed with arrow blocks break union/materialize
    fwd = edges.map_batches(
        lambda t: pa.table({"src": t["src"], "dst": t["dst"]}),
        batch_format="pyarrow",
    )
    rev = edges.map_batches(
        lambda t: pa.table({"src": t["dst"], "dst": t["src"]}),
        batch_format="pyarrow",
    )
    return dedup_edges(fwd.union(rev))


def out_degrees(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(id, out_degree) via groupby(src).count() — adjacency is derived."""
    out = fast_grouped_agg(edges, ["src"], count_as="out_degree")
    return out.map_batches(
        lambda t: pa.table({"id": t["src"], "out_degree": t["out_degree"]}),
        batch_format="pyarrow",
    )


def in_degrees(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(id, in_degree) via groupby(dst).count() — the reference's in-citation
    count shape (CitationGraphs.go:3947-3961)."""
    out = fast_grouped_agg(edges, ["dst"], count_as="in_degree")
    return out.map_batches(
        lambda t: pa.table({"id": t["dst"], "in_degree": t["in_degree"]}),
        batch_format="pyarrow",
    )


def _row_hashes(
    repo: "pa.Array | pa.ChunkedArray", path: "pa.Array | pa.ChunkedArray"
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent vectorized 64-bit row hashes of (repo, path).

    polars ``hash_rows`` (xxhash family) with fixed seeds — deterministic
    across processes for one polars build, which is all a single run needs
    (hashes never persist; vertex *ids* stay rank-minted and stable).

    The second hash is TRUNCATED to uint32: the pair is a 96-bit key, so
    every exchange/probe row sheds 4 B (the resolve exchange is
    memory-bus-bound; 96.3M-edge bench: ~0.8 GB less traffic per pass).
    Uniqueness over the vertex map is still GUARDED, not assumed — the
    collision fallback (exact string join) keeps resolution
    exact at any hash width; P(any map collision) ≈ V²/2^97 (~5e-17 at
    the 2.9M-vertex bench, ~6e-6 at 10^12 files).
    """
    import polars as pl

    return _pl_row_hashes(pl.from_arrow(pa.table({"r": repo, "p": path})))


def _pl_row_hashes(df) -> tuple[np.ndarray, np.ndarray]:
    """THE one definition of the endpoint hash pipeline over a 2-column
    polars frame — both producers (``_attach_ids`` via ``_row_hashes``
    and the extraction kernel ``_read_extract``) must go through here or
    the exchanges stop matching."""
    return (
        df.hash_rows(seed=0).to_numpy().astype(np.uint64),
        df.hash_rows(seed=1).to_numpy().astype(np.uint64).astype(np.uint32),
    )


def _exact_keys(repo, path) -> "pa.Array":
    return pc.binary_join_element_wise(
        repo.combine_chunks() if isinstance(repo, pa.ChunkedArray) else repo,
        path.combine_chunks() if isinstance(path, pa.ChunkedArray) else path,
        "\x00",
    )


# The corpus columns extraction consumes; parquet reads prune to these.
_CORPUS_COLUMNS = ["repo", "path", "lang", "content"]

# Target input rows per extraction task. Sized so one task's decompressed
# content (~300 B/row synthetic; real code files are larger but the reader
# streams row groups) plus its edge output stays well under a worker heap;
# at 10^12 files this yields ~5M tasks — fine, they launch in waves
# bounded by cluster slots.
_TASK_ROWS = 200_000

# Max source parts (parquet files or blocks) sampled for mint splitters
# (evenly spaced; ≤32 rows each). Splitter quality only affects bucket
# balance, never correctness.
_SPLITTER_SAMPLE_PARTS = 512


def _corpus_parquet_paths(ds: ray.data.Dataset):
    """Return ``(paths, filesystem)`` iff ``ds`` is a bare
    ``read_parquet``; else ``(None, None)``.

    Parquet-path sources bail out on ANY transform — including
    projections (on Ray 2.49 ``input_files()`` is empty after a Project
    anyway, and absorbing one blindly would be unsafe: Project carries
    renames and expressions whose silent loss under an independent
    re-read means wrong rows) — plus row filters, block UDFs, and hive
    partition columns. Such corpora, and introspection failures (Ray
    internals moved), take the block source instead, never an error."""
    try:
        from ray.data._internal.logical.operators.read_operator import Read

        node = ds._plan._logical_plan.dag
        if not isinstance(node, Read) or node.name != "ReadParquet":
            return None, None
        src = getattr(node, "_datasource", None)
        if src is None:
            return None, None
        if getattr(src, "_block_udf", None) is not None:
            return None, None
        if getattr(src, "_partition_columns", None):
            return None, None
        kw = getattr(src, "_to_batches_kwargs", None) or {}
        if kw.get("filter") is not None:
            return None, None
        cols = getattr(src, "_data_columns", None)
        if cols is not None and not set(_CORPUS_COLUMNS) <= set(cols):
            return None, None
        paths = ds.input_files()
        if not paths:
            return None, None
        return paths, getattr(src, "_filesystem", None)
    except Exception:
        return None, None


def _read_source(parts: tuple, fs, columns: list[str]):
    """One source group as a polars frame. Parts are parquet paths (read
    column-pruned: the native polars reader on local filesystems, pyarrow
    otherwise) or corpus blocks — block refs passed as top-level task
    arguments, which Ray resolves to the blocks themselves."""
    import polars as pl
    import pyarrow.fs as pafs
    import pyarrow.parquet as pq
    from ray.data.block import BlockAccessor

    if not isinstance(parts[0], str):
        return pl.from_arrow(
            pa.concat_tables(
                [BlockAccessor.for_block(b).to_arrow().select(columns) for b in parts]
            )
        )
    if fs is None or isinstance(fs, pafs.LocalFileSystem):
        return pl.read_parquet(list(parts), columns=columns)
    return pl.from_arrow(
        pa.concat_tables(
            [pq.read_table(p, columns=columns, filesystem=fs) for p in parts]
        )
    )


@ray.remote
def _sample_keys(fs, part) -> pa.Table:
    """≤32 evenly-spaced (repo, path) rows of one source part — splitter
    input for the mint exchange."""
    t = _read_source((part,), fs, ["repo", "path"]).to_arrow().cast(_VERT_SCHEMA)
    n = t.num_rows
    idx = np.unique(np.linspace(0, n - 1, min(n, 32)).astype(np.int64))
    return t.take(pa.array(idx))


def _read_extract(parts: tuple, fs) -> tuple[pa.Table, pa.Table]:
    """One source group → ``(distinct (repo, path), 96-bit edge hashes)``.

    All in polars: native parquet reader or ``from_arrow`` on blocks,
    Rust-regex extraction and in-place row hashing, no arrow↔polars
    round-trips (measured 1.63 s vs 2.0 s per 181k-file fragment against
    the pyarrow form)."""
    import polars as pl

    df = _read_source(parts, fs, _CORPUS_COLUMNS)
    v = df.select("repo", "path").unique().to_arrow().cast(_VERT_SCHEMA)
    e = _extract_edges_pl(df)
    s1, s2 = _pl_row_hashes(
        e.select(pl.col("src_repo").alias("r"), pl.col("src_path").alias("p"))
    )
    d1, d2 = _pl_row_hashes(
        e.select(pl.col("dst_repo").alias("r"), pl.col("dst_path").alias("p"))
    )
    eh = pa.table(
        {
            "s1": pa.array(s1.view(np.int64)),
            "s2": pa.array(s2.view(np.int32)),
            "d1": pa.array(d1.view(np.int64)),
            "d2": pa.array(d2.view(np.int32)),
        }
    )
    return v, eh


@ray.remote
def _extract_split(fs, splitters: np.ndarray, Pm: int, P: int, *parts):
    """Read + mint-combine + extract + bucket in ONE task per source
    group (``_read_extract``), emitting

    - ``Pm`` range-bucketed slices of the group's distinct vertex keys
      (mint exchange map side), then
    - ``P`` hash-bucketed slices of the extracted 96-bit edge hashes
      (resolve exchange map side).

    For parquet sources the wide ``content`` column lives only inside
    this task's heap; it is never written to the object store."""
    v, eh = _read_extract(parts, fs)
    return _bucket_slices(
        v, _range_bucketer(splitters), Pm, _VERT_SCHEMA
    ) + _bucket_slices(eh, _bucket_on("s1"), P, _EH_SCHEMA)


def _source_groups(parts: list, rows: list) -> list[list]:
    """Contiguous groups of source parts, ~``_TASK_ROWS`` input rows each."""
    groups: list[list] = [[]]
    n = 0
    for part, r in zip(parts, rows):
        if n >= _TASK_ROWS:
            groups.append([])
            n = 0
        groups[-1].append(part)
        n += r
    return groups if groups[0] else []


def extract_edge_table(
    corpus: ray.data.Dataset,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Full minimum-slice pipeline (SURVEY.md §7.1).

    corpus → extract → mint ids → resolve → dedup. Returns
    ``(edges(src,dst), vertex_ids(repo,path,id))``; ids are the dense
    rank over sorted ``(repo, path)`` (deterministic and order-independent,
    unlike the reference's first-seen vocab ids, CitationGraphs.go:143-147).
    Self-loops and dangling imports drop; edges are distinct.

    One plan for every corpus (see the module docstring). A bare
    ``read_parquet`` is read inside the extraction tasks from its paths;
    any other corpus is materialized as its (repo, path, lang, content)
    projection and its blocks are the source. Either way one sampled
    splitter set drives ONE range-bucketed mint exchange, whose reduce
    sorts and drops cross-task duplicates (buckets are key-range-disjoint,
    so per-bucket distinct IS global distinct) and ``_attach_ids`` adds
    ``id = offset + rank`` and the hashed twin; ``_resolve_hashed`` then
    resolves both endpoints with the global dedup fused into pass 2. No
    driver object ever holds V rows. On the effectively-never vertex
    hash collision the already-minted ids resolve the raw string edges
    through ``_join_strings`` instead.
    """
    paths, fs = _corpus_parquet_paths(corpus)
    slim = corpus.select_columns(_CORPUS_COLUMNS)
    if paths is not None:
        n_files = corpus.count()  # parquet metadata, no scan
        parts, rows = paths, [n_files / len(paths)] * len(paths)
    else:
        slim = slim.materialize()
        parts, rows = [], []
        for bundle in slim.iter_internal_ref_bundles():
            parts.extend(bundle.block_refs)
            rows.extend(m.num_rows for m in bundle.metadata)
        n_files = sum(rows)
    # V ≈ corpus rows (one file per row), E ≈ 10·V
    P = _exchange_partitions(n_files * 10)
    Pm = min(128, max(2, 2 * int(ray.cluster_resources().get("CPU", 8))))
    # Splitter sampling is BOUNDED: ≤512 evenly-spaced parts × ≤32 rows
    # each is plenty at any corpus size; sampling every part would launch
    # one task per fragment (~5M at the 10^12-file design point) and
    # concat an unbounded driver table.
    step = max(1, -(-len(parts) // _SPLITTER_SAMPLE_PARTS))
    samples = ray.get([_sample_keys.remote(fs, p) for p in parts[::step]])
    splitters = _splitters_from_samples(
        pa.concat_tables([_VERT_SCHEMA.empty_table(), *samples]), Pm
    )
    outs = [
        _extract_split.options(num_returns=Pm + P).remote(
            fs, splitters, Pm, P, *g
        )
        for g in _source_groups(parts, rows)
    ]

    mouts, metas = _reduce_exchange([[o[:Pm] for o in outs]], Pm, _mint_rank_reduce)
    offsets = np.zeros(Pm, dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(ray.get(metas), dtype=np.int64))[:-1]
    ids = [_attach_ids.remote(mouts[p], int(offsets[p])) for p in range(Pm)]
    vids = ray.data.from_arrow_refs([v for v, _ in ids])
    try:
        edges = _resolve_hashed([o[Pm:] for o in outs], [h for _, h in ids], P)
    except _VertexHashCollision:
        raw = slim.map_batches(extract_import_edges_batch, batch_format="pyarrow")
        edges = _join_strings(raw, vids)
    return edges, vids
