"""Edge extraction + graph construction over Ray Data.

This is the north-rule edge-extraction stage (SURVEY.md §2.12): the
reference builds its graph by mutating per-node ``Refs``/``Cites`` slices
from CSV edge rows (CitationGraphs.go:1528-1540 — G1) and dedups /
symmetrizes on save via nested sets (CitationGraphs.go:2003-2026 — G2).
Here the canonical representation is an **edge table** ``(src:int64,
dst:int64)``; adjacency is always derived, never node-embedded.

Pipeline (streaming, zero-copy Arrow):

    read_parquet(corpus, columns=[repo,path,lang,content])
      → map_batches(ExtractImportEdges)        # stateless, regex per actor
      → resolve (repo,path)→id                 # broadcast vertex map / join
      → drop self-loops, groupby(src,dst) dedup
      → write_parquet / downstream kernels

``content`` is projected away inside the extraction stage so the wide blob
column never reaches a shuffle (SURVEY.md §7.4).
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..utils import collect_table, fast_distinct, fast_grouped_agg

# Regexes matching the synthetic corpus grammar (corpus.py): same-repo
# ``import m<k>`` lines and cross-repo ``from org<A>/repo<B>.m<k> import``
# lines. Real-world extractors plug in here (user-extension hook, SURVEY.md
# §2.11): any callable str -> list[(dst_repo_or_None, dst_module)].
_TRACE = bool(os.environ.get("GRAFT_TRACE"))
_TRACE_T0 = 0.0


def _tr(msg: str) -> None:
    """Driver-side phase tracing for the distributed extraction path
    (GRAFT_TRACE=1) — wall-clock since extract_edge_table entry. Debug
    instrumentation only; never on in benches or tests."""
    if _TRACE:
        print(f"[trace +{time.time() - _TRACE_T0:7.2f}s] {msg}", flush=True)


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
    distributed pipeline. Exact-equality-tested against the loop."""
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


def _hash_edge_cols(t: pa.Table) -> pa.Table:
    """(src_repo, src_path, dst_repo, dst_path) string edges → the
    ``(s1, s2, d1, d2)`` 128-bit endpoint-hash exchange layout. ONE
    definition — the fused extraction stage and resolve_edges' join path
    must stay byte-identical or the exchanges stop matching."""
    s1, s2 = _row_hashes(t["src_repo"], t["src_path"])
    d1, d2 = _row_hashes(t["dst_repo"], t["dst_path"])
    return pa.table(
        {
            "s1": pa.array(s1.view(np.int64)),
            "s2": pa.array(s2.view(np.int32)),
            "d1": pa.array(d1.view(np.int64)),
            "d2": pa.array(d2.view(np.int32)),
        }
    )


def extract_hashed_edges_batch(batch: pa.Table) -> pa.Table:
    """Fused extract → row-hash for the distributed resolve: emits
    ``(s1, s2, d1, d2)`` 128-bit endpoint hashes right where edges are
    born, so no string edge row ever enters the join exchange (the
    hash-keyed resolve's map-side hashing cost, folded into the
    extraction pass)."""
    return _hash_edge_cols(_MODULE_EXTRACTOR(batch))


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


def mint_vertex_ids(
    corpus: ray.data.Dataset, mode: str = "auto"
) -> ray.data.Dataset:
    """Dense int64 vertex ids for every file: rank over sorted (repo, path).

    Deterministic and order-independent (unlike the reference's first-seen
    vocab ids, CitationGraphs.go:143-147, which depend on map iteration
    order). Returns ``(repo, path, id)``.

    Two equivalent rank engines (equivalence-tested):

    - ``driver`` (the broadcast regime, vertex map ≤
      ``BROADCAST_RESOLVE_MAX_ROWS``): one C++ ``Table.sort_by`` on the
      collected distinct table. The map is driver-held in this regime
      anyway (the fused extraction probe ``ray.put``s it), and Ray's
      distributed sort costs ~2-4 s of sample/range-partition fixed
      overhead that dominates small-table minting — the profiled residual
      in the round-2 extraction scaling numbers.
    - ``distributed`` (the 10^12-file path): ONE sampled-splitter
      coarse-bucket exchange (``_ranked_ids_distributed``) with the
      per-block distinct COMBINER map-side and the global distinct, the
      sort, and the local-rank assignment all fused into each bucket
      task (buckets are key-range-disjoint, so per-bucket distinct IS
      global distinct); no driver object ever holds V rows on the
      above-threshold paths. (Previously a separate fast_distinct
      exchange fed a rank-only shuffle — two exchanges and ~6 Ray
      barriers of fixed cost, the profiled anti-scaling residual in the
      r3/r4 extraction scaling: ~2.7 s at BOTH 8 and 32 cpus on the
      733k-vertex bench corpus. The distinct exchange was pure overhead
      for corpus input, where (repo, path) is already ~unique per row;
      the map-side combiner keeps the exchange volume identical to the
      old post-distinct partials when duplicates do exist.)
    """
    if mode == "distributed":
        return _ranked_ids_distributed(
            corpus.select_columns(["repo", "path"])
        )
    verts = fast_distinct(
        corpus.select_columns(["repo", "path"]), ["repo", "path"]
    )
    if mode == "auto":
        mode = (
            "driver"
            if verts.count() <= BROADCAST_RESOLVE_MAX_ROWS
            else "distributed"
        )
    if mode == "driver":
        tbl = collect_table(verts).combine_chunks()
        tbl = tbl.sort_by([("repo", "ascending"), ("path", "ascending")])
        tbl = tbl.append_column(
            "id", pa.array(np.arange(len(tbl), dtype=np.int64))
        )
        return ray.data.from_arrow(tbl)
    return _ranked_ids_distributed(verts)


def _ranked_ids_distributed(
    rows: ray.data.Dataset, num_buckets: int | None = None
) -> ray.data.Dataset:
    """Dense global sorted-rank ids over the distinct ``(repo, path)``
    rows of ``rows`` (which may contain duplicates) — Dataset wrapper
    around ``_ranked_ids_refs`` (see there for the plan)."""
    vid_refs, _ = _ranked_ids_refs(rows, num_buckets)
    if not vid_refs:
        return ray.data.from_arrow(_VIDS_SCHEMA.empty_table())
    return ray.data.from_arrow_refs(vid_refs)


_VIDS_SCHEMA = pa.schema(
    [("repo", pa.string()), ("path", pa.string()), ("id", pa.int64())]
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


@ray.remote
def _sample_vertex_keys(t: pa.Table) -> pa.Table:
    """Evenly-spaced per-block (repo, path) sample — splitter input."""
    n = t.num_rows
    if n == 0:
        return _VERT_SCHEMA.empty_table()
    idx = np.unique(np.linspace(0, n - 1, min(n, 32)).astype(np.int64))
    return t.select(["repo", "path"]).take(pa.array(idx))


def _vert_distinct(t: pa.Table) -> pa.Table:
    """Split-task combiner: per-task distinct (repo, path)."""
    return t.group_by(["repo", "path"]).aggregate([])


def _splitters_from_samples(samp: pa.Table, P: int) -> np.ndarray:
    """Evenly-spaced quantile splitters (P-1 boundaries) over the
    NUL-joined sort keys of a (repo, path) sample table — shared by the
    generic mint and the direct-read regime so both stay consistent with
    ``_mint_rank_reduce``'s range-disjointness assumption."""
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
    AND its hashed twin (h1, h2, id) in one task, so the distributed
    extraction needs no separate hash_vertices pass."""
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


def _ranked_ids_refs(
    rows: ray.data.Dataset, num_buckets: int | None = None
) -> tuple[list, list]:
    """Distributed mint on the raw-task exchange: returns
    ``(vids_block_refs, vh_block_refs)`` in global-rank order (empty
    lists for empty input); no driver object ever holds V rows.

    Plan: (1) per-block distinct COMBINER + sort key (map_batches);
    (2) deterministic evenly-spaced key samples per block → driver
    splitters (tiny); (3) ONE raw-task bucket exchange
    (``_split_blocks``/``_reduce_buckets``) where the split task assigns
    range buckets via vectorized ``searchsorted`` and the reduce task
    sorts, drops cross-block duplicates and emits its local rank count;
    (4) per-bucket ``_attach_ids`` adds ``id = offset + rank`` and the
    hashed twin. Ids equal the global sorted rank regardless of splitter
    quality (splitters only balance bucket sizes; correctness needs only
    range-disjoint buckets).

    vs the previous ``groupby(__bucket).map_groups`` form (Ray Data's
    sort-based shuffle + a separate counts aggregate + a repartition):
    measured on the 2.9M-vertex bench corpus the sort-shuffle mint cost
    4.5 s @ 8 cpus and ANTI-scaled to 5.5 s @ 32 (barrier/sampling fixed
    cost); this form is ~1.5 s at both.
    """
    if num_buckets is None:
        num_buckets = min(
            128, max(2, 2 * int(ray.cluster_resources().get("CPU", 8)))
        )
    P = num_buckets

    src = rows.select_columns(["repo", "path"]).materialize()
    refs = _materialized_block_refs(src)
    _tr(f"mint: src materialized ({len(refs)} blocks)")
    if not refs:
        return [], []
    # tiny per-block sample tasks (≤32 rows each) → driver splitters;
    # no keyed/materialized intermediate — the '\0'-joined sort key
    # (NUL sorts below every key byte, so prefix repos rank first
    # exactly like the 2-column sort) is computed where it's consumed:
    # driver-side on the samples, split-side for bucketing, reduce-side
    # for the sort.
    samp = pa.concat_tables(
        ray.get([_sample_vertex_keys.remote(r) for r in refs])
    )
    if samp.num_rows == 0:
        return [], []
    bucket_fn = _range_bucketer(_splitters_from_samples(samp, P))

    # the per-group distinct COMBINER is fused into the split tasks
    # (prep_fn) — same duplicate-volume protection as the old dedicated
    # map_batches pass, zero extra plasma round-trips
    splits = _split_refs(
        refs,
        _pa_schema(src, _VERT_SCHEMA),
        bucket_fn,
        P,
        prep_fn=_vert_distinct,
    )
    outs, metas = _reduce_exchange([splits], P, _mint_rank_reduce)
    _tr(f"mint: exchange launched ({len(splits)} splits, P={P})")
    sizes = np.asarray(ray.get(metas), dtype=np.int64)
    _tr("mint: reduce metas collected")
    offsets = np.zeros(P, dtype=np.int64)
    offsets[1:] = np.cumsum(sizes)[:-1]
    vid_refs, vh_refs = [], []
    for p in range(P):
        v, h = _attach_ids.remote(outs[p], int(offsets[p]))
        vid_refs.append(v)
        vh_refs.append(h)
    return vid_refs, vh_refs


# Vertex-map rows above which resolve_edges switches from the broadcast
# dict probe to distributed hash joins (the map no longer fits one object
# at 10^12-file scale).
BROADCAST_RESOLVE_MAX_ROWS = 5_000_000


def _finish_edges(t: pa.Table) -> pa.Table:
    """Post-join projection: (src, dst) int64, self-loops dropped."""
    src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = src != dst
    return pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})


def _hash_vertices(t: pa.Table) -> pa.Table:
    """(repo, path, id) → (h1, h2, id): the 128-bit row-hash pair the
    hash-keyed distributed resolve joins on (same hashes VertexProbe
    probes with; uint64 reinterpreted as int64 for Arrow join keys)."""
    h1, h2 = _row_hashes(t["repo"], t["path"])
    return pa.table(
        {
            "h1": pa.array(h1.view(np.int64)),
            "h2": pa.array(h2.view(np.int32)),
            "id": t["id"],
        }
    )


class _VertexHashCollision(Exception):
    """A (h1, h2) collision in the vertex map (P ≈ V²/2^129): the
    hash-keyed resolve is unsafe — callers fall back to the exact string
    join. Detected for free inside pass-1's reduce tasks (same-h1 rows
    land in the same bucket, so per-bucket adjacent-duplicate detection
    over the lexsorted (h1, h2) IS the global uniqueness guard)."""


def _join_partitions() -> int:
    """Ray-JoinOperator partition count (used only by the exact-string
    collision-fallback join): half the cluster's CPU slots, floored at 2.

    Ray's hash-shuffle join schedules one aggregator ACTOR per partition,
    and those actors compete with the map-side tasks for CPU slots:
    P = CPUs starves the producers (observed: P=32 hangs outright at
    num_cpus=4, and at num_cpus=32 the measured curve over the 6.1M-edge
    bench corpus is P=4: 18.2 s, P=8: 15.4 s, P=16: **14.4 s**, P=32:
    18.9 s — and at num_cpus=8 it is P=4: **40.3 s**, P=8: 42.0 s,
    P=16: 48.6 s; interleaved fresh-process legs, best of 2-3).
    CPUs/2 is the optimum at both levels, leaving half the slots for the
    map side. Sizing by exchange bytes instead (materialize + ceil(nbytes
    / 32 MiB)) was measured and REJECTED: the materialize barrier between
    extraction and join cost ~2.5 s more than pipelining at every P. On a
    multi-node cluster CPUs scales with the cluster, so partition count
    (and with it per-partition memory) tracks cluster size; aggregators
    spill to plasma when a partition outgrows its slot.
    """
    return max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)


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


# ---------------------------------------------------------------------------
# Raw-task bucketed exchange
#
# The resolve passes and the distributed id mint all need the same shape:
# co-locate rows by a coarse bucket key, then run a vectorized kernel per
# bucket. Ray Data expresses that as groupby(bucket).map_groups — a
# sort-based shuffle whose boundary-sampling pass, string/sort-key
# comparisons and operator barriers cost ~2.5-5 s PER EXCHANGE at bench
# scale and barely scale 8→32 cpus (measured on the 24M-edge corpus:
# sort-shuffle pass 3.6 s @ 8 / 2.7 s @ 32; this raw-task exchange
# 1.4 s / 1.05 s for the identical pass). So the exchange is the one
# place this engine drops below the Dataset API, per the build brief's
# escape hatch: P split tasks (each concatenating ~1/P of the input
# blocks, bucketing rows with one vectorized argsort, and returning P
# zero-copy slices via num_returns=P) feed P reduce tasks (concat + the
# per-bucket kernel) — the canonical Ray MapReduce shuffle, with P² small
# objects and NO sort-boundary sampling, no padded union schema, and no
# aggregator actors. Consecutive exchanges FUSE: a reduce task can
# re-bucket its own output for the next pass (``_reduce_and_resplit``),
# and a split task can run a map-side combiner first (``prep_fn``), so a
# two-pass resolve touches the object store exactly once per pass.
# Datasets remain the interface at both ends
# (materialized blocks in, ``from_arrow_refs`` out); lineage-based
# reconstruction still covers worker loss because every piece is a task
# output. On a multi-node cluster P tracks data volume
# (``_exchange_partitions``), exactly like the old form.
# ---------------------------------------------------------------------------


def _materialized_block_refs(ds: ray.data.Dataset) -> list:
    refs: list = []
    for b in ds.iter_internal_ref_bundles():
        refs.extend(b.block_refs)
    return refs


def _pa_schema(
    ds: ray.data.Dataset, fallback: pa.Schema | None = None
) -> pa.Schema:
    s = ds.schema()
    if s is None:
        # zero-row materialized dataset: schema is unknowable — use the
        # caller's static schema (all exchange inputs have one)
        if fallback is None:
            raise ValueError("empty dataset with no fallback schema")
        return fallback
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema(list(zip(s.names, s.types)))


def _grouped(refs: list, max_groups: int) -> list[list]:
    """Contiguous ref groups: ≤max_groups split tasks regardless of input
    block count (replaces a repartition() coalesce pass)."""
    if not refs:
        return []
    g = min(max_groups, len(refs))
    bounds = np.linspace(0, len(refs), g + 1).astype(np.int64)
    return [
        refs[bounds[i]: bounds[i + 1]]
        for i in range(g)
        if bounds[i + 1] > bounds[i]
    ]


def _bucket_slices(
    t: pa.Table, bucket_fn, P: int, schema: pa.Schema
) -> list[pa.Table]:
    """Bucket every row with ONE vectorized bucket_fn + argsort; return
    P zero-copy slices (empty tables for empty buckets)."""
    if t.num_rows == 0:
        e = schema.empty_table()
        return [e] * P
    b = bucket_fn(t, P)
    order = np.argsort(b, kind="stable")
    t = t.take(pa.array(order))
    bs = b[order]
    bounds = np.searchsorted(bs, np.arange(P + 1))
    return [t.slice(bounds[p], bounds[p + 1] - bounds[p]) for p in range(P)]


@ray.remote
def _split_blocks(bucket_fn, P: int, schema: pa.Schema, prep_fn, *blocks):
    """Map side: concat this task's blocks, bucket every row with ONE
    vectorized bucket_fn + argsort, return P zero-copy slices.
    ``prep_fn`` (optional) runs on the concatenated table first — the
    fused map-side combiner hook (e.g. per-task distinct)."""
    tabs = [t for t in blocks if t.num_rows]
    if not tabs:
        e = schema.empty_table()
        return [e] * P
    t = pa.concat_tables(tabs)
    if prep_fn is not None:
        t = prep_fn(t)
    return _bucket_slices(t, bucket_fn, P, schema)


def _gather_sides(counts, pieces) -> list:
    sides: list = []
    i = 0
    for c in counts:
        ts = [p for p in pieces[i: i + c] if p.num_rows]
        sides.append(pa.concat_tables(ts) if ts else None)
        i += c
    return sides


@ray.remote(num_returns=2)
def _reduce_buckets(reduce_fn, counts, *pieces):
    """Reduce side: concat each side's pieces (None for an empty side)
    and run the bucket kernel. Returns (table, meta) — meta carries tiny
    per-bucket facts (row counts, collision counts) back to the driver
    without another pass."""
    return reduce_fn(*_gather_sides(counts, pieces))


@ray.remote
def _reduce_and_resplit(
    reduce_fn, counts, bucket_fn, P_next: int, schema: pa.Schema, *pieces
):
    """Reduce + map fused in one task: run the bucket kernel, then
    immediately re-bucket its OUTPUT for the next exchange and return
    ``P_next`` zero-copy slices plus the meta — the classic two-phase
    shuffle fusion. vs a separate split stage this saves one full plasma
    write+read of the intermediate table and a P-task scheduling wave
    (measured on the 96M-edge corpus: the standalone stage-1 re-split
    cost 2.6-3.8 s on top of the reduce)."""
    tbl, meta = reduce_fn(*_gather_sides(counts, pieces))
    if tbl.num_rows == 0:
        return [schema.empty_table()] * P_next + [meta]
    b = bucket_fn(tbl, P_next)
    order = np.argsort(b, kind="stable")
    tbl = tbl.take(pa.array(order))
    bounds = np.searchsorted(b[order], np.arange(P_next + 1))
    return [
        tbl.slice(bounds[p], bounds[p + 1] - bounds[p])
        for p in range(P_next)
    ] + [meta]


def _split_refs(
    refs: list, schema: pa.Schema, bucket_fn, P: int, prep_fn=None
) -> list:
    return [
        _split_blocks.options(num_returns=P).remote(
            bucket_fn, P, schema, prep_fn, *g
        )
        for g in _grouped(refs, P)
    ]


def _split_side(
    ds: ray.data.Dataset,
    bucket_fn,
    P: int,
    schema: pa.Schema | None = None,
) -> list:
    """Split a MATERIALIZED dataset's blocks into P buckets."""
    return _split_refs(
        _materialized_block_refs(ds), _pa_schema(ds, schema), bucket_fn, P
    )


def _split_streaming(
    ds: ray.data.Dataset,
    bucket_fn,
    P: int,
    schema: pa.Schema,
    prep_fn=None,
    rows_per_task: int | None = None,
) -> list:
    """Exchange map side OVERLAPPED with the producing stage: drive the
    (lazy) upstream dataset with ``iter_internal_ref_bundles`` and
    launch a split task as soon as ~EXCHANGE_ROWS_PER_PARTITION rows of
    blocks have materialized — instead of a full ``materialize()``
    barrier between the producer and the exchange. In the distributed
    extraction the producer (regex extraction over ``content``) is the
    dominant compute at low parallelism; riding it with the split wave
    removes a full store pass's worth of wall time from the critical
    path and releases extraction blocks as soon as their split task
    finishes (nothing pins the whole hashed table anymore).

    ``prep_fn`` is forwarded to the split tasks (runs on the concatenated
    input BEFORE bucketing) — the map-side fusion hook: passing the
    extraction kernel here makes the corpus-projection blocks feed
    extract+bucket in ONE task, so the intermediate hashed-edge table is
    never written to (or re-read from) the object store.
    ``rows_per_task`` overrides the flush threshold — fused-compute
    callers size tasks by INPUT rows for parallel balance rather than by
    exchange-output volume."""
    flush_rows = (
        rows_per_task if rows_per_task is not None else EXCHANGE_ROWS_PER_PARTITION
    )
    splits: list = []
    pending: list = []
    rows = 0
    # bundles with unknown row counts (num_rows() None) must still advance
    # the flush threshold, else every unknown-count block accumulates into
    # ONE oversized split task (silent skew / memory blowup); assume a
    # full-sized block per unknown bundle as the conservative proxy
    unknown_bundle_rows = max(1, flush_rows // 8)
    for b in ds.iter_internal_ref_bundles():
        pending.extend(b.block_refs)
        n = b.num_rows()
        rows += n if n is not None else unknown_bundle_rows * len(b.block_refs)
        if rows >= flush_rows:
            splits.append(
                _split_blocks.options(num_returns=P).remote(
                    bucket_fn, P, schema, prep_fn, *pending
                )
            )
            pending, rows = [], 0
    if pending:
        splits.append(
            _split_blocks.options(num_returns=P).remote(
                bucket_fn, P, schema, prep_fn, *pending
            )
        )
    return splits


def _reduce_exchange(splits_per_side: list, P: int, reduce_fn):
    """Wire P reduce tasks over the per-side split outputs. Returns
    (P output-table refs in bucket order, P meta refs)."""
    counts = [len(s) for s in splits_per_side]
    outs, metas = [], []
    for p in range(P):
        pieces = [m[p] for side in splits_per_side for m in side]
        o, meta = _reduce_buckets.remote(reduce_fn, counts, *pieces)
        outs.append(o)
        metas.append(meta)
    return outs, metas


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
    left rows drop (dangling imports), exactly like the broadcast probe.

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


def _make_finish(dedup: bool):
    """Pass-2 post kernel: drop self-loops; ``dedup=True`` additionally
    emits per-bucket-distinct (src, dst) — globally distinct because a
    given (src, dst) always carries the same (d1, d2) key and so always
    lands in the same pass-2 bucket."""

    def finish(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if dedup and len(src):
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

    return finish


_STAGE1_SCHEMA = pa.schema(
    [("d1", pa.int64()), ("d2", pa.int32()), ("src", pa.int64())]
)


def _resolve_hashed(
    hashed_edges: "ray.data.Dataset | None",
    vh: "ray.data.Dataset | list",
    num_partitions: int | None = None,
    dedup: bool = False,
    presplit_l1: list | None = None,
) -> ray.data.Dataset:
    """Resolve (s1,s2)→src then (d1,d2)→dst with two raw-task bucket
    exchanges (see the exchange block above). Only int64 columns cross
    the exchange; unmatched endpoints drop exactly like the broadcast
    probe, and self-loops drop in the pass-2 bucket task.

    ``vh`` is the hashed vertex map — a materialized Dataset or a list
    of block refs (the distributed mint hands refs straight over). Both
    passes bucket the map by h1, so it is SPLIT ONCE and the split
    outputs are reused. Pass 2 consumes pass 1's bucket outputs directly
    as refs — per-bucket pipelined, no barrier, no repartition.

    ``dedup=True`` fuses the global edge dedup into the pass-2 buckets
    (see ``_make_finish``) — no extra shuffle.

    ``presplit_l1`` hands over already-launched edge-side split refs
    (``_split_streaming`` — the exchange map side riding the extraction
    stage); ``hashed_edges`` is ignored (may be None) in that case.

    Raises ``_VertexHashCollision`` if the map's (h1, h2) pairs are not
    unique (P ≈ V²/2^129) — callers fall back to the exact string join.
    """
    vh_is_refs = isinstance(vh, list)
    if num_partitions is None:
        if vh_is_refs:
            raise ValueError("num_partitions required when vh is refs")
        # E ≈ O(10·V) working estimate; callers with a better edge-count
        # estimate pass num_partitions explicitly
        num_partitions = _exchange_partitions(vh.count() * 10)
    P = num_partitions
    if vh_is_refs:
        r_splits = _split_refs(vh, _VH_SCHEMA, _bucket_on("h1"), P)
    else:
        r_splits = _split_side(vh, _bucket_on("h1"), P, schema=_VH_SCHEMA)
    if presplit_l1 is not None:
        l1 = presplit_l1
    else:
        l1 = _split_side(
            hashed_edges, _bucket_on("s1"), P, schema=_EH_SCHEMA
        )
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
    reduce2 = _probe_reduce(
        ("d1", "d2"), ["src"], "dst", post=_make_finish(dedup)
    )
    counts2 = [P, len(r_splits)]
    out2 = []
    for q in range(P):
        pieces = [out1_slices[p][q] for p in range(P)] + [
            m[q] for m in r_splits
        ]
        o, _ = _reduce_buckets.remote(reduce2, counts2, *pieces)
        out2.append(o)
    _tr(f"exchange submitted (P={P}, l1={len(l1)}, r={len(r_splits)})")
    if sum(ray.get(metas1)):
        raise _VertexHashCollision
    _tr("pass-1 metas collected (stage-1 probe done)")
    if _TRACE:
        ray.wait(out2, num_returns=len(out2), fetch_local=False)
        _tr("pass-2 buckets done")
    return ray.data.from_arrow_refs(out2)


def resolve_edges(
    raw_edges: ray.data.Dataset,
    vertex_ids: ray.data.Dataset,
    mode: str = "auto",
    num_join_partitions: int | None = None,
) -> ray.data.Dataset:
    """Resolve string-keyed edges to ``(src:int64, dst:int64)``.

    Two equivalent engines (parametrized-tested identical):

    - ``broadcast`` (small V): the vertex map is ``ray.put`` once and
      probed per batch — the SURVEY.md §2.7 broadcast-join pattern for
      the reference's ``Nodes`` dict probes (CitationGraphs.go:1536-1537).
    - ``join`` (the 10^12-file path, where no single object can hold the
      map): two raw-task bucket exchanges (``_resolve_hashed``) — on
      128-bit ROW HASHES of (repo, path), not the strings. Both sides
      are hashed map-side (vectorized polars ``hash_rows``, the same
      pair ``VertexProbe`` probes with), so the exchange ships only
      int64 columns: the edge side shrinks from 4 string columns
      (~100+ B/row) to four int64s, and in-bucket matching is integer,
      not string (profiled: the string-keyed form was 33 s of a 51 s
      extraction at 8 CPUs). A uniqueness guard on the map's (h1, h2) —
      fused into pass-1's reduce tasks — falls back to the exact string
      Ray join on any collision (P ≈ V²/2^129 — the same documented
      risk bound as ``VertexProbe``'s fast path).

    ``mode="auto"`` picks by vertex-map size. Self-loops are dropped in
    both. Unresolvable dsts (dangling imports) are dropped, mirroring
    "unresolved-edge dropping" in FIXTURES.md.
    """
    if mode == "auto":
        mode = (
            "broadcast"
            if vertex_ids.count() <= BROADCAST_RESOLVE_MAX_ROWS
            else "join"
        )
    if mode in ("join", "join_strings"):
        finish = _finish_edges

        if mode == "join":
            vh = vertex_ids.map_batches(
                _hash_vertices, batch_format="pyarrow"
            ).materialize()

            # materialized: the exchange splits need block refs (and
            # the split tasks coalesce blocks themselves — no
            # repartition pass)
            P = num_join_partitions or _exchange_partitions(
                vh.count() * 10
            )
            eh = raw_edges.map_batches(
                _hash_edge_cols, batch_format="pyarrow"
            ).materialize()
            try:
                return _resolve_hashed(eh, vh, num_partitions=P)
            except _VertexHashCollision:
                pass  # exact string join below

        if num_join_partitions is None:
            # the string-keyed Ray-join fallback (collision path) keeps
            # the aggregator-actor-aware CPUs/2 sizing
            num_join_partitions = _join_partitions()
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
        j = raw_edges.join(
            vs, "inner", num_join_partitions, on=("src_repo", "src_path")
        ).join(vd, "inner", num_join_partitions, on=("dst_repo", "dst_path"))
        return j.map_batches(finish, batch_format="pyarrow")

    keys_ref = ray.put(_vertex_lookup(vertex_ids))

    class Resolve:
        """Vectorized ``VertexProbe`` probe (hash searchsorted; exact
        hashtable fallback) — the old per-row dict loop was 15 s at 7M
        edge rows."""

        def __init__(self) -> None:
            self.lookup: VertexProbe = ray.get(keys_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            s = self.lookup.probe(batch["src_repo"], batch["src_path"])
            d = self.lookup.probe(batch["dst_repo"], batch["dst_path"])
            keep = (s >= 0) & (d >= 0) & (s != d)
            return pa.table(
                {"src": pa.array(s[keep]), "dst": pa.array(d[keep])}
            )

    return raw_edges.map_batches(Resolve, batch_format="pyarrow", concurrency=(1, 32))


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
    collision fallback (string join / exact hashtable) keeps resolution
    exact at any hash width; P(any map collision) ≈ V²/2^97 (~5e-17 at
    the 2.9M-vertex bench, ~6e-6 at 10^12 files).
    """
    import polars as pl

    return _pl_row_hashes(pl.from_arrow(pa.table({"r": repo, "p": path})))


def _pl_row_hashes(df) -> tuple[np.ndarray, np.ndarray]:
    """THE one definition of the endpoint hash pipeline over a 2-column
    polars frame — every producer (``_hash_edge_cols``, ``_attach_ids``
    via ``_row_hashes``, the direct-read ``_fused_read_kernel``) must go
    through here or the exchanges stop matching."""
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


class VertexProbe:
    """Broadcast vertex map (repo, path) → id with a vectorized probe.

    Fast form: three numpy arrays — the map's 128-bit row hashes
    (``_row_hashes``) sorted by h1, plus ids — so actors deserialize the
    broadcast object zero-copy from plasma (the previous pandas
    string-index Series cost ~1 s of Python-string rebuild per actor
    across the 32-actor ramp) and probe via ``searchsorted`` + double-hash
    verify. The build verifies h1 is collision-free over the map
    (P ≈ V²/2^65; at the 5M-row broadcast cap ~7e-7) and falls back to an
    exact pandas string hashtable otherwise, so resolution of *mapped*
    keys is always exact. A dangling (unmapped) key can only resolve
    spuriously by colliding with a map entry in all 128 bits.
    """

    def __init__(self, h1, h2, ids, exact=None) -> None:
        self.h1, self.h2, self.ids, self.exact = h1, h2, ids, exact

    def __len__(self) -> int:
        return len(self.exact) if self.exact is not None else len(self.ids)

    @staticmethod
    def build(vert_tbl: pa.Table, force_exact: bool = False) -> "VertexProbe":
        ids = vert_tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not force_exact:
            h1, h2 = _row_hashes(vert_tbl["repo"], vert_tbl["path"])
            order = np.argsort(h1, kind="stable")
            h1s = h1[order]
            if not (len(h1s) and np.any(h1s[1:] == h1s[:-1])):
                return VertexProbe(h1s, h2[order], ids[order])
        import pandas as pd

        keys = _exact_keys(vert_tbl["repo"], vert_tbl["path"])
        return VertexProbe(
            None, None, None, pd.Series(ids, index=keys.to_pandas())
        )

    def probe(self, repo, path) -> np.ndarray:
        """Vectorized (repo, path) → id; -1 for unmapped keys."""
        if self.exact is not None:
            got = (
                _exact_keys(repo, path)
                .to_pandas()
                .map(self.exact)
                .to_numpy(dtype=np.float64, na_value=np.nan)
            )
            return np.where(np.isnan(got), -1, got).astype(np.int64)
        n = len(repo)
        if not len(self.h1) or not n:
            return np.full(n, -1, dtype=np.int64)
        q1, q2 = _row_hashes(repo, path)
        idx = np.minimum(
            np.searchsorted(self.h1, q1), len(self.h1) - 1
        )
        hit = (self.h1[idx] == q1) & (self.h2[idx] == q2)
        return np.where(hit, self.ids[idx], -1).astype(np.int64)


def _vertex_lookup(vertex_ids: ray.data.Dataset) -> VertexProbe:
    """Build the broadcast probe from the (repo, path, id) dataset."""
    return VertexProbe.build(collect_table(vertex_ids))


def _probe_resolve_dedup(raw: pa.Table, lookup: "VertexProbe") -> pa.Table:
    """Broadcast-probe resolve + per-block dedup of raw string edges —
    THE one definition shared by the fused actor stage and the fused
    direct-read tasks. Drops unresolved endpoints and self-loops; per-
    block distinct via a composite int64 key (ids < M in the broadcast
    regime this path is gated to)."""
    s = lookup.probe(raw["src_repo"], raw["src_path"])
    d = lookup.probe(raw["dst_repo"], raw["dst_path"])
    keep = (s >= 0) & (d >= 0) & (s != d)
    M = len(lookup) + 1
    uniq = np.unique(s[keep] * M + d[keep])
    return pa.table(
        {"src": pa.array(uniq // M), "dst": pa.array(uniq % M)}
    )


class ExtractResolveEdges(ExtractImportEdges):
    """Fused extract → resolve → per-block dedup in ONE actor stage.

    The two-stage form ships every raw string edge row (4 string columns)
    through the object store between the extract and resolve pools; fusing
    probes the broadcast vertex map right where the edges are born and
    emits already-distinct int64 pairs per block — one actor-pool ramp-up
    and a full plasma pass less (the extraction stage's dominant
    non-compute cost at bench scale).
    """

    def __init__(self, lookup_ref) -> None:
        super().__init__()
        self.lookup: VertexProbe = ray.get(lookup_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _probe_resolve_dedup(super().__call__(batch), self.lookup)


# Columns the distributed extraction actually consumes; the direct-read
# regime prunes the parquet scan to exactly these.
_CORPUS_COLUMNS = ["repo", "path", "lang", "content"]

# Target input rows per fused read+extract+split task (direct-read
# regime). Sized so one task's decompressed content (~300 B/row synthetic;
# real code files are larger but the reader streams row groups) plus its
# edge output stays well under a worker heap; at 10^12 files this yields
# ~5M tasks — fine, they launch in waves bounded by cluster slots.
_DIRECT_TASK_ROWS = 200_000

# Max parquet fragments sampled for mint splitters in the direct-read
# regime (evenly spaced; ≤32 rows each). Splitter quality only affects
# bucket balance, never correctness.
_SPLITTER_SAMPLE_FILES = 512


def _corpus_parquet_paths(ds: ray.data.Dataset):
    """Return ``(paths, filesystem)`` iff ``ds`` is a bare
    ``read_parquet``; else ``(None, None)``.

    The direct-read regime bails out on ANY transform — including
    projections (on Ray 2.49 ``input_files()`` is empty after a Project
    anyway, and absorbing one blindly would be unsafe: Project carries
    renames and expressions whose silent loss under an independent
    re-read means wrong rows) — plus row filters, block UDFs, and hive
    partition columns. Introspection failures (Ray internals moved)
    degrade to the generic streaming-handover path, never to an error."""
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


@ray.remote
def _sample_parquet_keys(path: str, fs) -> pa.Table:
    """≤32 evenly-spaced (repo, path) rows from one parquet file —
    splitter input for the direct-read mint (column-pruned scan)."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=["repo", "path"], filesystem=fs)
    if t.num_rows == 0:
        return _VERT_SCHEMA.empty_table()
    idx = np.unique(
        np.linspace(0, t.num_rows - 1, min(t.num_rows, 32)).astype(np.int64)
    )
    return t.take(pa.array(idx))


def _fused_read_kernel(paths: list, fs) -> tuple[pa.Table, pa.Table]:
    """Read this task's parquet fragments column-pruned and produce
    ``(distinct_vertices, hashed_edges)`` — all in polars on the local
    filesystem (native reader + Rust-regex extraction + row hashing,
    no arrow↔polars round-trips; measured 1.63 s vs 2.0 s per 181k-file
    fragment), pyarrow otherwise. The hash pipeline is value-identical
    to ``extract_hashed_edges_batch`` (equality-tested)."""
    import polars as pl
    import pyarrow.fs as pafs

    if fs is None or isinstance(fs, pafs.LocalFileSystem):
        df = pl.read_parquet(
            paths if len(paths) > 1 else paths[0], columns=_CORPUS_COLUMNS
        )
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
    import pyarrow.parquet as pq

    t = pa.concat_tables(
        [
            pq.read_table(p, columns=_CORPUS_COLUMNS, filesystem=fs)
            for p in paths
        ]
    )
    return _vert_distinct(t.select(["repo", "path"])), (
        extract_hashed_edges_batch(t)
    )


def _read_raw_edges(paths: list, fs) -> pa.Table:
    """Read fragments column-pruned and return the RAW string edge table
    (polars native read + extraction on local filesystems, pyarrow
    otherwise) — the fused broadcast regime's direct-read input."""
    import polars as pl
    import pyarrow.fs as pafs

    if fs is None or isinstance(fs, pafs.LocalFileSystem):
        df = pl.read_parquet(
            paths if len(paths) > 1 else paths[0], columns=_CORPUS_COLUMNS
        )
        return _extract_edges_pl(df).to_arrow().cast(_RAW_EDGE_SCHEMA)
    import pyarrow.parquet as pq

    t = pa.concat_tables(
        [
            pq.read_table(p, columns=_CORPUS_COLUMNS, filesystem=fs)
            for p in paths
        ]
    )
    return _extract_edges_vectorized(t)


@ray.remote
def _read_extract_resolve(paths: list, fs, lookup: "VertexProbe") -> pa.Table:
    """Fused-regime direct-read task: read → extract → broadcast-probe
    resolve → per-task dedup. Content lives only in this task's heap
    (the map_batches form round-trips every content block through the
    object store between the read stage and the extract actors). The
    broadcast vertex map arrives as an ObjectRef argument — Ray resolves
    it zero-copy from plasma per task."""
    return _probe_resolve_dedup(_read_raw_edges(paths, fs), lookup)


def _path_groups(paths: list, n_files: int) -> list[list]:
    """Group fragment paths so each direct-read task sees
    ~``_DIRECT_TASK_ROWS`` input rows."""
    rows_per_file = max(1, n_files // max(1, len(paths)))
    files_per_task = max(1, _DIRECT_TASK_ROWS // rows_per_file)
    return [
        paths[i : i + files_per_task]
        for i in range(0, len(paths), files_per_task)
    ]


@ray.remote
def _read_vert_edge_split(
    paths: list, fs, splitters: np.ndarray, Pm: int, P: int
):
    """Fused read + mint-combine + extract + bucket in ONE task: read
    this task's parquet fragments column-pruned, emit

    - ``Pm`` range-bucketed slices of the per-task-distinct vertex keys
      (mint exchange map side), then
    - ``P`` hash-bucketed slices of the extracted 96-bit edge hashes
      (resolve exchange map side).

    The wide ``content`` column lives only inside this task's heap — it
    is never written to the object store (the streaming-handover path
    round-trips ~decompressed-corpus-size through plasma twice; at the
    96M-edge bench that was the single largest non-compute bus cost)."""
    v, e = _fused_read_kernel(paths, fs)
    vs = _bucket_slices(v, _range_bucketer(splitters), Pm, _VERT_SCHEMA)
    es = _bucket_slices(e, _bucket_on("s1"), P, _EH_SCHEMA)
    return vs + es


def _extract_distributed_direct(
    paths: list, fs, n_files: int
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Direct-read distributed extraction: one parquet scan feeds mint
    AND extraction (the generic path reads the corpus twice — once for
    (repo, path) mint input, once with content for extraction — and
    round-trips every content block through plasma between the read
    stage and the split tasks)."""
    P = _exchange_partitions(n_files * 10)
    Pm = min(128, max(2, 2 * int(ray.cluster_resources().get("CPU", 8))))
    # Splitter sampling is BOUNDED: quality only affects bucket balance
    # (correctness needs only range-disjoint buckets — see
    # _ranked_ids_refs), so ≤512 evenly-spaced files × ≤32 rows each is
    # plenty at any corpus size; sampling every file would launch one
    # task per fragment (~5M at the 10^12-file design point) and concat
    # an unbounded driver table.
    if len(paths) > _SPLITTER_SAMPLE_FILES:
        idx = np.linspace(
            0, len(paths) - 1, _SPLITTER_SAMPLE_FILES
        ).astype(np.int64)
        sample_paths = [paths[i] for i in np.unique(idx)]
    else:
        sample_paths = paths
    samp = pa.concat_tables(
        ray.get([_sample_parquet_keys.remote(p, fs) for p in sample_paths])
    )
    _tr(f"direct: splitter samples read ({samp.num_rows} keys)")
    if samp.num_rows == 0:
        return (
            ray.data.from_arrow(
                pa.schema(
                    [("src", pa.int64()), ("dst", pa.int64())]
                ).empty_table()
            ),
            ray.data.from_arrow(_VIDS_SCHEMA.empty_table()),
        )
    splitters = _splitters_from_samples(samp, Pm)
    groups = _path_groups(paths, n_files)
    outs = [
        _read_vert_edge_split.options(num_returns=Pm + P).remote(
            g, fs, splitters, Pm, P
        )
        for g in groups
    ]
    vsplits = [o[:Pm] for o in outs]
    l1 = [o[Pm:] for o in outs]
    _tr(f"direct: {len(groups)} fused read tasks launched (Pm={Pm}, P={P})")

    mouts, metas = _reduce_exchange([vsplits], Pm, _mint_rank_reduce)
    sizes = np.asarray(ray.get(metas), dtype=np.int64)
    _tr("direct: mint reduce metas collected")
    offsets = np.zeros(Pm, dtype=np.int64)
    offsets[1:] = np.cumsum(sizes)[:-1]
    vid_refs, vh_refs = [], []
    for p in range(Pm):
        vref, href = _attach_ids.remote(mouts[p], int(offsets[p]))
        vid_refs.append(vref)
        vh_refs.append(href)
    vids = ray.data.from_arrow_refs(vid_refs)
    edges = _resolve_hashed(
        None, vh_refs, num_partitions=P, dedup=True, presplit_l1=l1
    )
    return edges, vids


def extract_edge_table(
    corpus: ray.data.Dataset,
    mode: str = "auto",
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Full minimum-slice pipeline (SURVEY.md §7.1).

    corpus → extract → mint ids → resolve → dedup. Returns
    ``(edges(src,dst), vertex_ids(repo,path,id))``.

    ``mode="fused"`` (the auto pick when the vertex map fits one object)
    runs extract+resolve+partial-dedup as ONE actor stage
    (``ExtractResolveEdges``); ``mode="staged"`` keeps the two-pool form —
    the only choice when the vertex map must be joined distributively.
    ``mode="distributed"`` forces every sub-stage onto its 10^12-file
    engine regardless of input size — distributed bucketed-rank id mint,
    staged extraction, bucketed-exchange resolve with the global dedup
    fused into the dst-keyed pass; no driver object ever holds the
    vertex map. It exists so the scale path can be
    equivalence-tested and scaling-benched end-to-end at sandbox scale
    (the auto regimes are deliberately driver-assisted below
    ``BROADCAST_RESOLVE_MAX_ROWS`` and Amdahl-bound in W-scaling).
    All modes are equivalence-tested.
    """
    if mode == "distributed":
        global _TRACE_T0
        _TRACE_T0 = time.time()
        slim = corpus.select_columns(["repo", "path", "lang", "content"])
        paths, fs = _corpus_parquet_paths(corpus)
        if paths is not None:
            try:
                return _extract_distributed_direct(
                    paths, fs, corpus.count()
                )
            except _VertexHashCollision:
                # exact string path (P ≈ V²/2^97 — effectively never)
                raw = slim.map_batches(
                    extract_import_edges_batch, batch_format="pyarrow"
                )
                vids = mint_vertex_ids(corpus, mode="distributed")
                return (
                    dedup_edges(
                        resolve_edges(raw, vids, mode="join_strings")
                    ),
                    vids,
                )
        # V ≈ corpus rows (one file per row; parquet-metadata-fast count),
        # E ≈ 10·V — decouples the partition pick from the mint chain so
        # the two subtrees below can run concurrently
        n_files = corpus.count()
        P = _exchange_partitions(n_files * 10)

        # The id mint and the hashed-edge extraction are INDEPENDENT
        # subtrees that only meet at the resolve exchange — run them
        # concurrently on two driver threads (each materialize drives
        # its own streaming executor; the slots are shared, so this
        # pipelines the mint's combiner pass under the extraction's
        # compute; the mint's exchange itself is raw tasks and overlaps
        # anything).
        out: dict = {}

        def _mint_chain() -> None:
            # refs, not a Dataset: the exchange consumes the mint's
            # bucket outputs (and their hashed twins from _attach_ids)
            # directly — no re-execution per consumer (ADVICE r3), no
            # separate hash_vertices pass, no separate collision guard
            # (fused into resolve pass 1).
            out["vid_refs"], out["vh_refs"] = _ranked_ids_refs(
                corpus.select_columns(["repo", "path"])
            )
            _tr("mint chain done (vid/vh refs ready)")

        def _extract_chain() -> None:
            # FUSED extract+split: corpus-projection blocks stream
            # straight into split tasks whose prep_fn is the extraction
            # kernel — extract, hash and bucket happen in ONE task, so
            # the ~3.5 GB hashed-edge table (E rows × 32 B at bench
            # scale) is never written to or re-read from the object
            # store between extraction and the exchange (measured: the
            # handover round-trip was ~2-3 s of pure memory-bus traffic
            # per leg and scaled WORSE than the regex compute). Task
            # granularity is sized by INPUT rows: ~2 tasks per exchange
            # partition keeps every CPU fed at both scaling legs without
            # P² object blowup.
            out["l1_splits"] = _split_streaming(
                slim,
                _bucket_on("s1"),
                P,
                _EH_SCHEMA,
                prep_fn=extract_hashed_edges_batch,
                rows_per_task=max(20_000, n_files // (2 * P)),
            )
            _tr(f"extract chain done ({len(out['l1_splits'])} split tasks launched)")

        errs: list[BaseException] = []

        def _guard(fn):
            def run():
                try:
                    fn()
                except BaseException as e:  # propagate to the driver
                    errs.append(e)

            return run

        threads = [
            threading.Thread(target=_guard(_mint_chain), daemon=True),
            threading.Thread(target=_guard(_extract_chain), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errs:
            raise errs[0]
        vids = (
            ray.data.from_arrow_refs(out["vid_refs"])
            if out["vid_refs"]
            else ray.data.from_arrow(_VIDS_SCHEMA.empty_table())
        )
        try:
            # dedup fused into the pass-2 buckets — no separate shuffle
            edges = _resolve_hashed(
                None,
                out["vh_refs"],
                num_partitions=P,
                dedup=True,
                presplit_l1=out["l1_splits"],
            )
        except _VertexHashCollision:
            # exact string path (P ≈ V²/2^129 — effectively never); the
            # hashed extraction above is discarded on this path
            raw = slim.map_batches(
                extract_import_edges_batch, batch_format="pyarrow"
            )
            edges = dedup_edges(
                resolve_edges(raw, vids, mode="join_strings")
            )
        return edges, vids
    vids = mint_vertex_ids(corpus)
    if mode == "auto":
        mode = (
            "fused"
            if vids.count() <= BROADCAST_RESOLVE_MAX_ROWS
            else "staged"
        )
    slim = corpus.select_columns(["repo", "path", "lang", "content"])
    if mode == "fused":
        keys_ref = ray.put(_vertex_lookup(vids))
        paths, fs = _corpus_parquet_paths(corpus)
        if paths is not None:
            # direct-read regime: read + extract + probe + per-task dedup
            # in one raw task per fragment group — content never enters
            # the object store, and there is no actor-pool ramp
            partial = ray.data.from_arrow_refs(
                [
                    _read_extract_resolve.remote(g, fs, keys_ref)
                    for g in _path_groups(paths, corpus.count())
                ]
            )
        else:
            partial = slim.map_batches(
                ExtractResolveEdges,
                fn_constructor_kwargs={"lookup_ref": keys_ref},
                batch_format="pyarrow",
                concurrency=(1, 32),
            )
        # The per-block np.unique in the probe+dedup kernel is globally
        # complete whenever corpus rows are unique on (repo, path): every
        # (src, dst) is born from exactly one corpus row (src = the
        # emitting file) and each row lives in exactly one block/task, so
        # cross-block duplicates cannot exist. Gate on corpus.count() == V
        # (parquet-metadata-fast); duplicated inputs keep the full global
        # dedup shuffle.
        if corpus.count() == vids.count():
            edges = partial
        else:
            edges = fast_distinct(partial, ["src", "dst"])
    else:
        raw = slim.map_batches(
            extract_import_edges_batch, batch_format="pyarrow"
        )
        edges = dedup_edges(resolve_edges(raw, vids))
    return edges, vids
