"""Shared helpers: dense-id minting, broadcast lookups, small-table fetch,
and the package's one hash shuffle.

These are the building blocks SURVEY.md §1.4 maps the reference's in-memory
dicts onto: global dense-id assignment (Corpus.Vocab first-seen ids,
CitationGraphs.go:143-147 → sort + per-block offset rank) and point lookups
(Nodes map, CitationGraphs.go:74-78 → broadcast dict / numpy array).

Raw-task bucketed exchange (:func:`exchange`). Every bucketed reduce
needs the same shape: co-locate rows by a coarse bucket key, then run a
vectorized kernel per bucket. Ray Data expresses that as
groupby(bucket).map_groups — a sort-based shuffle whose boundary-sampling
pass, string/sort-key comparisons and operator barriers cost ~2.5-5 s PER
EXCHANGE at bench scale and barely scale 8→32 cpus (measured on the
24M-edge corpus: sort-shuffle pass 3.6 s @ 8 / 2.7 s @ 32; this raw-task
exchange 1.4 s / 1.05 s for the identical pass). So the exchange is the
one place this engine drops below the Dataset API: P split tasks (each
concatenating ~1/P of the input blocks, bucketing rows with one
vectorized argsort, and returning P zero-copy slices via num_returns=P)
feed P reduce tasks (concat + the per-bucket kernel) — the canonical Ray
MapReduce shuffle, with P² small objects and NO sort-boundary sampling,
no padded union schema, and no aggregator actors. A two-sided reduce
gets each side as its own typed table, so int64 columns never take a
float hop. Exchanges FUSE with their neighbours in edge extraction
(stages/edges.py): the extraction task is the map side of both the mint
and the resolve exchange, and a reduce task re-buckets its own output
for the next pass (``_reduce_and_resplit``), so a two-pass resolve
touches the object store exactly once per pass. Datasets remain the
interface at both ends (blocks in, ``from_arrow_refs`` out);
lineage-based reconstruction still covers worker loss because every
piece is a task output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

# ray.data (and the pandas it loads) is imported only where a Dataset is
# built: every CSR worker process imports this module, and never builds one.


def ray_session() -> tuple[str, str]:
    """The current Ray session, for module-level actor pools: the driver's
    node id — a new local session gets a new one, while job ids restart
    at 01000000 after ``ray.shutdown()``/``ray.init()`` in one process —
    with the job id, which tells two connections to one running cluster
    apart."""
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _numpy_dtype(t: pa.DataType) -> np.dtype:
    if pa.types.is_floating(t):
        return np.dtype(f"f{t.bit_width // 8}")
    if pa.types.is_integer(t):
        sign = "i" if pa.types.is_signed_integer(t) else "u"
        return np.dtype(f"{sign}{t.bit_width // 8}")
    raise ValueError(f"expected an integer or float column, got {t}")


def numpy_column(col: pa.ChunkedArray) -> np.ndarray:
    """A null-free integer or float column as one numpy array, copied off
    its Arrow buffers. pyarrow 16's own conversions (``to_numpy``,
    ``pa.array``, ``DataType.to_pandas_dtype``) import pandas: 0.3-0.45 s
    of every new CSR worker process, which never uses it
    (BENCH/BASELINE.md round 10)."""
    dt = _numpy_dtype(col.type)
    if col.null_count:
        raise ValueError(f"expected no nulls, got {col.null_count}")
    return np.concatenate(
        [np.empty(0, dt)]
        + [
            np.frombuffer(c.buffers()[1], dt, len(c), c.offset * dt.itemsize)
            for c in col.chunks
            if len(c)
        ]
    )


def arrow_table(cols: dict[str, np.ndarray]) -> pa.Table:
    """``pa.table`` of integer or float numpy columns, built without
    pyarrow's pandas import (:func:`numpy_column`)."""
    arrays = {}
    for name, a in cols.items():
        a = np.ascontiguousarray(a)
        t = pa.from_numpy_dtype(a.dtype)
        _numpy_dtype(t)  # bool is bit-packed in Arrow, one byte in numpy
        arrays[name] = pa.Array.from_buffers(t, len(a), [None, pa.py_buffer(a)])
    return pa.table(arrays)


@ray.remote
def _block_len(tbl: pa.Table) -> int:
    return tbl.num_rows


@ray.remote
def _add_index(tbl: pa.Table, offset: int, col: str) -> pa.Table:
    idx = pa.array(np.arange(offset, offset + tbl.num_rows, dtype=np.int64))
    return tbl.append_column(col, idx)


def zip_with_index(ds: ray.data.Dataset, col: str = "id") -> ray.data.Dataset:
    """Append a global 0-based int64 row index as column ``col``.

    The dataset's current block order defines the index order, so call this
    after a ``sort`` when the rank must be deterministic. Used for dense
    vertex-id / vocab-id minting (reference: first-seen vocab ids at
    CitationGraphs.go:143-147; here: rank over sorted keys so ids are
    order-independent). Cost: one pass to count rows per block + one pass to
    append the column — both block-parallel; only per-block *counts* hit the
    driver.
    """
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    if not refs:
        return mat
    counts = ray.get([_block_len.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts[:-1])]).astype(np.int64)
    out_refs = [
        _add_index.remote(r, int(off), col) for r, off in zip(refs, offsets)
    ]
    from ray.data import from_arrow_refs

    return from_arrow_refs(out_refs)


@ray.remote
def _block_value_sum(tbl: pa.Table, col: str) -> float:
    # nulls would become NaN in the float cumsum and then INT64_MIN in
    # the int cast — poisoning every later offset silently; reject here
    if tbl[col].null_count:
        raise ValueError(
            f"ordered_prefix_sum: {tbl[col].null_count} null values in "
            f"{col!r} — fill or drop them upstream"
        )
    s = pa.compute.sum(tbl[col]).as_py()
    return float(s) if s is not None else 0.0


@ray.remote
def _add_exclusive_cumsum(
    tbl: pa.Table, offset: float, col: str, out_col: str, as_int: bool
) -> pa.Table:
    v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
    excl = offset + np.concatenate([[0.0], np.cumsum(v)[:-1]])
    arr = (
        pa.array(excl.astype(np.int64))
        if as_int
        else pa.array(excl)
    )
    return tbl.append_column(out_col, arr)


def ordered_prefix_sum(
    ds: ray.data.Dataset,
    order_col: str,
    value_col: str,
    out_col: str = "prefix_sum",
    presorted: bool = False,
) -> ray.data.Dataset:
    """Append the EXCLUSIVE running sum of ``value_col`` in ``order_col``
    order (row i gets the sum of all strictly-earlier rows) — the
    distributed scan primitive (one range-partitioned sort + the
    zip_with_index block-offset pattern: per-block totals to the driver
    — #blocks scalars, never rows — exclusive scan of those, per-block
    local cumsum + offset). Integer inputs produce an int64 column while
    the running total stays within float64's 2^53 exact-integer range
    (token counts at 100 TB ≈ 10^13-10^14: safe); beyond that switch the
    block partials to int64 object refs.

    ``presorted=True`` skips the sort when upstream already ordered the
    dataset by ``order_col`` (e.g. a read of a sorted layout).
    """
    mat = (ds if presorted else ds.sort(order_col)).materialize()
    refs = mat.to_arrow_refs()
    if not refs:
        return mat
    schema = mat.schema()
    as_int = pa.types.is_integer(schema.types[schema.names.index(value_col)])
    sums = ray.get([_block_value_sum.remote(r, value_col) for r in refs])
    offsets = np.concatenate([[0.0], np.cumsum(sums)[:-1]])
    out_refs = [
        _add_exclusive_cumsum.remote(r, float(off), value_col, out_col, as_int)
        for r, off in zip(refs, offsets)
    ]
    from ray.data import from_arrow_refs

    return from_arrow_refs(out_refs)


def dataset_to_dense_array(
    ds: ray.data.Dataset,
    key_col: str,
    val_col: str,
    size: int,
    default: float | int = 0,
    dtype=np.float64,
) -> np.ndarray:
    """Stream a small per-vertex table ``(key, value)`` into a dense array.

    Per-vertex state (size V) is orders of magnitude smaller than the edge
    table; the broadcast kernel engines hold it as one dense numpy array on
    the driver between supersteps (the distributed alternative is the CSR
    actor engine in graph/csr_engine.py).
    """
    out = np.full(size, default, dtype=dtype)
    for batch in ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[val_col].to_numpy(zero_copy_only=False)
        out[k] = v
    return out


def list_column_to_matrix(
    col: "pa.ChunkedArray | pa.Array", dtype=np.float64
) -> np.ndarray:
    """Uniform-length ``list<numeric>`` column → (n, d) matrix with NO
    per-row Python objects (``to_pylist`` materializes every element as a
    PyObject — measured ~20× slower than flatten+reshape on embedding
    batches; this is the zero-copy-adjacent path for every vector hot
    loop: ANN scoring, embedding dedup, membership metrics)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    if col.null_count:
        raise ValueError("null-bearing list column")
    flat = col.flatten().to_numpy(zero_copy_only=False)
    if len(flat) % n:
        raise ValueError("ragged or null-bearing list column")
    d = len(flat) // n
    if not pa.types.is_fixed_size_list(col.type):
        offs = col.offsets.to_numpy(zero_copy_only=False)
        if not np.all(np.diff(offs) == d):
            raise ValueError("ragged list column; expected uniform length")
    return np.ascontiguousarray(flat.reshape(n, d), dtype=dtype)


def matrix_to_list_array(mat: np.ndarray, dtype=pa.float64()):
    """(n, d) matrix → ``list<dtype>`` Arrow array without per-row Python
    lists (inverse of ``list_column_to_matrix``). Blocks whose flat size
    reaches 2^31 values get int64 offsets (``large_list``) — int32
    np.arange would silently wrap negative there and corrupt the array."""
    n, d = mat.shape
    flat = pa.array(np.ascontiguousarray(mat).ravel(), type=dtype)
    if (n + 1) * d < _LIST_OFFSET32_MAX:
        offsets = pa.array((np.arange(n + 1) * d).astype(np.int32))
        return pa.ListArray.from_arrays(offsets, flat)
    offsets = pa.array(np.arange(n + 1, dtype=np.int64) * d)
    return pa.LargeListArray.from_arrays(offsets, flat)


# int32 list-offset capacity; module-level so tests can force the
# large_list branch without allocating 2^31 values
_LIST_OFFSET32_MAX = 2**31


def _as_arrow(block) -> pa.Table:
    """A Ray block as Arrow: ``to_arrow_refs`` hands back pandas blocks
    as they are when the dataset's first schema is Arrow (a union, an
    empty block a pyarrow UDF passed through)."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def collect_table(ds: "ray.data.Dataset") -> pa.Table:
    """Materialize a small Dataset to one Arrow table, skipping the empty
    zero-column blocks Ray emits for fully-filtered partitions (they break
    pa.concat_tables with a schema mismatch). Pandas blocks are
    converted (:func:`_as_arrow`)."""
    tables = [t for t in map(_as_arrow, ray.get(ds.to_arrow_refs())) if t.num_columns]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def pinned(ds: "ray.data.Dataset", cols: list[str]) -> tuple["ray.data.Dataset", int]:
    """``ds`` with its blocks in the object store, and its row count. A
    ``MaterializedDataset`` comes back as it is and its count is block
    metadata, so no Ray Data job runs: a projection and materialize of
    one costs 53-75 ms of fixed cost (BENCH/BASELINE.md round 11), and a
    caller that collects the blocks picks ``cols`` on the driver. A lazy
    ``ds`` is projected to ``cols`` and materialized, in one job."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.select_columns(cols).materialize()
    return ds, ds.count()


# ---------------------------------------------------------------------------
# Raw-task bucketed exchange (see the module docstring)
# ---------------------------------------------------------------------------


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
def _split_blocks(bucket_fn, P: int, schema: pa.Schema, *blocks):
    """Map side: concat this task's blocks, bucket every row with ONE
    vectorized bucket_fn + argsort, return P zero-copy slices."""
    tabs = [t for t in map(_as_arrow, blocks) if t.num_rows]
    t = (
        pa.concat_tables(tabs, promote_options="default")
        if tabs
        else schema.empty_table()
    )
    return _bucket_slices(t, bucket_fn, P, schema)


def _gather_sides(counts, pieces) -> list:
    sides: list = []
    i = 0
    for c in counts:
        ts = [p for p in map(_as_arrow, pieces[i: i + c]) if p.num_rows]
        sides.append(pa.concat_tables(ts, promote_options="default") if ts else None)
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
    return _bucket_slices(tbl, bucket_fn, P_next, schema) + [meta]


def _split_refs(refs: list, schema: pa.Schema, bucket_fn, P: int) -> list:
    return [
        _split_blocks.options(num_returns=P).remote(bucket_fn, P, schema, *g)
        for g in _grouped(refs, P)
    ]


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


def _nullable_int(t: pa.DataType):
    """pandas' nullable dtype for an Arrow integer type (``types_mapper``
    of :func:`hash_buckets`)."""
    import pandas as pd

    if pa.types.is_integer(t):
        sign = "UInt" if pa.types.is_unsigned_integer(t) else "Int"
        return pd.api.types.pandas_dtype(f"{sign}{t.bit_width}")
    return None


def hash_buckets(keys: list[str]):
    """Bucket function for :func:`exchange`: pandas' ``hash_pandas_object``
    of the key columns mod P — vectorized siphash with a fixed default
    key, identical across worker processes (unlike Python's salted hash).
    Integer keys hash as pandas' nullable integers, which hash like
    int64: a null in a block would otherwise float the block's other
    keys and send them to other buckets than the same keys elsewhere."""

    def f(t: pa.Table, P: int) -> np.ndarray:
        import pandas as pd

        df = t.select(keys).to_pandas(types_mapper=_nullable_int)
        h = pd.util.hash_pandas_object(df, index=False).to_numpy()
        return (h % P).astype(np.int64)

    return f


def exchange(sides: list, bucket_fn, reduce_fn, P: int) -> "ray.data.Dataset":
    """Bucket the rows of every Dataset in ``sides`` into ``P`` buckets
    by ``bucket_fn(table, P) -> bucket index per row``, and run
    ``reduce_fn(*tables)`` once per bucket — one ``pa.Table`` per side,
    or ``None`` for a side with no rows in that bucket. ``reduce_fn``
    returns a ``pa.Table``; its empty outputs are dropped, unless every
    bucket's is empty (then bucket 0's stays, for its schema)."""
    from ray.data import from_arrow_refs

    splits = []
    for ds in sides:
        refs = ds.materialize().to_arrow_refs()
        # one bucket needs no split: its pieces are the blocks themselves
        # (and a num_returns=1 task would return the list as one object)
        splits.append(
            _split_refs(refs, pa.schema([]), bucket_fn, P)
            if P > 1
            else [[r] for r in refs]
        )

    def counted(*tables):
        out = reduce_fn(*tables)
        return out, out.num_rows

    outs, rows = _reduce_exchange(splits, P, counted)
    rows = ray.get(rows)
    return from_arrow_refs([o for o, n in zip(outs, rows) if n] or outs[:1])


# The driver-memory budget: the one answer to "does this fit on the
# driver?". Every regime switch between a driver path (a broadcast side,
# a driver-side merge, a kernel's local executor) and its distributed
# path computes the bytes the driver path would hold, from block metadata
# or from E and V, and asks on_driver; the guards whose result must sit on
# the driver raise above it. 1 GiB lies inside the range of the per-site
# row and vertex bounds it replaced (256 MiB for a broadcast join side to
# ~1.6 GB of V-sized triangle arrays) and leaves room on an 8-16 GiB host
# for the copies a driver path makes of its input.
DRIVER_BUDGET_BYTES = 1 << 30


def on_driver(nbytes: int) -> bool:
    """Whether a driver path holding ``nbytes`` fits the driver budget."""
    return nbytes <= DRIVER_BUDGET_BYTES


def broadcast_merge(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    suffixes: tuple[str, str] = ("_x", "_y"),
    how: str = "inner",
) -> "ray.data.Dataset":
    """Map-side (broadcast) hash join: the small right side is collected
    once, ``ray.put`` once, and pandas-merged into every batch — the
    SURVEY.md §2.7 pattern for dimension-table joins. Avoids the all-to-all
    shuffle (and Ray's hash-join empty-partition schema loss on tiny
    inputs). The right side is collected on the driver, so above the
    driver budget (:func:`on_driver`) this raises — use
    :func:`bucketed_inner_join` (reduce-side) for a big right side."""
    import pandas as pd

    right_tbl = collect_table(right)
    if not on_driver(right_tbl.nbytes):
        raise ValueError(
            f"broadcast_merge: right side too big to broadcast "
            f"({right_tbl.nbytes} B > the driver budget "
            f"DRIVER_BUDGET_BYTES={DRIVER_BUDGET_BYTES} B) — use "
            f"bucketed_inner_join for a reduce-side join"
        )
    right_df = right_tbl.to_pandas()
    ref = ray.put(right_df)

    class Merge:
        def __init__(self) -> None:
            self.right = ray.get(ref)

        def __call__(self, batch: "pd.DataFrame") -> "pd.DataFrame":
            return batch.merge(
                self.right,
                how=how,
                left_on=left_on,
                right_on=right_on,
                suffixes=suffixes,
            )

    return left.map_batches(Merge, batch_format="pandas", concurrency=(1, 8))


def _default_partitions() -> int:
    return max(2, int(ray.cluster_resources().get("CPU", 8)))


def _schema(ds: "ray.data.Dataset", what: str) -> pa.Schema:
    s = ds.schema(fetch_if_missing=True)
    if s is None:
        raise ValueError(
            f"{what}: a side has no schema (empty dataset) — guard the "
            "empty case at the call site"
        )
    return pa.schema(list(zip(s.names, s.types)))


def _keys_with_rows(t: pa.Table, keys: pa.Schema, col: str) -> pa.Table:
    """The key columns of ``t`` cast to the ``keys`` schema, plus its row
    numbers as ``col`` — the only columns an in-bucket Arrow join carries:
    pyarrow rejects list-typed non-key columns in a join, so payloads are
    gathered afterwards with ``take``."""
    rows = pa.array(np.arange(t.num_rows, dtype=np.int64))
    return t.select(keys.names).cast(keys).append_column(col, rows)


def bucketed_inner_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Distributed inner join as ONE hash :func:`exchange` of both sides
    into P buckets + an in-bucket Arrow hash join — the reduce-side join
    shape.

    Exists because Ray's ``Dataset.join`` (acero) loses the schema of
    empty hash partitions on small inputs, schedules one aggregator actor
    per partition (deadlocks when partitions > session CPUs) and rejects
    list-typed non-key columns (all three measured, see stages/dedup.py).
    Non-key column names must be disjoint between the two sides. Every
    output column keeps its input type and values exactly (int64 past
    2^53 included); NULL keys never match, as in SQL.
    """
    ls = _schema(left, "bucketed_inner_join")
    rs = _schema(right, "bucketed_inner_join")
    extra_l = [c for c in ls.names if c not in on]
    extra_r = [c for c in rs.names if c not in on]
    overlap = set(extra_l) & set(extra_r)
    if overlap:
        raise ValueError(f"non-key columns must be disjoint, got {overlap}")
    keys = pa.schema([ls.field(c) for c in on])
    out = pa.schema(
        list(keys) + [ls.field(c) for c in extra_l] + [rs.field(c) for c in extra_r]
    )

    def join(lt: pa.Table | None, rt: pa.Table | None) -> pa.Table:
        if lt is None or rt is None:
            return out.empty_table()
        m = _keys_with_rows(lt, keys, "__l").join(
            _keys_with_rows(rt, keys, "__r"), list(on), join_type="inner"
        )
        li, ri = m["__l"], m["__r"]
        cols = [lt[c].take(li) for c in list(on) + extra_l]
        cols += [rt[c].take(ri) for c in extra_r]
        return pa.Table.from_arrays(cols, schema=out)

    return exchange(
        [left, right],
        hash_buckets(list(on)),
        join,
        num_partitions or _default_partitions(),
    )


def _bucketed_membership_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    keep_matched: bool,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Shared core of semi/anti join: ONE hash :func:`exchange` of the
    left rows + the right side's keys (distinct per block) into P
    buckets, and an Arrow ``left semi``/``left anti`` join per bucket.
    Only keys ship for the right side, whatever its width. Left columns,
    types, values and in-bucket row order pass through exactly; a NULL
    key never matches (SQL EXISTS/NOT EXISTS).
    """
    ls = _schema(left, "semi/anti join")
    if not set(on) <= set(ls.names):
        raise ValueError(f"join keys {on!r} missing from left {ls.names!r}")
    keys = pa.schema([ls.field(c) for c in on])
    rkeys = right.map_batches(
        lambda t: distinct_rows(t, list(on)), batch_format="pyarrow"
    )

    def filter_bucket(lt: pa.Table | None, rt: pa.Table | None) -> pa.Table:
        if lt is None:
            return ls.empty_table()
        if rt is None:
            return ls.empty_table() if keep_matched else lt
        m = _keys_with_rows(lt, keys, "__l").join(
            rt.select(list(on)).cast(keys),
            list(on),
            join_type="left semi" if keep_matched else "left anti",
        )
        return lt.take(np.sort(m["__l"].to_numpy()))

    return exchange(
        [left, rkeys],
        hash_buckets(list(on)),
        filter_bucket,
        num_partitions or _default_partitions(),
    )


def bucketed_semi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """LEFT SEMI JOIN (SQL EXISTS): left rows with ≥1 key match in right,
    left columns only, no duplication from right multiplicity."""
    return _bucketed_membership_join(left, right, on, True, num_partitions)


def bucketed_anti_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """LEFT ANTI JOIN (SQL NOT EXISTS): left rows with NO key match."""
    return _bucketed_membership_join(left, right, on, False, num_partitions)


_AGG_PARTIAL = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}

# Stage 2 of fast_grouped_agg/fast_distinct merges the partials once on
# the driver while they fit the driver budget, and hash-shuffles them into
# per-partition merges above it (the only shape that works when the
# distinct-key cardinality exceeds driver memory). A memory bound, not a
# speed tradeoff: the single C++ merge of 20M partial rows takes ~1-2 s,
# while the distributed merge costs several seconds of fixed overhead
# (measured: dedup of 7M-row partials 10.4 s distributed vs ~3 s driver
# at 8 CPUs).


def _merge_partitioned(
    parts: "ray.data.Dataset",
    keys: list[str],
    final_merge,
    num_partitions: int,
) -> "ray.data.Dataset":
    """Stage 2 as a real shuffle: hash-:func:`exchange` the partials by
    key into P buckets, C++-merge each bucket in its own task."""
    return exchange(
        [parts],
        hash_buckets(keys),
        lambda t: pa.table({}) if t is None else final_merge(t),
        num_partitions,
    )


def _empty_like(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    count_as: str | None,
) -> pa.Table:
    """Schema-stable empty result derived from the INPUT schema (ADVICE:
    fabricating string keys / float64 aggs broke int64-keyed consumers)."""
    in_types = {}
    schema = ds.schema(fetch_if_missing=True)
    if schema is not None:
        in_types = dict(zip(schema.names, schema.types))
    cols = {}
    for k in keys:
        cols[k] = pa.array([], type=in_types.get(k, pa.string()))
    for out_col, (c, fn) in aggs.items():
        t = in_types.get(c, pa.float64())
        if fn == "sum" and pa.types.is_integer(t):
            t = pa.int64()
        elif fn == "sum":
            t = pa.float64()
        cols[out_col] = pa.array([], type=t)
    if count_as:
        cols[count_as] = pa.array([], type=pa.int64())
    return pa.table(cols)


def fast_grouped_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: dict[str, tuple[str, str]] | None = None,
    count_as: str | None = None,
    num_merge_partitions: int = 32,
) -> "ray.data.Dataset":
    """Two-level grouped aggregate on pyarrow's C++ group_by.

    Ray's built-in ``groupby().aggregate()`` finalizes per group in Python
    (measured 34s for 1.7M rows / 200k groups vs 0.4s in a C++ engine);
    this helper does the combiner pattern instead: each block partial-
    aggregates via ``pa.Table.group_by`` (stage 1, parallel, vectorized).
    Stage 2 auto-switches on partial size: partials within the driver
    budget (:func:`on_driver`) are merged once on the driver (fastest at
    test scale); above it they are hash-shuffled by key into
    ``num_merge_partitions`` buckets and merged per bucket — no whole-key-
    space materialization anywhere, which is what billion-key aggregates
    (doc co-occurrence pairs at corpus scale) require.

    aggs: {out_col: (in_col, fn)} with fn in sum|min|max.
    count_as: also emit a row count per group under this name.
    """
    aggs = aggs or {}

    def partial(batch: pa.Table) -> pa.Table:
        gb = batch.group_by(keys)
        cols = [(c, fn) for _, (c, fn) in aggs.items()]
        if count_as:
            cols.append((keys[0], "count"))
        out = gb.aggregate(cols)
        # pyarrow names outputs <col>_<fn>; rename to requested names
        rename = {}
        for out_col, (c, fn) in aggs.items():
            rename[f"{c}_{fn}"] = f"__p_{out_col}"
        if count_as:
            rename[f"{keys[0]}_count"] = f"__p_{count_as}"
        return out.rename_columns(
            [rename.get(n, n) for n in out.column_names]
        )

    final_spec = [
        (f"__p_{out_col}", _AGG_PARTIAL[fn])
        for out_col, (_, fn) in aggs.items()
    ]
    if count_as:
        final_spec.append((f"__p_{count_as}", "sum"))
    rename_final = {
        f"__p_{out_col}_{_AGG_PARTIAL[fn]}": out_col
        for out_col, (_, fn) in aggs.items()
    }
    if count_as:
        rename_final[f"__p_{count_as}_sum"] = count_as

    def final_merge(tbl: pa.Table) -> pa.Table:
        out = tbl.group_by(keys).aggregate(final_spec)
        out = out.rename_columns(
            [rename_final.get(n, n) for n in out.column_names]
        )
        if count_as:
            i = out.schema.get_field_index(count_as)
            out = out.set_column(i, count_as, out[count_as].cast(pa.int64()))
        return out

    parts = ds.map_batches(partial, batch_format="pyarrow").materialize()
    if not on_driver(parts.size_bytes()):
        return _merge_partitioned(
            parts, keys, final_merge, num_merge_partitions
        )
    from ray.data import from_arrow

    tbl = collect_table(parts)
    if tbl.num_rows == 0 and tbl.num_columns == 0:
        return from_arrow(_empty_like(ds, keys, aggs, count_as))
    return from_arrow(final_merge(tbl))


def fast_distinct(
    ds: "ray.data.Dataset",
    keys: list[str],
    num_merge_partitions: int = 32,
) -> "ray.data.Dataset":
    """Exact distinct on key columns: per-block C++ distinct, then one
    final distinct (same two-stage shape + auto-switch as
    fast_grouped_agg: driver merge when partials are small, hash shuffle
    + per-partition distinct when they are not)."""

    def distinct(batch: pa.Table) -> pa.Table:
        return distinct_rows(batch, keys)

    parts = ds.map_batches(distinct, batch_format="pyarrow").materialize()
    if not on_driver(parts.size_bytes()):
        return _merge_partitioned(parts, keys, distinct, num_merge_partitions)
    from ray.data import from_arrow

    tbl = collect_table(parts)
    if tbl.num_columns == 0:
        return from_arrow(_empty_like(ds, keys, {}, None))
    return from_arrow(distinct(tbl))


def distinct_rows(tbl: pa.Table, keys: list[str]) -> pa.Table:
    """The distinct ``keys`` rows of one table (pyarrow's C++ group_by)."""
    return tbl.select(keys).group_by(keys).aggregate([])
