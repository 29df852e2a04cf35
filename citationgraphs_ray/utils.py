"""Shared helpers: dense-id minting, broadcast lookups, small-table fetch.

These are the building blocks SURVEY.md §1.4 maps the reference's in-memory
dicts onto: global dense-id assignment (Corpus.Vocab first-seen ids,
CitationGraphs.go:143-147 → sort + per-block offset rank) and point lookups
(Nodes map, CitationGraphs.go:74-78 → broadcast dict / numpy array).
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


def table_from_arrays(**cols) -> pa.Table:
    return pa.table({k: pa.array(v) for k, v in cols.items()})


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
        offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
        return pa.ListArray.from_arrays(offsets, flat)
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64))
    return pa.LargeListArray.from_arrays(offsets, flat)


# int32 list-offset capacity; module-level so tests can force the
# large_list branch without allocating 2^31 values
_LIST_OFFSET32_MAX = 2**31


def collect_table(ds: "ray.data.Dataset") -> pa.Table:
    """Materialize a small Dataset to one Arrow table, skipping the empty
    zero-column blocks Ray emits for fully-filtered partitions (they break
    pa.concat_tables with a schema mismatch). Pandas blocks (from upstream
    map_groups stages) are converted."""
    raw = ray.get(ds.to_arrow_refs())
    tables = []
    for t in raw:
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_columns > 0:
            tables.append(t)
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


# broadcast_merge right-side budget: above either bound the "small side"
# isn't small and a broadcast would collect it onto the driver and re-ship
# it to every map task — the caller should shuffle instead. Enforced with
# a raise (like decontam.BENCH_FP_BROADCAST_MAX), not a docstring.
BROADCAST_MERGE_MAX_ROWS = 5_000_000
BROADCAST_MERGE_MAX_BYTES = 256 << 20


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
    inputs). The right side must fit one object: above
    ``BROADCAST_MERGE_MAX_ROWS`` / ``_BYTES`` this raises — use
    :func:`bucketed_inner_join` (reduce-side) for a big right side."""
    import pandas as pd

    right_tbl = collect_table(right)
    if (
        right_tbl.num_rows > BROADCAST_MERGE_MAX_ROWS
        or right_tbl.nbytes > BROADCAST_MERGE_MAX_BYTES
    ):
        raise ValueError(
            f"broadcast_merge: right side too big to broadcast "
            f"({right_tbl.num_rows} rows / {right_tbl.nbytes >> 20} MiB > "
            f"{BROADCAST_MERGE_MAX_ROWS} rows / "
            f"{BROADCAST_MERGE_MAX_BYTES >> 20} MiB) — use "
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


def bucketed_inner_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Distributed inner join as ONE hash shuffle into P coarse buckets +
    an in-bucket pandas (C hash) merge — the reduce-side join shape.

    Exists because Ray's ``Dataset.join`` (acero) loses the schema of
    empty hash partitions on small inputs, schedules one aggregator actor
    per partition (deadlocks when partitions > session CPUs) and rejects
    list-typed non-key columns (all three measured, see stages/dedup.py).
    Non-key column names must be disjoint between the two sides. Output
    column types follow the input schemas (null-padding during the union
    never leaks: every output row is an inner match, and columns are cast
    back to their source Arrow types).
    """
    import pandas as pd

    ls = left.schema(fetch_if_missing=True)
    rs = right.schema(fetch_if_missing=True)
    if ls is None or rs is None:
        raise ValueError(
            "bucketed_inner_join: a side has no schema (empty dataset) — "
            "guard the empty case at the call site"
        )
    l_types = dict(zip(ls.names, ls.types))
    r_types = dict(zip(rs.names, rs.types))
    extra_l = [c for c in ls.names if c not in on]
    extra_r = [c for c in rs.names if c not in on]
    overlap = set(extra_l) & set(extra_r)
    if overlap:
        raise ValueError(f"non-key columns must be disjoint, got {overlap}")
    types = {**l_types, **r_types}
    out_cols = list(on) + extra_l + extra_r
    if num_partitions is None:
        num_partitions = max(2, int(ray.cluster_resources().get("CPU", 8)))

    def pad(side: int, missing: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {c: t[c] for c in t.column_names}
            for c in missing:
                cols[c] = pa.nulls(n, type=types[c])
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int64))
            return pa.table({c: cols[c] for c in out_cols + ["__side"]})

        return fn

    tagged = left.map_batches(pad(0, extra_r), batch_format="pyarrow").union(
        right.map_batches(pad(1, extra_l), batch_format="pyarrow")
    )

    def merge_bucket(df: "pd.DataFrame") -> pa.Table:
        l = df[df["__side"] == 0][list(on) + extra_l]
        r = df[df["__side"] == 1][list(on) + extra_r]
        m = l.merge(r, on=list(on), how="inner")
        arrs = {}
        for c in out_cols:
            # int64 columns pass through pandas as float64 because of the
            # union's null padding; cast back — exact only within ±2^53,
            # so larger magnitudes raise (the value was already rounded in
            # the float hop; Arrow's safe cast can't see that)
            a = pa.array(m[c].to_numpy(), from_pandas=True)
            if a.type != types[c]:
                cast = a.cast(types[c])
                if pa.types.is_floating(a.type) and pa.types.is_integer(
                    types[c]
                ):
                    mx = pa.compute.max(pa.compute.abs(cast)).as_py()
                    if mx is not None and mx >= (1 << 53):
                        raise ValueError(
                            f"bucketed_inner_join: column {c!r} holds "
                            "int64 values beyond float64's exact range "
                            "(2^53); the null-padded union corrupts them "
                            "— re-key or split such ids before the join"
                        )
                a = cast
            arrs[c] = a
        return pa.table(arrs)

    return (
        tagged.map_batches(
            lambda t: _hash_partition_column(t, list(on), num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(
            lambda df: merge_bucket(df.drop(columns="__part")),
            batch_format="pandas",
        )
    )


def _bucketed_membership_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    keep_matched: bool,
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Shared core of semi/anti join: ONE hash shuffle of the left rows +
    the right side's DISTINCT KEYS into P coarse buckets, per-bucket
    vectorized membership merge. Only keys ship for the right side, so
    the exchange is bounded by left + |distinct right keys| regardless of
    right's width or row count. Left columns/types pass through exactly.
    """
    import pandas as pd

    ls = left.schema(fetch_if_missing=True)
    if ls is None:
        raise ValueError(
            "semi/anti join: left side has no schema (empty dataset) — "
            "guard the empty case at the call site"
        )
    l_types = dict(zip(ls.names, ls.types))
    out_cols = list(ls.names)
    if not set(on) <= set(out_cols):
        raise ValueError(f"join keys {on!r} missing from left {out_cols!r}")
    if num_partitions is None:
        num_partitions = max(2, int(ray.cluster_resources().get("CPU", 8)))

    rkeys = fast_distinct(right.select_columns(list(on)), list(on))

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in out_cols}
        cols["__side"] = pa.array(np.zeros(t.num_rows, dtype=np.int64))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {c: t[c] if c in on else pa.nulls(t.num_rows, l_types[c])
                for c in out_cols}
        cols["__side"] = pa.array(np.ones(t.num_rows, dtype=np.int64))
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        rkeys.map_batches(tag_right, batch_format="pyarrow")
    )

    def filter_bucket(df: "pd.DataFrame") -> pa.Table:
        l = df[df["__side"] == 0]
        # SQL EXISTS/NOT EXISTS: NULL = NULL never matches — drop null
        # right keys (pandas merge would match NaN == NaN) and force
        # null-key left rows unmatched
        rk = df[df["__side"] == 1][list(on)].dropna()
        m = l[list(on)].merge(
            rk.drop_duplicates(), on=list(on), how="left", indicator=True
        )
        matched = (m["_merge"] == "both").to_numpy()
        matched &= ~l[list(on)].isna().any(axis=1).to_numpy()
        out = l[matched if keep_matched else ~matched]
        arrs = {}
        for c in out_cols:
            a = pa.array(out[c].to_numpy(), from_pandas=True)
            if a.type != l_types[c]:
                cast = a.cast(l_types[c])
                if pa.types.is_floating(a.type) and pa.types.is_integer(
                    l_types[c]
                ):
                    # the tagged union's null padding floated this int64
                    # column, so any magnitude past 2^53 has ALREADY been
                    # rounded (measured: 2^60+1347 arrives as 2^60+1280) —
                    # raise the _cast_out contract error, never emit it.
                    # (Arrow's float→int safe cast does NOT catch this:
                    # the rounded value is integral, so it casts cleanly.)
                    mx = pa.compute.max(pa.compute.abs(cast)).as_py()
                    if mx is not None and mx >= (1 << 53):
                        raise ValueError(
                            f"semi/anti join: column {c!r} holds int64 "
                            "values beyond float64's exact range (2^53); "
                            "the null-padded union corrupts them — re-key "
                            "or split such ids before the join"
                        )
                a = cast
            arrs[c] = a
        return pa.table(arrs)

    return (
        tagged.map_batches(
            lambda t: _hash_partition_column(t, list(on), num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(
            lambda df: filter_bucket(df.drop(columns="__part")),
            batch_format="pandas",
        )
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

# Partial-row count above which stage 2 of fast_grouped_agg/fast_distinct
# switches from the single driver-side C++ merge to a hash shuffle of the
# partials + per-partition merges (the only shape that works when the
# distinct-key cardinality exceeds driver memory). The cutoff is a MEMORY
# bound, not a speed tradeoff: 20M partial rows ≈ a few hundred MB on a
# 128-GB driver and the single C++ merge takes ~1-2 s, while the Ray
# sort behind the distributed merge costs several seconds of fixed
# overhead — so stay on the driver until memory actually forces the
# shuffle (measured: dedup of 7M-row partials 10.4 s distributed vs ~3 s
# driver at 8 CPUs).
DISTRIBUTE_MERGE_THRESHOLD = 20_000_000


def _hash_partition_column(
    batch: pa.Table, keys: list[str], num_partitions: int
) -> pa.Table:
    """Append ``__part`` = deterministic hash of the key columns mod P.

    pandas' hash_pandas_object is vectorized siphash with a fixed default
    key — identical across worker processes (unlike Python's salted hash).
    """
    import pandas as pd

    h = pd.util.hash_pandas_object(
        batch.select(keys).to_pandas(), index=False
    ).to_numpy()
    return batch.append_column(
        "__part", pa.array((h % num_partitions).astype(np.int64))
    )


def _merge_partitioned(
    parts: "ray.data.Dataset",
    keys: list[str],
    final_merge,
    num_partitions: int,
) -> "ray.data.Dataset":
    """Stage 2 as a real shuffle: hash-partition partials by key into P
    coarse buckets, C++-merge each bucket in its own task. P is small
    (key-disjoint buckets), so ``map_groups``' per-group dispatch is
    negligible while every actual merge stays vectorized Arrow."""

    def assign(batch: pa.Table) -> pa.Table:
        return _hash_partition_column(batch, keys, num_partitions)

    def merge_group(tbl: pa.Table) -> pa.Table:
        return final_merge(tbl.drop_columns(["__part"]))

    return (
        parts.map_batches(assign, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(merge_group, batch_format="pyarrow")
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
    distribute_threshold: int = DISTRIBUTE_MERGE_THRESHOLD,
    num_merge_partitions: int = 32,
) -> "ray.data.Dataset":
    """Two-level grouped aggregate on pyarrow's C++ group_by.

    Ray's built-in ``groupby().aggregate()`` finalizes per group in Python
    (measured 34s for 1.7M rows / 200k groups vs 0.4s in a C++ engine);
    this helper does the combiner pattern instead: each block partial-
    aggregates via ``pa.Table.group_by`` (stage 1, parallel, vectorized).
    Stage 2 auto-switches on partial size: below ``distribute_threshold``
    rows the partials are merged once on the driver (fastest at test
    scale); above it they are hash-shuffled by key into
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
    if parts.count() > distribute_threshold:
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
    distribute_threshold: int = DISTRIBUTE_MERGE_THRESHOLD,
    num_merge_partitions: int = 32,
) -> "ray.data.Dataset":
    """Exact distinct on key columns: per-block C++ distinct, then one
    final distinct (same two-stage shape + auto-switch as
    fast_grouped_agg: driver merge when partials are small, hash shuffle
    + per-partition distinct when they are not)."""

    def partial(batch: pa.Table) -> pa.Table:
        return batch.select(keys).group_by(keys).aggregate([])

    def final_merge(tbl: pa.Table) -> pa.Table:
        return tbl.group_by(keys).aggregate([])

    parts = ds.map_batches(partial, batch_format="pyarrow").materialize()
    if parts.count() > distribute_threshold:
        return _merge_partitioned(
            parts, keys, final_merge, num_merge_partitions
        )
    from ray.data import from_arrow

    tbl = collect_table(parts)
    if tbl.num_columns == 0:
        return from_arrow(_empty_like(ds, keys, {}, None))
    return from_arrow(final_merge(tbl))
