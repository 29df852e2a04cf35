"""Temporal operators: as-of join, sessionization, banded range join.

The reference's only temporal joins are the equi-joins of year-keyed rank
tables (CitationGraphs.go:4307-4316 — T7) and the calendar-year windows of
the trend detectors (CitationGraphs.go:3870-3924); a training-data engine
needs the general event-time forms the build brief names (as-of join,
range join) as first-class operators.

All three share ONE scale shape: co-partition both sides by hash(key)
into P coarse buckets (one shuffle, bounded task dispatch — the
``utils.bucketed_inner_join`` pattern), then a fully vectorized in-bucket
kernel (``pd.merge_asof`` / sort+diff+cumsum / C-hash merge + band
filter). P bounds per-task memory; partitioning is by KEY only, so the
documented skew limit is a single hot key outgrowing one worker — split
such keys by coarse time bucket before the shuffle and merge the
per-(key, bucket) partials.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..utils import _hash_partition_column


def _default_partitions() -> int:
    return max(2, int(ray.cluster_resources().get("CPU", 8)))


def _types_of(ds: ray.data.Dataset) -> dict[str, pa.DataType]:
    s = ds.schema(fetch_if_missing=True)
    if s is None:
        raise ValueError("side has no schema (empty dataset) — guard at call site")
    return dict(zip(s.names, s.types))


def _cast_out(df: pd.DataFrame, out_cols: list[str], types: dict) -> pa.Table:
    """pandas → Arrow with source types restored (null padding during the
    tagged union turns int64 into float64; inner outputs are exact for
    values within float64's 2^53 exact-integer range). A float→int cast
    is verified LOSSLESS — int64 payloads beyond 2^53 (snowflake-style
    ids) would otherwise round silently in the float hop, so they raise
    instead."""
    arrs = {}
    for c in out_cols:
        a = pa.Array.from_pandas(df[c])
        if a.type != types[c]:
            cast = a.cast(types[c])
            if pa.types.is_floating(a.type) and pa.types.is_integer(types[c]):
                try:
                    # Arrow's int→float cast is range-checked at ±2^53,
                    # so a failed round-trip means the float hop already
                    # lost bits
                    back = cast.cast(a.type)
                    # min_count=0: an empty or all-null bucket output is
                    # trivially lossless (plain all() returns null there)
                    ok = pa.compute.all(
                        pa.compute.or_kleene(
                            pa.compute.equal(back, a), pa.compute.is_null(a)
                        ),
                        min_count=0,
                    ).as_py()
                except pa.ArrowInvalid:
                    ok = False
                if ok is not True:
                    raise ValueError(
                        f"temporal join: column {c!r} holds int64 values "
                        "beyond float64's 2^53 exact range — they would "
                        "corrupt in the null-padded union. Re-key or split "
                        "such ids before the join."
                    )
            a = cast
        arrs[c] = a
    return pa.table(arrs)


def _tagged_co_partition(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    shared: list[str],
    merge_bucket,
    num_partitions: int,
) -> ray.data.Dataset:
    """Widen both sides to one schema (null-pad the other side's columns),
    tag with ``__side``, union, hash-partition on ``key`` into P coarse
    buckets, and run ``merge_bucket(df)`` per bucket. ``shared`` columns
    exist on both sides under the same name and are not padded."""
    l_types = _types_of(left)
    r_types = _types_of(right)
    extra_l = [c for c in l_types if c not in shared]
    extra_r = [c for c in r_types if c not in shared]
    overlap = set(extra_l) & set(extra_r)
    if overlap:
        raise ValueError(f"non-shared columns must be disjoint, got {overlap}")
    types = {**l_types, **r_types}
    all_cols = shared + extra_l + extra_r

    def pad(side: int, missing: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {c: t[c] for c in t.column_names}
            for c in missing:
                cols[c] = pa.nulls(n, type=types[c])
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int64))
            return pa.table({c: cols[c] for c in all_cols + ["__side"]})

        return fn

    tagged = left.map_batches(pad(0, extra_r), batch_format="pyarrow").union(
        right.map_batches(pad(1, extra_l), batch_format="pyarrow")
    )
    return (
        tagged.map_batches(
            lambda t: _hash_partition_column(t, [key], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(
            lambda df: merge_bucket(df.drop(columns="__part")),
            batch_format="pandas",
        )
    )


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    ts: str,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Backward as-of join: for each left row, attach the right row with
    the greatest ``ts' <= ts`` for the same ``key`` (ANSI/DuckDB
    ``ASOF JOIN`` semantics, inner: unmatched left rows drop).

    Contract: the right side is unique on ``(key, ts)`` — pre-aggregate
    ties upstream (the same contract DuckDB's ASOF JOIN carries). The
    right's ``ts`` column is consumed by the match and not emitted;
    output = all left columns + the right's value columns.

    In-bucket kernel: ``pd.merge_asof(by=key, on=ts)`` — a C merge over
    both sides sorted by ``ts``. Correctness is partition-invariant
    because every (key, ts') candidate of a left row hashes to the left
    row's bucket.
    """
    l_types = _types_of(left)
    r_types = _types_of(right)
    left_cols = list(l_types)
    val_cols = [c for c in r_types if c not in (key, ts)]
    out_cols = left_cols + val_cols
    types = {**l_types, **r_types}
    if num_partitions is None:
        num_partitions = _default_partitions()

    def merge_bucket(df: pd.DataFrame) -> pa.Table:
        l = df[df["__side"] == 0][left_cols]
        r = df[df["__side"] == 1][[key, ts] + val_cols]
        if not len(l) or not len(r):
            return pa.table(
                {c: pa.array([], type=types[c]) for c in out_cols}
            )
        l = l.sort_values(ts, kind="mergesort")
        r = r.sort_values(ts, kind="mergesort").assign(__m=np.int64(1))
        m = pd.merge_asof(l, r, on=ts, by=key, direction="backward")
        m = m[m["__m"].notna()]
        return _cast_out(m, out_cols, types)

    return _tagged_co_partition(
        left, right, key, [key, ts], merge_bucket, num_partitions
    )


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    left_ts: str,
    right_ts: str,
    width,
    inclusive: str = "neither",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Banded range join: left rows matched to right rows of the same
    ``key`` whose ``right_ts`` lies in the band after ``left_ts`` of
    length ``width`` (a ``pd.Timedelta`` for timestamp columns, a number
    for numeric ones). ``inclusive`` picks the band's closure: "neither"
    = (l, l+w), "right" = (l, l+w], "left" = [l, l+w), "both" = [l, l+w].

    Output = all left columns + all right columns (names must be
    disjoint apart from ``key``). Inner semantics.

    In-bucket kernel: C-hash equi-merge on ``key`` + vectorized band
    filter. The equi-merge materializes every same-key pair inside a
    bucket before filtering — the key-skew limit documented in the
    module docstring.
    """
    l_types = _types_of(left)
    r_types = _types_of(right)
    left_cols = list(l_types)
    right_cols = [c for c in r_types if c != key]
    out_cols = left_cols + right_cols
    types = {**l_types, **r_types}
    lo_closed = inclusive in ("left", "both")
    hi_closed = inclusive in ("right", "both")
    if num_partitions is None:
        num_partitions = _default_partitions()

    def merge_bucket(df: pd.DataFrame) -> pa.Table:
        l = df[df["__side"] == 0][left_cols]
        r = df[df["__side"] == 1][[key] + right_cols]
        m = l.merge(r, on=key, how="inner")
        if len(m):
            # delta - delta is the typed zero (Timedelta(0) for timestamps,
            # 0 for numerics), so one comparison covers both column kinds
            delta = m[right_ts] - m[left_ts]
            zero = delta - delta
            lo = (delta >= zero) if lo_closed else (delta > zero)
            hi = (delta <= width) if hi_closed else (delta < width)
            m = m[lo & hi]
        return _cast_out(m, out_cols, types)

    return _tagged_co_partition(
        left, right, key, [key], merge_bucket, num_partitions
    )


def rolling_window(
    events: ray.data.Dataset,
    key: str,
    ts: str,
    value_col: str,
    window,
    aggs: tuple[str, ...] = ("sum", "count"),
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-key TIME-based sliding-window aggregates: for each row, the
    aggregate of the same key's ``value_col`` over rows with
    ``ts' ∈ [ts - window, ts]`` — ANSI ``RANGE BETWEEN <window>
    PRECEDING AND CURRENT ROW`` semantics (both ends closed; DuckDB
    parity verified in tests). ``window`` is a ``pd.Timedelta`` for
    timestamp columns or a number for numeric ones.

    Contract: rows are unique per ``(key, ts)`` — pre-aggregate ties
    upstream (the same contract as ``asof_join``; SQL peers-in-RANGE
    semantics and pandas positional windows diverge on duplicates).

    Appends ``{value_col}_roll_{agg}`` (float64) per agg. One hash
    shuffle on ``key`` into P coarse buckets; the in-bucket kernel is
    pandas' cython ``groupby(...).rolling(window, closed="both")`` —
    no per-key Python dispatch.
    """
    types = _types_of(events)
    roll_cols = [f"{value_col}_roll_{a}" for a in aggs]
    out_cols = list(types) + roll_cols
    types = {**types, **{c: pa.float64() for c in roll_cols}}
    if num_partitions is None:
        num_partitions = _default_partitions()

    def bucket(df: pd.DataFrame) -> pa.Table:
        df = df.drop(columns="__part").sort_values(
            [key, ts], kind="mergesort"
        )
        if not len(df):
            return pa.table({c: pa.array([], type=types[c]) for c in out_cols})
        dup = df.duplicated([key, ts])
        if dup.any():
            raise ValueError(
                "rolling_window: duplicate (key, ts) rows violate the "
                "unique-(key, ts) contract (SQL RANGE peers and pandas "
                "positional windows diverge) — pre-aggregate ties, e.g. "
                f"fast_grouped_agg on ({key}, {ts})"
            )
        if pd.api.types.is_datetime64_any_dtype(df[ts]):
            idx, win = pd.DatetimeIndex(df[ts]), window
        else:
            # pandas variable windows need a datetime-like index: map a
            # numeric time axis onto TimedeltaIndex nanoseconds (exact
            # for integer seconds; float values round at ns resolution)
            idx = pd.TimedeltaIndex(pd.to_timedelta(df[ts], unit="s"))
            win = pd.to_timedelta(window, unit="s")
        tmp = pd.DataFrame(
            {"k": df[key].to_numpy(), "v": df[value_col].to_numpy()},
            index=idx,
        )
        # dropna=False: a null key forms ONE group (SQL PARTITION BY
        # semantics) instead of being dropped — which would also
        # misalign the result against df's row count
        r = (
            tmp.groupby("k", sort=False, dropna=False)["v"]
            .rolling(win, closed="both")
            .agg(list(aggs))
        )
        for a, c in zip(aggs, roll_cols):
            df[c] = r[a].to_numpy()
        return _cast_out(df, out_cols, types)

    return (
        events.map_batches(
            lambda t: _hash_partition_column(t, [key], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(bucket, batch_format="pandas")
    )


def lag_lead(
    events: ray.data.Dataset,
    key: str,
    ts: str,
    value_col: str,
    lags: tuple[int, ...] = (1,),
    leads: tuple[int, ...] = (1,),
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-key LAG/LEAD: appends ``{value_col}_lag{n}`` /
    ``{value_col}_lead{n}`` (float64, NaN≡SQL NULL at partition edges),
    ordered by ``ts`` within ``key`` — ANSI
    ``LAG(v, n) OVER (PARTITION BY key ORDER BY ts)`` semantics.

    Contract: rows unique per ``(key, ts)`` (same as
    :func:`rolling_window`; SQL LAG over order-by ties is
    tie-order-dependent) — pre-aggregate ties upstream.

    One hash shuffle on ``key`` into P coarse buckets; the in-bucket
    kernel is one mergesort + cython ``groupby(...).shift`` per offset —
    no per-key Python dispatch, so P (not key cardinality) bounds task
    count and memory.
    """
    types = _types_of(events)
    shift_cols = [f"{value_col}_lag{n}" for n in lags] + [
        f"{value_col}_lead{n}" for n in leads
    ]
    out_cols = list(types) + shift_cols
    types = {**types, **{c: pa.float64() for c in shift_cols}}
    if num_partitions is None:
        num_partitions = _default_partitions()

    def bucket(df: pd.DataFrame) -> pa.Table:
        df = df.drop(columns="__part").sort_values(
            [key, ts], kind="mergesort"
        )
        if not len(df):
            return pa.table({c: pa.array([], type=types[c]) for c in out_cols})
        dup = df.duplicated([key, ts])
        if dup.any():
            raise ValueError(
                "lag_lead: duplicate (key, ts) rows violate the "
                "unique-(key, ts) contract (SQL LAG over ties is "
                "tie-order-dependent) — pre-aggregate ties, e.g. "
                f"fast_grouped_agg on ({key}, {ts})"
            )
        g = df.groupby(key, sort=False, dropna=False)[value_col]
        for n in lags:
            df[f"{value_col}_lag{n}"] = g.shift(n).to_numpy()
        for n in leads:
            df[f"{value_col}_lead{n}"] = g.shift(-n).to_numpy()
        return _cast_out(df, out_cols, types)

    return (
        events.map_batches(
            lambda t: _hash_partition_column(t, [key], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(bucket, batch_format="pandas")
    )


def rank_in_group(
    events: ray.data.Dataset,
    key: str,
    order_col: str,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-key dense ordering stats: appends ``rank`` (1-based, ANSI
    RANK() — ties share the min rank, gaps after), ``dense_rank`` and
    ``percent_rank`` ((rank-1)/(n-1), 0 for single-row keys) over
    ``order_col`` ascending within ``key``.

    Same co-partition shape as :func:`lag_lead` (one hash shuffle into P
    coarse buckets, vectorized pandas rank kernels in-bucket) — unlike
    LAG/LEAD, ties are well-defined (SQL peers), so no unique-(key,ts)
    contract is needed."""
    types = _types_of(events)
    out_cols = list(types) + ["rank", "dense_rank", "percent_rank"]
    types = {
        **types,
        "rank": pa.int64(),
        "dense_rank": pa.int64(),
        "percent_rank": pa.float64(),
    }
    if num_partitions is None:
        num_partitions = _default_partitions()

    def bucket(df: pd.DataFrame) -> pa.Table:
        df = df.drop(columns="__part").sort_values(
            [key, order_col], kind="mergesort"
        )
        if not len(df):
            return pa.table({c: pa.array([], type=types[c]) for c in out_cols})
        g = df.groupby(key, sort=False, dropna=False)[order_col]
        rank = g.rank(method="min").to_numpy()
        if np.isnan(rank).any():
            raise ValueError(
                "rank_in_group: null order values (SQL NULLS LAST vs "
                "pandas NaN-rank diverge) — filter or impute them upstream"
            )
        df["rank"] = rank.astype(np.int64)
        df["dense_rank"] = g.rank(method="dense").to_numpy().astype(np.int64)
        n = g.transform("size").to_numpy().astype(np.float64)
        df["percent_rank"] = np.where(n > 1, (rank - 1.0) / (n - 1.0), 0.0)
        return _cast_out(df, out_cols, types)

    return (
        events.map_batches(
            lambda t: _hash_partition_column(t, [key], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(bucket, batch_format="pandas")
    )


def path_aggregate(
    events: ray.data.Dataset,
    key: str,
    order_col: str,
    value_col: str,
    sep: str = "->",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-key ordered value path: ``(key, n_steps, path)`` with path =
    the ``value_col`` strings joined by ``sep`` in ``order_col`` order
    (ties broken by ``value_col`` so the result is deterministic) — the
    behavioral-sequence shape (SQL string_agg(... ORDER BY ...)).

    One hash shuffle on ``key``; the per-bucket kernel is one mergesort +
    a pandas groupby str-join (the join itself is inherent string work,
    bounded per key)."""
    types = _types_of(events)
    if num_partitions is None:
        num_partitions = _default_partitions()

    def bucket(df: pd.DataFrame) -> pa.Table:
        df = df.drop(columns="__part").sort_values(
            [key, order_col, value_col], kind="mergesort"
        )
        if not len(df):
            return pa.table(
                {
                    key: pa.array([], type=types[key]),
                    "n_steps": pa.array([], type=pa.int64()),
                    "path": pa.array([], type=pa.string()),
                }
            )
        g = df.groupby(key, sort=False, dropna=False)[value_col]
        # as string_agg: NULL values are skipped but their rows still
        # count, and a group of only NULL values has a NULL path
        agg = g.agg(
            n_steps="size",
            path=lambda s: (
                sep.join(s.dropna().astype(str)) if s.notna().any() else None
            ),
        )
        out = agg.reset_index()
        return pa.table(
            {
                key: pa.Array.from_pandas(out[key]).cast(types[key]),
                "n_steps": pa.array(
                    out["n_steps"].to_numpy().astype(np.int64)
                ),
                "path": pa.array(
                    out["path"].tolist(), type=pa.string(), from_pandas=True
                ),
            }
        )

    return (
        events.map_batches(
            lambda t: _hash_partition_column(t, [key], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(bucket, batch_format="pandas")
    )


def sessionize(
    events: ray.data.Dataset,
    key: str,
    ts: str,
    gap,
    tiebreak: str | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Append ``session_idx`` (int64, 1-based per key): a new session
    starts at a key's first event and whenever the gap to the previous
    event of the same key EXCEEDS ``gap`` (strictly greater — the SQL
    ``ts - lag(ts) > gap`` convention). ``gap`` is a ``pd.Timedelta``
    for timestamp columns or a number for numeric ones.

    Ordering within equal ``ts`` cannot change session boundaries (a
    zero gap never exceeds a non-negative ``gap``), but pass
    ``tiebreak`` (e.g. the event id) for a fully stable in-bucket sort.

    One hash shuffle on ``key`` into P coarse buckets; the in-bucket
    kernel is one sort + vectorized shift/cumsum — no per-key dispatch.
    """
    types = _types_of(events)
    out_cols = list(types) + ["session_idx"]
    types = {**types, "session_idx": pa.int64()}
    if num_partitions is None:
        num_partitions = _default_partitions()
    sort_cols = [key, ts] + ([tiebreak] if tiebreak else [])

    def bucket(df: pd.DataFrame) -> pa.Table:
        df = df.drop(columns="__part").sort_values(sort_cols, kind="mergesort")
        if not len(df):
            return pa.table({c: pa.array([], type=types[c]) for c in out_cols})
        # nulls-equal key comparison: all null-key rows form ONE run (the
        # sort places them contiguously), matching SQL PARTITION BY where
        # NULLs share a partition — plain .ne() would make every null row
        # its own session (NaN != NaN)
        prev = df[key].shift()
        new_key = ~(df[key].eq(prev) | (df[key].isna() & prev.isna()))
        # row 0's shift is NaN, which a null FIRST key would "equal" —
        # the bucket's first row always starts a run
        new_key.iloc[0] = True
        exceeded = (df[ts] - df[ts].shift()) > gap
        s = (new_key | exceeded).cumsum()
        first = s.where(new_key).ffill()
        df["session_idx"] = (s - first + 1).astype(np.int64)
        return _cast_out(df, out_cols, types)

    return (
        events.map_batches(
            lambda t: _hash_partition_column(t, [key], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("__part")
        .map_groups(bucket, batch_format="pandas")
    )
