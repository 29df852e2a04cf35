"""Multi-level grouped aggregation shapes: ROLLUP and PIVOT.

The reference's analytics surface is single-level grouped histograms
(year buckets, CitationGraphs.go:3947-3961) — a reporting pipeline over
the same tables also wants the subtotal/grand-total and wide layouts SQL
spells GROUP BY ROLLUP and PIVOT. Both are built on the combiner-style
``fast_grouped_agg``:

- :func:`rollup_aggregate` scans the input ONCE at the finest level and
  cascades the (small) grouped partials upward — sum/min/max/count all
  re-aggregate losslessly, so coarser levels never touch the raw table.
  At 100 TB that is one wide shuffle plus sketch-sized follow-ups.
- :func:`pivot_wide` aggregates on (index, category) — one shuffle whose
  reduce side is bounded by index-cardinality × category-cardinality —
  then widens per hash-bucket of the index with a vectorized pandas
  pivot; the category list is discovered from the grouped result (tiny
  by pivot's nature) or passed explicitly to skip that pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..utils import (
    _default_partitions,
    collect_table,
    exchange,
    fast_grouped_agg,
    hash_buckets,
)

_CASCADE_FN = {"sum": "sum", "min": "min", "max": "max"}


def grouping_sets_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    sets: list[list[str]],
    aggs: dict[str, tuple[str, str]] | None = None,
    count_as: str | None = None,
) -> ray.data.Dataset:
    """GROUP BY GROUPING SETS: one result row set per entry of ``sets``
    (each a subset of ``keys``), absent key columns carried as NULL.

    The raw table is scanned ONCE at the finest level (all ``keys``);
    every requested set then re-aggregates the (small) finest partials —
    sum/min/max/count cascade losslessly, means/medians are rejected. At
    scale that is one wide shuffle plus sketch-sized follow-ups per set.

    aggs: {out_col: (in_col, fn)} with fn in sum|min|max.
    """
    aggs = aggs or {}
    for out, (_, fn) in aggs.items():
        if fn not in _CASCADE_FN:
            raise ValueError(
                f"grouping_sets_aggregate: {out!r} uses {fn!r}; only "
                f"{sorted(_CASCADE_FN)} cascade losslessly across levels"
            )
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of {keys!r}")

    # count via Σ of a ones column, NOT fast_grouped_agg's count_as: the
    # latter counts non-null values of keys[0], so a NULL-key group would
    # report 0 and every coarser subtotal/grand total would undercount —
    # diverging from SQL ROLLUP/CUBE (which count rows)
    aggs_eff = dict(aggs)
    if count_as:
        aggs_eff[count_as] = ("__one", "sum")

        def add_one(t: pa.Table) -> pa.Table:
            return t.append_column(
                "__one", pa.array(np.ones(t.num_rows, dtype=np.int64))
            )

        ds = ds.map_batches(add_one, batch_format="pyarrow")

    finest = fast_grouped_agg(ds, keys, aggs_eff).materialize()
    # key types read off the materialized finest level — probing the lazy
    # input's schema would execute its upstream pipeline a second time
    fs = finest.schema()
    key_types = {k: fs.base_schema.field(k).type for k in keys}
    out_cols = list(aggs) + ([count_as] if count_as else [])

    # re-aggregation spec over the partials: counts become sums
    respec = {o: (o, _CASCADE_FN[fn]) for o, (_, fn) in aggs.items()}
    if count_as:
        respec[count_as] = (count_as, "sum")

    def normalize(level_keys: list[str]):
        """Project to the full (keys + out_cols) schema, null-filling the
        rolled-away key columns."""

        def fn(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (
                    t[k]
                    if k in level_keys
                    else pa.nulls(t.num_rows, type=key_types[k])
                )
            for c in out_cols:
                cols[c] = t[c]
            return pa.table(cols)

        return fn

    levels = []
    for s in sets:
        if set(s) == set(keys):
            g = finest
        elif s:
            g = fast_grouped_agg(finest, list(s), respec)
        else:
            const = finest.map_batches(
                lambda t: t.append_column(
                    "__all", pa.array(np.zeros(t.num_rows, dtype=np.int64))
                ),
                batch_format="pyarrow",
            )
            g = fast_grouped_agg(const, ["__all"], respec).drop_columns(
                ["__all"]
            )
        levels.append(g.map_batches(normalize(list(s)), batch_format="pyarrow"))

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def rollup_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]] | None = None,
    count_as: str | None = None,
) -> ray.data.Dataset:
    """GROUP BY ROLLUP(keys): every key prefix (finest → grand total)."""
    sets = [keys[:i] for i in range(len(keys), -1, -1)]
    return grouping_sets_aggregate(ds, keys, sets, aggs, count_as)


def cube_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]] | None = None,
    count_as: str | None = None,
) -> ray.data.Dataset:
    """GROUP BY CUBE(keys): every subset of the keys (2^k levels)."""
    sets = [
        [k for j, k in enumerate(keys) if mask & (1 << j)]
        for mask in range((1 << len(keys)) - 1, -1, -1)
    ]
    return grouping_sets_aggregate(ds, keys, sets, aggs, count_as)


def grouped_moments(
    ds: ray.data.Dataset,
    keys: list[str],
    col: str,
    assume_integral: bool = False,
) -> ray.data.Dataset:
    """Per-group count / mean / population variance in ONE combiner-style
    pass: partial (Σx, Σx², n) per block, merged by ``fast_grouped_agg``,
    moments derived at the end — the mergeable-statistic shape (no second
    pass over the data, unlike the textbook mean-then-deviations form).

    With ``assume_integral`` the sums accumulate as int64 (exact under any
    merge order — the determinism the value-hash gate needs); the caller
    asserts Σx² fits int64. Otherwise float64 partials (standard
    sum-of-squares caveat: catastrophic cancellation when stddev ≪ mean).
    Returns (keys..., n, mean, var).
    """

    def pre(t: pa.Table) -> pa.Table:
        x = t[col].to_numpy(zero_copy_only=False)
        if assume_integral:
            x = x.astype(np.int64)
        else:
            x = x.astype(np.float64)
        cols = {k: t[k] for k in keys}
        cols["__x"] = pa.array(x)
        cols["__x2"] = pa.array(x * x)
        return pa.table(cols)

    agg = fast_grouped_agg(
        ds.map_batches(pre, batch_format="pyarrow"),
        keys,
        {"sum_x": ("__x", "sum"), "sum_x2": ("__x2", "sum")},
        count_as="n",
    )

    def finish(t: pa.Table) -> pa.Table:
        s = t["sum_x"].to_numpy(zero_copy_only=False).astype(np.float64)
        s2 = t["sum_x2"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        cols = {k: t[k] for k in keys}
        cols["n"] = t["n"]
        cols["mean"] = pa.array(s / n)
        cols["var"] = pa.array((s2 - s * s / n) / n)
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_corr(
    ds: ray.data.Dataset,
    keys: list[str],
    x_col: str,
    y_col: str,
    assume_integral: bool = False,
) -> ray.data.Dataset:
    """Per-group Pearson correlation from mergeable co-moments: one
    combiner pass accumulates (Σx, Σy, Σxy, Σx², Σy², n), the population
    correlation derives at the end — the same one-scan shape as
    :func:`grouped_moments` extended to two columns.

    With ``assume_integral`` all five sums stay int64 (exact under any
    merge order); the caller asserts Σx², Σy², Σ|xy| fit int64 — scale
    wide-ranged inputs down first (e.g. dollars, not cents). Groups with
    zero variance in either column get NULL (SQL corr() convention).
    Returns (keys..., n, corr).
    """

    def pre(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        dt = np.int64 if assume_integral else np.float64
        x = x.astype(dt)
        y = y.astype(dt)
        cols = {k: t[k] for k in keys}
        cols["__x"] = pa.array(x)
        cols["__y"] = pa.array(y)
        cols["__xy"] = pa.array(x * y)
        cols["__x2"] = pa.array(x * x)
        cols["__y2"] = pa.array(y * y)
        return pa.table(cols)

    agg = fast_grouped_agg(
        ds.map_batches(pre, batch_format="pyarrow"),
        keys,
        {
            "sx": ("__x", "sum"),
            "sy": ("__y", "sum"),
            "sxy": ("__xy", "sum"),
            "sx2": ("__x2", "sum"),
            "sy2": ("__y2", "sum"),
        },
        count_as="n",
    )

    def finish(t: pa.Table) -> pa.Table:
        f = lambda c: t[c].to_numpy(zero_copy_only=False).astype(np.float64)  # noqa: E731
        sx, sy, sxy, sx2, sy2 = f("sx"), f("sy"), f("sxy"), f("sx2"), f("sy2")
        n = f("n")
        cov = sxy - sx * sy / n
        vx = sx2 - sx * sx / n
        vy = sy2 - sy * sy / n
        denom = np.sqrt(vx * vy)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > 0, cov / denom, np.nan)
        cols = {k: t[k] for k in keys}
        cols["n"] = t["n"]
        cols["corr"] = pa.array(corr)
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def pivot_wide(
    ds: ray.data.Dataset,
    index_col: str,
    col_col: str,
    val_col: str,
    agg: str = "sum",
    categories: list | None = None,
    fill: float = 0.0,
) -> ray.data.Dataset:
    """Wide pivot: one row per ``index_col``, one column per category of
    ``col_col`` holding agg(val_col), named ``{col_col}_{category}``.

    Missing (index, category) cells get ``fill``. Output columns follow
    sorted category order so the wide schema is deterministic. A NULL
    index is one output row, as in the ``GROUP BY`` twin.
    """
    grouped = fast_grouped_agg(
        ds, [index_col, col_col], {"__val": (val_col, agg)}
    ).materialize()
    if categories is None:
        cats_tbl = collect_table(
            fast_grouped_agg(grouped, [col_col], {})
        )
        # NULL categories are dropped, matching the conditional-aggregation
        # twin (CASE WHEN col = 'x' never matches NULL)
        categories = sorted(
            c for c in cats_tbl[col_col].to_pylist() if c is not None
        )
    elif any(c is None for c in categories):
        raise ValueError(
            "pivot_wide: None is not a valid category (SQL equality never "
            "matches NULL — filter or fill-null the column upstream)"
        )
    wide_cols = [f"{col_col}_{c}" for c in categories]
    # one cell type for every bucket: pandas returns float64 where a
    # bucket had cells to fill and the value type where it had none
    s = grouped.schema()
    cell_type = dict(zip(s.names, s.types))["__val"]
    if not (pa.types.is_floating(cell_type) or float(fill).is_integer()):
        cell_type = pa.float64()

    def pivot_bucket(t: pa.Table | None) -> pa.Table:
        if t is None:  # only every bucket empty keeps this output
            return pa.table({})
        # pivot on dictionary codes of the index: a NULL index gets its own
        # code, so it stays one output row as in the GROUP BY twin, and
        # int64 ids never take pandas' NaN-forced float64 hop
        enc = pc.dictionary_encode(
            t[index_col].combine_chunks(), null_encoding="encode"
        )
        df = pd.DataFrame(
            {
                "__code": enc.indices.to_numpy(zero_copy_only=False),
                col_col: t[col_col].to_pandas(),
                "__val": t["__val"].to_pandas(),
            }
        )
        # dropna=False: an index whose rows all have a NULL category still
        # gets its row (every cell ``fill``)
        w = df.pivot_table(
            index="__code",
            columns=col_col,
            values="__val",
            aggfunc=_CASCADE_FN.get(agg, "sum"),
            fill_value=fill,
            dropna=False,
        ).reindex(columns=categories, fill_value=fill)
        cols = {index_col: enc.dictionary.take(pa.array(w.index.to_numpy()))}
        for name, c in zip(wide_cols, categories):
            cols[name] = pa.array(w[c].to_numpy()).cast(cell_type)
        return pa.table(cols)

    return exchange(
        [grouped], hash_buckets([index_col]), pivot_bucket, _default_partitions()
    )
