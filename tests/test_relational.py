"""ROLLUP / PIVOT operators vs DuckDB on the orders table."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.stages.relational import pivot_wide, rollup_aggregate
from citationgraphs_ray.utils import collect_table

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def orders():
    return ray.data.read_parquet(
        f"{SF}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_orderkey"],
    ).materialize()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{SF}/orders.parquet')"
    )
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.fillna({"o_orderpriority": "<null>", "o_orderstatus": "<null>"})
        .sort_values(list(df.columns))
        .reset_index(drop=True)
    )


def test_rollup_matches_sql(orders, con):
    got = rollup_aggregate(
        orders,
        ["o_orderpriority", "o_orderstatus"],
        {"max_key": ("o_orderkey", "max"), "sum_key": ("o_orderkey", "sum")},
        count_as="n",
    ).to_pandas()
    exp = con.sql(
        """SELECT o_orderpriority, o_orderstatus,
                  max(o_orderkey) AS max_key, sum(o_orderkey)::BIGINT AS sum_key,
                  count(*) AS n
           FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)"""
    ).df()
    exp["sum_key"] = exp["sum_key"].astype(np.int64)
    got, exp = _norm(got), _norm(exp[list(got.columns)])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # one grand-total row, null in every key column
    gt = got[got.o_orderpriority == "<null>"]
    assert (gt.o_orderstatus == "<null>").all()
    assert gt.n.sum() == orders.count()


def test_rollup_rejects_non_cascading_agg(orders):
    with pytest.raises(ValueError, match="cascade"):
        rollup_aggregate(
            orders, ["o_orderstatus"], {"m": ("o_orderkey", "mean")}
        )


def test_pivot_matches_sql(orders, con):
    got = (
        pivot_wide(
            orders, "o_orderpriority", "o_orderstatus", "o_orderkey", agg="sum"
        )
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    exp = con.sql(
        """SELECT o_orderpriority,
                  coalesce(sum(CASE WHEN o_orderstatus='F' THEN o_orderkey END), 0)::BIGINT AS o_orderstatus_F,
                  coalesce(sum(CASE WHEN o_orderstatus='O' THEN o_orderkey END), 0)::BIGINT AS o_orderstatus_O,
                  coalesce(sum(CASE WHEN o_orderstatus='P' THEN o_orderkey END), 0)::BIGINT AS o_orderstatus_P
           FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority"""
    ).df()
    pd.testing.assert_frame_equal(
        got[list(exp.columns)], exp, check_dtype=False
    )


def test_pivot_explicit_categories_fill():
    ds = ray.data.from_arrow(
        pa.table(
            {
                "idx": [1, 1, 2],
                "cat": ["a", "b", "a"],
                "v": [10, 20, 30],
            }
        )
    )
    got = (
        pivot_wide(ds, "idx", "cat", "v", categories=["a", "b", "zzz"], fill=0)
        .to_pandas()
        .sort_values("idx")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["idx", "cat_a", "cat_b", "cat_zzz"]
    assert got.cat_zzz.tolist() == [0, 0]
    assert got.cat_a.tolist() == [10, 30]
    assert got.cat_b.tolist() == [20, 0]


def test_grouped_moments_matches_numpy(orders):
    from citationgraphs_ray.stages.relational import grouped_moments

    got = (
        grouped_moments(
            orders, ["o_orderstatus"], "o_orderkey", assume_integral=True
        )
        .to_pandas()
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    df = orders.to_pandas()
    for _, row in got.iterrows():
        x = df.loc[
            df.o_orderstatus == row.o_orderstatus, "o_orderkey"
        ].to_numpy(dtype=np.float64)
        assert row.n == len(x)
        assert np.isclose(row["mean"], x.mean())
        assert np.isclose(row["var"], x.var())


def test_grouped_moments_partition_invariant(orders):
    from citationgraphs_ray.stages.relational import grouped_moments

    a = (
        grouped_moments(
            orders.repartition(2), ["o_orderstatus"], "o_orderkey",
            assume_integral=True,
        )
        .to_pandas()
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    b = (
        grouped_moments(
            orders.repartition(17), ["o_orderstatus"], "o_orderkey",
            assume_integral=True,
        )
        .to_pandas()
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    # exact int partials: bitwise-equal moments under any partitioning
    pd.testing.assert_frame_equal(a, b)


def test_cube_matches_sql(orders, con):
    from citationgraphs_ray.stages.relational import cube_aggregate

    got = cube_aggregate(
        orders,
        ["o_orderpriority", "o_orderstatus"],
        {"sum_key": ("o_orderkey", "sum")},
        count_as="n",
    ).to_pandas()
    exp = con.sql(
        """SELECT o_orderpriority, o_orderstatus,
                  sum(o_orderkey)::BIGINT AS sum_key, count(*) AS n
           FROM orders GROUP BY CUBE(o_orderpriority, o_orderstatus)"""
    ).df()
    exp["sum_key"] = exp["sum_key"].astype(np.int64)
    got, exp = _norm(got), _norm(exp[list(got.columns)])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # the per-status-only level exists (the set ROLLUP cannot produce)
    st_only = got[
        (got.o_orderpriority == "<null>") & (got.o_orderstatus != "<null>")
    ]
    assert len(st_only) == 3


def test_grouping_sets_rejects_non_subset(orders):
    from citationgraphs_ray.stages.relational import grouping_sets_aggregate

    with pytest.raises(ValueError, match="subset"):
        grouping_sets_aggregate(
            orders, ["o_orderstatus"], [["nope"]], {"m": ("o_orderkey", "max")}
        )


def test_grouped_corr_matches_numpy(orders):
    from citationgraphs_ray.stages.relational import grouped_corr

    df = orders.to_pandas()
    df["k2"] = (df.o_orderkey % 7).astype(np.int64)
    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    got = (
        grouped_corr(ds, ["o_orderstatus"], "o_orderkey", "k2",
                     assume_integral=True)
        .to_pandas()
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    for _, row in got.iterrows():
        sub = df[df.o_orderstatus == row.o_orderstatus]
        exp = np.corrcoef(sub.o_orderkey, sub.k2)[0, 1]
        assert np.isclose(row["corr"], exp, atol=1e-12)


def test_grouped_corr_zero_variance_is_null():
    from citationgraphs_ray.stages.relational import grouped_corr

    ds = ray.data.from_arrow(
        pa.table(
            {
                "g": ["a", "a", "b", "b"],
                "x": [1, 1, 1, 2],
                "y": [3, 4, 5, 6],
            }
        )
    )
    got = (
        grouped_corr(ds, ["g"], "x", "y", assume_integral=True)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert np.isnan(got.loc[0, "corr"])  # x constant in group a
    assert np.isclose(got.loc[1, "corr"], 1.0)


def test_rollup_counts_null_key_groups():
    from citationgraphs_ray.stages.relational import rollup_aggregate

    ds = ray.data.from_arrow(
        pa.table(
            {
                "a": ["x", None, None, "x"],
                "b": ["p", "p", "q", "q"],
                "v": [1, 2, 3, 4],
            }
        )
    )
    got = (
        rollup_aggregate(ds, ["a", "b"], {"s": ("v", "sum")}, count_as="n")
        .to_pandas()
        .fillna({"a": "<null>", "b": "<null>"})
    )
    # (NULL, NULL) appears twice, exactly as in SQL ROLLUP output: the
    # a=NULL per-a subtotal (2 rows, s=5) and the grand total (4, s=10)
    gt = got[(got.a == "<null>") & (got.b == "<null>")]
    assert sorted(zip(gt.n, gt.s)) == [(2, 5), (4, 10)]
    # NULL forms its own real group at the finest level with a true count
    nullp = got[(got.a == "<null>") & (got.b == "p")]
    assert nullp.n.tolist() == [1] and nullp.s.tolist() == [2]


def test_pivot_null_index_is_one_row_like_group_by():
    """A NULL index is its own output row (GROUP BY keeps the NULL group),
    an index whose only rows have a NULL category still gets its
    all-``fill`` row, and int64 ids beyond 2^53 stay exact."""
    big = (1 << 60) + 1
    t = pa.table(
        {
            "i": pa.array([1, None, None, 2, big, 3], pa.int64()),
            "c": ["a", "a", "b", "a", "b", None],
            "v": [10, 5, 7, 30, 1, 4],
        }
    )
    got = collect_table(pivot_wide(ray.data.from_arrow(t), "i", "c", "v"))
    assert got.schema.field("i").type == pa.int64()
    rows = sorted(
        zip(got["i"].to_pylist(), got["c_a"].to_pylist(), got["c_b"].to_pylist()),
        key=lambda r: (r[0] is None, r[0] or 0),
    )
    want = duckdb.sql(
        """SELECT i,
                  coalesce(sum(CASE WHEN c = 'a' THEN v END), 0) AS c_a,
                  coalesce(sum(CASE WHEN c = 'b' THEN v END), 0) AS c_b
           FROM t GROUP BY i ORDER BY i NULLS LAST"""
    ).fetchall()
    assert rows == [tuple(r) for r in want]
    assert rows[-1] == (None, 5, 7)
    assert (3, 0, 0) in rows and (big, 0, 1) in rows


def test_pivot_null_category_dropped_and_explicit_none_rejected():
    from citationgraphs_ray.stages.relational import pivot_wide

    ds = ray.data.from_arrow(
        pa.table(
            {"i": [1, 1, 2], "c": ["a", None, "a"], "v": [10, 99, 30]}
        )
    )
    got = pivot_wide(ds, "i", "c", "v").to_pandas().sort_values("i")
    assert list(got.columns) == ["i", "c_a"]  # NULL category not a column
    assert got.c_a.tolist() == [10, 30]
    with pytest.raises(ValueError, match="None"):
        pivot_wide(ds, "i", "c", "v", categories=["a", None])
