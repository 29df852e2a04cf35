"""Temporal operators (stages/temporal.py): as-of join, range join,
sessionization — pandas oracles, partition invariance, edge cases."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.stages.temporal import (
    asof_join,
    range_join,
    rolling_window,
    sessionize,
)


def _ds(df: pd.DataFrame) -> ray.data.Dataset:
    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df.sort_values(sorted(df.columns))
        .reset_index(drop=True)[sorted(df.columns)]
    )


@pytest.fixture(scope="module")
def event_frames():
    rng = np.random.default_rng(7)
    n = 400
    left = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 12, n).astype(np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10_000, n), unit="m"),
        }
    )
    m = 60
    right = pd.DataFrame(
        {
            "user_id": rng.integers(0, 12, m).astype(np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10_000, m), unit="m"),
            "mark_id": np.arange(m, dtype=np.int64) + 1000,
        }
    ).drop_duplicates(["user_id", "ts"])
    return left, right


def _asof_oracle(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    l = left.sort_values("ts", kind="mergesort")
    r = right.sort_values("ts", kind="mergesort")
    m = pd.merge_asof(l, r, on="ts", by="user_id", direction="backward")
    m = m[m["mark_id"].notna()].copy()
    m["mark_id"] = m["mark_id"].astype(np.int64)
    return m


def test_asof_join_matches_pandas_oracle(event_frames):
    left, right = event_frames
    got = asof_join(_ds(left), _ds(right), key="user_id", ts="ts").to_pandas()
    exp = _asof_oracle(left, right)
    assert len(got) > 0
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))


def test_asof_join_partition_invariant(event_frames):
    left, right = event_frames
    a = asof_join(
        _ds(left), _ds(right), key="user_id", ts="ts", num_partitions=1
    ).to_pandas()
    b = asof_join(
        _ds(left), _ds(right), key="user_id", ts="ts", num_partitions=8
    ).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_asof_join_exact_ts_match_included(event_frames):
    """ts' == ts counts as at-or-before (>= semantics, like DuckDB ASOF)."""
    left = pd.DataFrame(
        {
            "event_id": np.array([0], dtype=np.int64),
            "user_id": np.array([5], dtype=np.int64),
            "ts": [pd.Timestamp("2024-02-01 10:00:00")],
        }
    )
    right = pd.DataFrame(
        {
            "user_id": np.array([5], dtype=np.int64),
            "ts": [pd.Timestamp("2024-02-01 10:00:00")],
            "mark_id": np.array([77], dtype=np.int64),
        }
    )
    got = asof_join(_ds(left), _ds(right), key="user_id", ts="ts").to_pandas()
    assert got["mark_id"].tolist() == [77]


def test_asof_join_unmatched_left_rows_drop():
    left = pd.DataFrame(
        {
            "event_id": np.array([0, 1], dtype=np.int64),
            "user_id": np.array([1, 2], dtype=np.int64),
            "ts": pd.to_datetime(["2024-01-05", "2024-01-05"]),
        }
    )
    right = pd.DataFrame(
        {
            "user_id": np.array([1, 2], dtype=np.int64),
            # user 1's mark is AFTER the event; user 2's is before
            "ts": pd.to_datetime(["2024-01-09", "2024-01-02"]),
            "mark_id": np.array([10, 20], dtype=np.int64),
        }
    )
    got = asof_join(_ds(left), _ds(right), key="user_id", ts="ts").to_pandas()
    assert got["event_id"].tolist() == [1]
    assert got["mark_id"].tolist() == [20]


def test_range_join_matches_bruteforce(event_frames):
    left, right = event_frames
    l = left.rename(columns={"ts": "lts"})
    width = pd.Timedelta(hours=6)
    got = range_join(
        _ds(l),
        _ds(right),
        key="user_id",
        left_ts="lts",
        right_ts="ts",
        width=width,
        inclusive="right",
    ).to_pandas()
    m = l.merge(right, on="user_id", how="inner")
    delta = m["ts"] - m["lts"]
    exp = m[(delta > pd.Timedelta(0)) & (delta <= width)]
    assert len(got) > 0
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))


@pytest.mark.parametrize("inclusive", ["neither", "left", "right", "both"])
def test_range_join_closures_numeric(inclusive):
    """Numeric ts columns: band endpoints respect the closure exactly."""
    left = pd.DataFrame(
        {"k": np.array([1], dtype=np.int64), "lt": np.array([10.0])}
    )
    right = pd.DataFrame(
        {
            "k": np.array([1, 1, 1, 1], dtype=np.int64),
            "rt": np.array([10.0, 11.0, 15.0, 16.0]),
            "rid": np.array([0, 1, 2, 3], dtype=np.int64),
        }
    )
    got = range_join(
        _ds(left),
        _ds(right),
        key="k",
        left_ts="lt",
        right_ts="rt",
        width=5.0,
        inclusive=inclusive,
    ).to_pandas()
    expected = {
        "neither": [1],
        "left": [0, 1],
        "right": [1, 2],
        "both": [0, 1, 2],
    }[inclusive]
    assert sorted(got["rid"].tolist()) == expected


def test_sessionize_matches_bruteforce(event_frames):
    left, _ = event_frames
    gap = pd.Timedelta(minutes=45)
    got = sessionize(
        _ds(left), key="user_id", ts="ts", gap=gap, tiebreak="event_id"
    ).to_pandas()
    # brute-force oracle: per user, walk sorted events
    exp_rows = []
    for uid, g in left.sort_values(["ts", "event_id"]).groupby("user_id"):
        idx = 0
        prev = None
        for _, row in g.iterrows():
            if prev is None or (row["ts"] - prev) > gap:
                idx += 1
            exp_rows.append((row["event_id"], uid, row["ts"], idx))
            prev = row["ts"]
    exp = pd.DataFrame(
        exp_rows, columns=["event_id", "user_id", "ts", "session_idx"]
    ).astype({"event_id": np.int64, "user_id": np.int64, "session_idx": np.int64})
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))
    # 1-based contiguous per key
    assert got.groupby("user_id")["session_idx"].min().eq(1).all()


def test_sessionize_partition_invariant(event_frames):
    left, _ = event_frames
    gap = pd.Timedelta(minutes=45)
    a = sessionize(
        _ds(left), key="user_id", ts="ts", gap=gap, num_partitions=1
    ).to_pandas()
    b = sessionize(
        _ds(left), key="user_id", ts="ts", gap=gap, num_partitions=16
    ).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_sessionize_gap_boundary_is_strict():
    """Gap exactly equal to the threshold does NOT split (> semantics)."""
    ev = pd.DataFrame(
        {
            "event_id": np.array([0, 1, 2], dtype=np.int64),
            "user_id": np.array([1, 1, 1], dtype=np.int64),
            "ts": pd.to_datetime(
                ["2024-01-01 00:00", "2024-01-01 00:30", "2024-01-01 01:01"]
            ),
        }
    )
    got = (
        sessionize(_ds(ev), key="user_id", ts="ts", gap=pd.Timedelta(minutes=30))
        .to_pandas()
        .sort_values("event_id")
    )
    assert got["session_idx"].tolist() == [1, 1, 2]


def test_rolling_window_matches_duckdb_range_frame(event_frames):
    import duckdb

    left, _ = event_frames
    df = left.assign(value=np.arange(len(left), dtype=np.float64) % 17)
    uniq = (
        df.groupby(["user_id", "ts"], as_index=False)["value"]
        .sum()
        .rename(columns={"value": "v"})
    )
    got = (
        rolling_window(
            ray.data.from_pandas(uniq).repartition(5),
            "user_id",
            "ts",
            "v",
            pd.Timedelta(minutes=45),
        )
        .to_pandas()
        .sort_values(["user_id", "ts"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """
        SELECT user_id, ts, v,
               SUM(v) OVER w AS v_roll_sum,
               COUNT(v) OVER w::DOUBLE AS v_roll_count
        FROM uniq
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 45 MINUTES PRECEDING
                     AND CURRENT ROW)
        ORDER BY user_id, ts
        """
    ).df()
    assert np.allclose(got.v_roll_sum, want.v_roll_sum)
    assert (got.v_roll_count == want.v_roll_count).all()


def test_rolling_window_partition_invariant(event_frames):
    left, _ = event_frames
    df = left.assign(value=np.arange(len(left), dtype=np.float64) % 13)
    uniq = (
        df.groupby(["user_id", "ts"], as_index=False)["value"]
        .sum()
        .rename(columns={"value": "v"})
    )
    outs = []
    for parts in (1, 7):
        outs.append(
            rolling_window(
                ray.data.from_pandas(uniq).repartition(parts),
                "user_id",
                "ts",
                "v",
                pd.Timedelta(minutes=30),
                num_partitions=3,
            )
            .to_pandas()
            .sort_values(["user_id", "ts"])
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_rolling_window_numeric_ts():
    df = pd.DataFrame(
        {"k": [1, 1, 1, 2], "t": [0.0, 5.0, 11.0, 3.0], "v": [1.0, 2.0, 4.0, 8.0]}
    )
    got = (
        rolling_window(
            ray.data.from_pandas(df), "k", "t", "v", 5.0, num_partitions=2
        )
        .to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    # windows: [0], [0,5], [11-5=6..11] -> only 11; k=2: [3]
    assert got.v_roll_sum.tolist() == [1.0, 3.0, 4.0, 8.0]
    assert got.v_roll_count.tolist() == [1.0, 2.0, 1.0, 1.0]


def test_rolling_window_rejects_duplicate_key_ts():
    df = pd.DataFrame(
        {
            "k": [1, 1],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-01"]),
            "v": [1.0, 2.0],
        }
    )
    with pytest.raises(Exception):
        rolling_window(
            ray.data.from_pandas(df), "k", "ts", "v", pd.Timedelta(hours=1)
        ).to_pandas()


@pytest.mark.parametrize(
    "big", [(1 << 53) + 1, (1 << 60) + 1347], ids=["2^53+1", "2^60+1347"]
)
@pytest.mark.parametrize("join", ["asof", "range"])
def test_temporal_joins_exact_int64_and_null_keys(join, big):
    """int64 payloads past 2^53 come back exact from both joins (each side
    is its own typed table; only key, time and row numbers go through
    pandas), and a NULL key on either side never matches."""
    left = pa.table(
        {
            "k": pa.array([1, None, 2, None], pa.int64()),
            "ts": pa.array([10, 10, 20, 30], pa.int64()),
            "event_id": pa.array([big, big + 1, big + 2, big + 3], pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, None, 2], pa.int64()),
            "rts": pa.array(
                [5, 5, 25] if join == "asof" else [12, 12, 25], pa.int64()
            ),
            "rv": pa.array([big + 10, big + 11, big + 12], pa.int64()),
        }
    )
    lds = ray.data.from_arrow(left)
    if join == "asof":
        rds = ray.data.from_arrow(right.rename_columns(["k", "ts", "rv"]))
        out = asof_join(lds, rds, "k", "ts", num_partitions=3)
        want = {"k": [1], "ts": [10], "event_id": [big], "rv": [big + 10]}
    else:
        rds = ray.data.from_arrow(right)
        out = range_join(lds, rds, "k", "ts", "rts", 10, num_partitions=3)
        want = {
            "k": [1, 2],
            "ts": [10, 20],
            "event_id": [big, big + 2],
            "rts": [12, 25],
            "rv": [big + 10, big + 12],
        }
    got = pa.concat_tables(ray.get(out.to_arrow_refs())).sort_by("ts")
    assert got.to_pydict() == want
    assert set(got.schema.types) == {pa.int64()}


def test_rolling_window_null_key_single_partition():
    """A null key forms ONE group (SQL PARTITION BY semantics) and must
    not crash the in-bucket kernel with a length mismatch."""
    t = pa.table(
        {
            "k": pa.array([1, None, None, 1], pa.int64()),
            "ts": pa.array([1, 2, 5, 3], pa.int64()),
            "v": pa.array([1.0, 10.0, 20.0, 2.0]),
        }
    )
    out = (
        rolling_window(ray.data.from_arrow(t), "k", "ts", "v", 10)
        .to_pandas()
        .sort_values(["ts"])
    )
    nulls = out[out["k"].isna()].sort_values("ts")
    # both null-key rows share a window: second row sums both values
    assert nulls["v_roll_sum"].tolist() == [10.0, 30.0]


def test_sessionize_null_keys_share_partition():
    t = pa.table(
        {
            "k": pa.array([None, None, 7], pa.int64()),
            "ts": pa.array([1, 100, 1], pa.int64()),
        }
    )
    out = sessionize(ray.data.from_arrow(t), "k", "ts", gap=10).to_pandas()
    nulls = out[out["k"].isna()].sort_values("ts")
    # one NULL partition: the 99-gap splits it into sessions 1 and 2
    assert nulls["session_idx"].tolist() == [1, 2]


def test_lag_lead_matches_duckdb(event_frames):
    import duckdb

    from citationgraphs_ray.stages.temporal import lag_lead

    left, _ = event_frames
    df = left.drop_duplicates(["user_id", "ts"]).copy()
    df["value"] = df["event_id"].astype(np.float64) * 1.5
    got = (
        lag_lead(_ds(df), "user_id", "ts", "value", lags=(1, 2), leads=(1,))
        .to_pandas()
        .sort_values(["user_id", "ts"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        """SELECT user_id, ts, value,
                  LAG(value) OVER w AS value_lag1,
                  LAG(value, 2) OVER w AS value_lag2,
                  LEAD(value) OVER w AS value_lead1
           FROM df WINDOW w AS (PARTITION BY user_id ORDER BY ts)
           ORDER BY user_id, ts"""
    ).df()
    for c in ("value_lag1", "value_lag2", "value_lead1"):
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.allclose(a[~np.isnan(a)], b[~np.isnan(b)])


def test_lag_lead_rejects_duplicate_key_ts():
    from citationgraphs_ray.stages.temporal import lag_lead

    df = pd.DataFrame(
        {
            "user_id": [1, 1],
            "ts": [pd.Timestamp("2024-01-01")] * 2,
            "value": [1.0, 2.0],
        }
    )
    with pytest.raises(Exception, match="unique-"):
        lag_lead(_ds(df), "user_id", "ts", "value").materialize()


def test_chunk_dedup_signal():
    from citationgraphs_ray.stages.text import chunk_dedup_signal

    shared = " ".join(f"tok{i}" for i in range(10))  # one exact 10-token chunk
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": [
                shared + " unique tail alpha beta gamma",
                shared + " other tail delta epsilon zeta",
                "entirely different words " * 4,
            ],
        }
    )
    got = (
        chunk_dedup_signal(_ds(docs), chunk_tokens=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # docs 0/1 share exactly their first chunk; doc 2 shares nothing
    assert got.n_chunks.tolist() == [2, 2, 2]
    assert got.dup_chunks.tolist() == [1, 1, 0]
    assert got.dup_chunk_frac.tolist() == [0.5, 0.5, 0.0]


def test_chunk_dedup_signal_tokenizes_like_sql_twin():
    """Single-space split keeping empty tokens, as the twin's
    string_split(lower(text), ' '): tabs stay inside tokens, a double
    space is an empty token, an empty doc is one '' chunk, and a NULL doc
    yields no row."""
    import duckdb

    from citationgraphs_ray.pipelines.queries import ORACLE_SQL
    from citationgraphs_ray.stages.text import chunk_dedup_signal

    documents = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "a\tb c d e f g h i j k",
                "A\tB c d e f g h i j k",
                "a b  c d e f g h i j",
                "",
                "",
                None,
            ],
        }
    )
    got = (
        chunk_dedup_signal(_ds(documents), chunk_tokens=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        duckdb.sql(ORACLE_SQL["chunk_dedup_signal"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.doc_id.tolist() == want.doc_id.tolist() == [0, 1, 2, 3, 4]
    assert got.n_chunks.tolist() == want.n_chunks.tolist() == [1, 1, 2, 1, 1]
    assert got.dup_chunks.tolist() == want.dup_chunks.tolist() == [1, 1, 0, 1, 1]
    assert got.dup_chunk_frac.tolist() == want.dup_chunk_frac.tolist()


def test_rank_in_group_matches_duckdb_with_ties():
    import duckdb

    from citationgraphs_ray.stages.temporal import rank_in_group

    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 1, 2, 2, 3],
            "v": [10.0, 10.0, 20.0, 30.0, 5.0, 5.0, 7.0],
            "rid": np.arange(7, dtype=np.int64),
        }
    )
    got = (
        rank_in_group(_ds(df), "k", "v")
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        """SELECT rid, RANK() OVER w AS rank, DENSE_RANK() OVER w AS dense_rank,
                  PERCENT_RANK() OVER w AS percent_rank
           FROM df WINDOW w AS (PARTITION BY k ORDER BY v) ORDER BY rid"""
    ).df()
    assert got["rank"].tolist() == exp["rank"].tolist()
    assert got.dense_rank.tolist() == exp.dense_rank.tolist()
    assert np.allclose(got.percent_rank, exp.percent_rank)
    # single-row key: percent_rank 0 (the ANSI n=1 convention)
    assert got.loc[got.rid == 6, "percent_rank"].iloc[0] == 0.0


def test_path_aggregate_order_and_ties():
    from citationgraphs_ray.stages.temporal import path_aggregate

    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 2],
            "t": [3, 1, 1, 9],
            "v": ["c", "b", "a", "z"],
        }
    )
    got = (
        path_aggregate(_ds(df), "k", "t", "v", sep="|")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # t=1 tie broken by value: a before b
    assert got.path.tolist() == ["a|b|c", "z"]
    assert got.n_steps.tolist() == [3, 1]


def test_path_aggregate_null_values_match_sql_twin():
    """NULL values are skipped as by string_agg, count(*) still counts
    their rows, and an all-NULL group gets a NULL path."""
    import duckdb

    from citationgraphs_ray.pipelines.queries import ORACLE_SQL
    from citationgraphs_ray.stages.temporal import path_aggregate

    events = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2, 2, 3, 3],
            "ts": [1, 2, 2, 1, 2, 5, 5],
            "event_type": ["a", None, "b", None, None, "c", None],
        }
    )
    got = (
        path_aggregate(_ds(events), "user_id", "ts", "event_type", sep="->")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want = (
        duckdb.sql(ORACLE_SQL["user_event_paths"])
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert got["n_steps"].tolist() == want["n_steps"].tolist() == [3, 2, 2]
    assert got["path"].tolist() == ["a->b", None, "c"]
    assert want["path"].where(want["path"].notna(), None).tolist() == [
        "a->b", None, "c",
    ]


def test_rank_in_group_rejects_null_order_values():
    from citationgraphs_ray.stages.temporal import rank_in_group

    df = pd.DataFrame({"k": [1, 1], "v": [1.0, np.nan]})
    with pytest.raises(Exception, match="null order"):
        rank_in_group(_ds(df), "k", "v").materialize()
