"""utils.exchange: the one hash shuffle every bucketed reduce runs on —
bucket placement, P edge cases, empty sides, block formats, key types."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.utils import (
    bucketed_inner_join,
    collect_table,
    exchange,
    hash_buckets,
)


def _blocks(ds: ray.data.Dataset) -> list[pa.Table]:
    return ray.get(ds.to_arrow_refs())


def _identity():
    # built per call: a module-level function of a test file is pickled by
    # reference, and worker processes cannot import the test module
    return lambda t: pa.table({}) if t is None else t


def _table(n: int = 200) -> pa.Table:
    rng = np.random.default_rng(3)
    return pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n), pa.int64()),
            "s": pa.array([f"key-{i % 23}" for i in range(n)]),
            "v": pa.array(np.arange(n, dtype=np.int64)),
        }
    )


@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"]])
@pytest.mark.parametrize("P", [1, 3, 8])
def test_rows_land_in_hash_pandas_object_bucket(keys, P):
    """Bucket b holds exactly the rows whose ``hash_pandas_object(keys)
    % P`` is b; the non-empty buckets come back in bucket order."""
    t = _table()
    ds = ray.data.from_arrow(t).repartition(5)
    want = (
        pd.util.hash_pandas_object(t.select(keys).to_pandas(), index=False)
        .to_numpy()
        % P
    )
    blocks = _blocks(exchange([ds], hash_buckets(keys), _identity(), P))
    buckets = sorted(set(want.tolist()))
    assert len(blocks) == len(buckets)
    for b, block in zip(buckets, blocks):
        assert sorted(block["v"].to_pylist()) == np.flatnonzero(want == b).tolist()


def test_int_keys_with_nulls_keep_their_bucket():
    """A null in a block does not move that block's other integer keys to
    another bucket (pandas would hold the column as float64)."""
    f = hash_buckets(["k"])
    clean = pa.table({"k": pa.array([1, 5, 2**60 + 1], pa.int64())})
    nulls = pa.table({"k": pa.array([1, None, 5, 2**60 + 1], pa.int64())})
    assert f(clean, 7).tolist() == [f(nulls, 7)[i] for i in (0, 2, 3)]


def test_more_buckets_than_rows():
    t = _table(5)
    out = exchange([ray.data.from_arrow(t)], hash_buckets(["k"]), _identity(), 64)
    blocks = _blocks(out)
    assert 1 <= len(blocks) <= 5
    assert sorted(collect_table(out)["v"].to_pylist()) == list(range(5))


def test_one_empty_side_reaches_reduce_as_none():
    def reduce(lt, rt):
        return pa.table(
            {
                "n": pa.array([0 if lt is None else lt.num_rows]),
                "right_none": pa.array([rt is None]),
            }
        )

    left = ray.data.from_arrow(_table(50))
    right = ray.data.from_arrow(_table(50)).filter(expr="k < 0")
    got = collect_table(exchange([left, right], hash_buckets(["k"]), reduce, 4))
    assert got.num_rows == 4  # one row per bucket
    assert sum(got["n"].to_pylist()) == 50
    assert all(got["right_none"].to_pylist())


def test_every_bucket_empty_keeps_the_typed_output():
    schema = pa.schema([("k", pa.int64()), ("n", pa.float64())])
    empty = ray.data.from_arrow(_table(10)).filter(expr="k < 0")
    out = exchange(
        [empty], hash_buckets(["k"]), lambda t: schema.empty_table(), 4
    )
    assert out.count() == 0
    assert out.schema().names == ["k", "n"]


@pytest.mark.parametrize("source", ["pandas_udf", "mixed_union"])
def test_pandas_block_input(source):
    """Pandas blocks from a pandas UDF, and a union whose first blocks are
    Arrow (``to_arrow_refs`` then returns its pandas blocks unconverted)."""
    t = _table(100)
    if source == "pandas_udf":
        ds = ray.data.from_arrow(t).map_batches(
            lambda df: df.assign(w=df["v"] * 2), batch_format="pandas"
        )
    else:
        t = t.append_column("w", pa.array(np.arange(100) * 2))
        ds = ray.data.from_arrow(t.slice(0, 40)).union(
            ray.data.from_pandas(t.slice(40).to_pandas())
        )
    for P in (1, 3):
        got = collect_table(
            exchange([ds], hash_buckets(["k"]), _identity(), P)
        ).sort_by("v")
        assert got["v"].to_pylist() == list(range(100))
        assert got["w"].to_pylist() == [2 * i for i in range(100)]


def test_string_key_join_matches_pandas_merge():
    t = _table(120)
    left = ray.data.from_arrow(t.select(["s", "v"])).repartition(3)
    right = ray.data.from_arrow(
        pa.table({"s": [f"key-{i}" for i in range(0, 30, 2)], "r": list(range(15))})
    )
    got = bucketed_inner_join(left, right, ["s"], num_partitions=5).to_pandas()
    want = t.select(["s", "v"]).to_pandas().merge(
        collect_table(right).to_pandas(), on="s"
    )
    cols = ["s", "v", "r"]
    assert got[cols].sort_values(cols).values.tolist() == (
        want[cols].sort_values(cols).values.tolist()
    )


def test_inner_join_carries_list_payloads():
    """pyarrow rejects list-typed non-key columns in a join; the in-bucket
    join carries only keys and row numbers, so list payloads pass."""
    left = pa.table(
        {
            "k": pa.array([1, 2, 2, 3], pa.int64()),
            "feat": pa.array([[1], [2, 3], [], None], pa.list_(pa.int64())),
        }
    )
    right = pa.table(
        {
            "k": pa.array([2, 3, 4], pa.int64()),
            "vec": pa.array([[0.5], [1.5, 2.5], [9.0]], pa.list_(pa.float64())),
        }
    )
    out = collect_table(
        bucketed_inner_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right), ["k"], 3
        )
    )
    assert out.schema == pa.schema(
        [("k", pa.int64()), ("feat", pa.list_(pa.int64())), ("vec", pa.list_(pa.float64()))]
    )
    rows = sorted(
        zip(*out.to_pydict().values()), key=lambda r: (r[0], len(r[1] or []))
    )
    assert rows == [
        (2, [], [0.5]),
        (2, [2, 3], [0.5]),
        (3, None, [1.5, 2.5]),
    ]
