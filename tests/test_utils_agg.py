"""fast_grouped_agg / fast_distinct: distributed stage-2 merge must equal
the driver merge byte-for-byte, and empty inputs keep the input schema."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.utils import fast_distinct, fast_grouped_agg


def _fixture_ds(n=5000, blocks=8):
    rng = np.random.default_rng(7)
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 300, n), type=pa.int64()),
            "g": pa.array(
                [f"g{int(x)}" for x in rng.integers(0, 5, n)], type=pa.string()
            ),
            "v": pa.array(rng.normal(size=n)),
        }
    )
    return ray.data.from_arrow(tbl).repartition(blocks)


def _sorted_df(ds, cols):
    return (
        ds.to_pandas().sort_values(cols).reset_index(drop=True).round(9)
    )


def test_distributed_merge_equals_driver_merge():
    ds = _fixture_ds()
    kwargs = dict(aggs={"total": ("v", "sum"), "vmax": ("v", "max")}, count_as="n")
    driver = fast_grouped_agg(ds, ["k", "g"], **kwargs)
    dist = fast_grouped_agg(
        ds, ["k", "g"], distribute_threshold=0, num_merge_partitions=5, **kwargs
    )
    a = _sorted_df(driver, ["k", "g"])
    b = _sorted_df(dist, ["k", "g"])[a.columns]
    assert a.equals(b)
    assert a.n.sum() == 5000


def test_distributed_distinct_equals_driver_distinct():
    ds = _fixture_ds()
    a = _sorted_df(fast_distinct(ds, ["k", "g"]), ["k", "g"])
    b = _sorted_df(
        fast_distinct(ds, ["k", "g"], distribute_threshold=0), ["k", "g"]
    )[["k", "g"]]
    assert a[["k", "g"]].equals(b)


def test_empty_input_preserves_key_schema():
    empty = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([], type=pa.int64()),
                "v": pa.array([], type=pa.float64()),
            }
        )
    )
    out = fast_grouped_agg(empty, ["k"], {"s": ("v", "sum")}, count_as="n")
    tbl = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")]
        or [pa.table({})]
    )
    if tbl.num_columns:  # non-degenerate: check types
        assert tbl.schema.field("k").type == pa.int64()
        assert tbl.schema.field("s").type == pa.float64()
        assert tbl.schema.field("n").type == pa.int64()
    else:
        sch = out.schema()
        types = dict(zip(sch.names, sch.types))
        assert types["k"] == pa.int64()
        assert types["n"] == pa.int64()


def test_empty_after_filter_preserves_schema():
    ds = _fixture_ds(100).filter(expr="k < 0")  # filters everything
    out = fast_distinct(ds, ["k"])
    sch = out.schema()
    types = dict(zip(sch.names, sch.types))
    assert types["k"] == pa.int64()


def test_semi_anti_join_partition_and_complement():
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from citationgraphs_ray.utils import bucketed_anti_join, bucketed_semi_join

    rng = np.random.default_rng(13)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 50, 300).astype(np.int64),
            "payload": rng.integers(0, 10**12, 300).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {"k": rng.choice(50, 20, replace=False).astype(np.int64)}
    )
    # right multiplicity must not duplicate semi rows
    right = pd.concat([right, right, right])
    lds = ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False))
    rds = ray.data.from_arrow(pa.Table.from_pandas(right, preserve_index=False))

    semi = bucketed_semi_join(lds, rds, ["k"]).to_pandas()
    anti = bucketed_anti_join(lds, rds, ["k"]).to_pandas()
    member = left.k.isin(set(right.k))
    assert len(semi) == int(member.sum())
    assert len(anti) == int((~member).sum())
    # exact complement, payloads intact (int64 not float-rounded)
    both = pd.concat([semi, anti]).sort_values(["k", "payload"])
    exp = left.sort_values(["k", "payload"])
    assert np.array_equal(both.k.to_numpy(), exp.k.to_numpy())
    assert np.array_equal(both.payload.to_numpy(), exp.payload.to_numpy())
    assert both.payload.dtype == np.int64
    # partition invariance
    semi7 = bucketed_semi_join(lds, rds, ["k"], num_partitions=7).to_pandas()
    assert sorted(semi7.payload) == sorted(semi.payload)


def test_semi_anti_join_null_keys_never_match():
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from citationgraphs_ray.utils import bucketed_anti_join, bucketed_semi_join

    left = pa.table(
        {"k": pa.array([1, None, 3], type=pa.int64()), "p": [10, 20, 30]}
    )
    right = pa.table({"k": pa.array([1, None], type=pa.int64())})
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    semi = bucketed_semi_join(lds, rds, ["k"]).to_pandas()
    anti = bucketed_anti_join(lds, rds, ["k"]).to_pandas()
    # SQL EXISTS: NULL = NULL is not a match
    assert semi.p.tolist() == [10]
    assert sorted(anti.p.tolist()) == [20, 30]


@pytest.mark.parametrize("join", ["inner", "semi", "anti"])
def test_joins_round_trip_2_53_plus_1(join):
    """Keys and payloads past 2^53 come back exact: each side reaches the
    in-bucket join as its own typed table. (A float hop rounds 2^53+1 to
    2^53, which would also match the right side's 2^53 key.)"""
    from citationgraphs_ray import utils

    big = (1 << 53) + 1
    left = pa.table(
        {"k": pa.array([big, 2], pa.int64()),
         "payload": pa.array([big, big + 2], pa.int64())}
    )
    right = pa.table(
        {"k": pa.array([big, 1 << 53, 3], pa.int64()),
         "r": pa.array([big + 4, 7, 6], pa.int64())}
    )
    fn = getattr(utils, f"bucketed_{join}_join")
    out = utils.collect_table(
        fn(
            ray.data.from_arrow(left), ray.data.from_arrow(right), ["k"],
            num_partitions=1,
        )
    )
    assert out.to_pydict() == {
        "inner": {"k": [big], "payload": [big], "r": [big + 4]},
        "semi": {"k": [big], "payload": [big]},
        "anti": {"k": [2], "payload": [big + 2]},
    }[join]
    assert set(out.schema.types) == {pa.int64()}


def test_semi_join_round_trips_int64_beyond_2_53():
    from citationgraphs_ray.utils import bucketed_semi_join, collect_table

    big = (1 << 60) + 1347  # 2^60+1280 after a float hop
    left = pa.table(
        {"k": pa.array([1, 2], type=pa.int64()),
         "payload": pa.array([big, 5], type=pa.int64())}
    )
    right = pa.table({"k": pa.array([1], type=pa.int64())})
    out = bucketed_semi_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), ["k"]
    )
    assert collect_table(out).to_pydict() == {"k": [1], "payload": [big]}


@pytest.mark.parametrize("dtype", ["int8", "int32", "int64", "uint16", "float32", "float64"])
def test_numpy_column_and_arrow_table_round_trip(dtype):
    """The pandas-free conversions of the CSR workers equal pyarrow's own,
    across chunks, sliced chunks and empty ones."""
    from citationgraphs_ray.utils import arrow_table, numpy_column

    a = (np.arange(40) * 3 - 7).astype(dtype)
    col = pa.chunked_array(
        [pa.array(a[:10]), pa.array(a[10:25]).slice(4), pa.array(a[:0]), pa.array(a[25:])]
    )
    got = numpy_column(col)
    assert got.dtype == np.dtype(dtype)
    assert np.array_equal(got, col.to_numpy())
    assert numpy_column(pa.chunked_array([], type=col.type)).dtype == np.dtype(dtype)
    for x in (a[::3], a[:0]):  # a strided view, an empty one
        assert arrow_table({"x": x}).equals(pa.table({"x": pa.array(x)}))


def test_numpy_column_and_arrow_table_reject_what_they_cannot_copy():
    from citationgraphs_ray.utils import arrow_table, numpy_column

    with pytest.raises(ValueError, match="nulls"):
        numpy_column(pa.chunked_array([[1, None, 3]]))
    with pytest.raises(ValueError, match="integer or float"):
        numpy_column(pa.chunked_array([[True, False]]))
    with pytest.raises(ValueError, match="integer or float"):
        arrow_table({"b": np.array([True, False])})
