"""Resumable partitioned sink (sources/sinks.py)."""

import os

import pyarrow as pa
import shutil

import numpy as np
import pandas as pd
import pytest
import ray.data

from citationgraphs_ray.sources.sinks import (
    finished_partitions,
    read_partitioned,
    write_partitioned,
)


def _df(n=5000):
    rng = np.random.default_rng(7)
    return pd.DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "v": rng.normal(size=n),
            "s": [f"row{i}" for i in range(n)],
        }
    )


def test_write_read_roundtrip(tmp_path):
    df = _df()
    out = str(tmp_path / "sink")
    res = write_partitioned(
        ray.data.from_pandas(df).repartition(6), out, "k", num_partitions=8
    )
    assert res["skipped"] == [] and res["rows_written"] == len(df)
    assert set(res["written"]) == finished_partitions(out)
    back = (
        read_partitioned(out).to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back, df)


def test_resume_skips_finished_partitions(tmp_path):
    df = _df()
    out = str(tmp_path / "sink")
    write_partitioned(ray.data.from_pandas(df), out, "k", num_partitions=8)
    done = sorted(finished_partitions(out))
    # simulate a crashed run: two partitions incomplete — one missing
    # entirely, one half-written (data file but NO _SUCCESS marker)
    lost, half = done[1], done[4]
    shutil.rmtree(os.path.join(out, f"part-{lost:05d}"))
    os.remove(os.path.join(out, f"part-{half:05d}", "_SUCCESS"))
    survivors = {
        p: os.path.getmtime(os.path.join(out, f"part-{p:05d}", "data.parquet"))
        for p in done
        if p not in (lost, half)
    }
    res = write_partitioned(ray.data.from_pandas(df), out, "k", num_partitions=8)
    assert sorted(res["written"]) == sorted([lost, half])
    assert sorted(res["skipped"]) == sorted(survivors)
    # untouched partitions were not rewritten
    for p, mtime in survivors.items():
        assert (
            os.path.getmtime(os.path.join(out, f"part-{p:05d}", "data.parquet"))
            == mtime
        )
    back = (
        read_partitioned(out).to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back, df)


def test_partition_assignment_is_input_invariant(tmp_path):
    df = _df(800)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_partitioned(ray.data.from_pandas(df), a, "k", num_partitions=8)
    write_partitioned(
        ray.data.from_pandas(df.sample(frac=1.0, random_state=0)).repartition(5),
        b,
        "k",
        num_partitions=8,
    )
    import pyarrow.parquet as pq

    for p in sorted(finished_partitions(a)):
        ta = (
            pq.read_table(os.path.join(a, f"part-{p:05d}", "data.parquet"))
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        tb = (
            pq.read_table(os.path.join(b, f"part-{p:05d}", "data.parquet"))
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(ta, tb)


def test_read_partitioned_empty_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_partitioned(str(tmp_path / "nope"))


def test_fully_finished_resume_is_noop(tmp_path):
    df = _df(200)
    out = str(tmp_path / "sink")
    write_partitioned(ray.data.from_pandas(df), out, "k", num_partitions=4)
    res = write_partitioned(ray.data.from_pandas(df), out, "k", num_partitions=4)
    assert res["written"] == [] and res["rows_written"] == 0
    assert res["skipped"] == [0, 1, 2, 3]


def test_write_partitioned_preserves_nullable_int64(tmp_path):
    """The write must not take a pandas hop: a nullable int64 column
    would come back float64 (and round beyond 2^53)."""
    big = (1 << 60) + 1
    t = pa.table(
        {
            "k": pa.array([0, 1, 2], pa.int64()),
            "label": pa.array([big, None, 7], pa.int64()),
        }
    )
    out = str(tmp_path / "nullable_sink")
    write_partitioned(ray.data.from_arrow(t), out, "k", num_partitions=2)
    back = read_partitioned(out).to_arrow_refs()
    import ray as _ray

    tables = pa.concat_tables(_ray.get(back))
    assert tables.schema.field("label").type == pa.int64()
    vals = {v for v in tables["label"].to_pylist()}
    assert vals == {big, None, 7}


def test_read_partitioned_ignores_hive_directory_names(tmp_path):
    """A sink under a ``lang=en`` directory reads back no ``lang`` column."""
    df = _df(200)[["k", "v"]]
    out = str(tmp_path / "lang=en" / "sink")
    write_partitioned(ray.data.from_pandas(df), out, "k", num_partitions=4)
    back = read_partitioned(out)
    assert back.schema().names == ["k", "v"]
    got = back.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, df)
