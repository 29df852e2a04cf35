"""Resumable partitioned-parquet sink.

The build brief's output contract at 100 TB: never one giant file, one
directory per key-range/shard, and a failed run must be able to SKIP
finished partitions on retry. ``write_partitioned`` delivers that as a
composition of the engine's own primitives:

- partition assignment is the DETERMINISTIC Fibonacci key hash
  (stages/sketches.hash_bucket) — the same row lands in the same
  partition on any cluster size, rerun, or input partitioning, which is
  what makes skip-on-retry sound;
- finished partitions are detected from their ``_SUCCESS`` markers and
  their rows are FILTERED OUT before the shuffle (a resume never pays
  the exchange for data it will not write);
- each partition directory is written by one task and marked with
  ``_SUCCESS`` only after its data file is fully written (the marker is
  the completion barrier — a crash mid-write leaves no marker and the
  partition rewrites cleanly on resume), the same manifest-last
  convention as state/checkpoints.py.

On a multi-node cluster ``out_dir`` must be shared storage (object
store / NFS), exactly like every other sink.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..stages.sketches import hash_bucket
from ..utils import collect_table, exchange

_PART_PREFIX = "part-"


def _part_dir(out_dir: str, p: int) -> str:
    return os.path.join(out_dir, f"{_PART_PREFIX}{p:05d}")


def finished_partitions(out_dir: str) -> set[int]:
    """Partition indices whose ``_SUCCESS`` marker exists."""
    done: set[int] = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if name.startswith(_PART_PREFIX) and os.path.exists(
            os.path.join(out_dir, name, "_SUCCESS")
        ):
            done.add(int(name[len(_PART_PREFIX):]))
    return done


def write_partitioned(
    ds: ray.data.Dataset,
    out_dir: str,
    key_col: str,
    num_partitions: int = 64,
    seed: int = 0,
) -> dict:
    """Write ``ds`` as ``out_dir/part-NNNNN/data.parquet`` directories
    keyed by the deterministic hash of ``key_col`` (non-negative int
    keys — the sketches hash contract). Partitions that already carry a
    ``_SUCCESS`` marker are skipped wholesale: their rows are dropped
    map-side before the shuffle, so a resume streams only the missing
    partitions' data. Returns ``{"written": [...], "skipped": [...],
    "rows_written": n}``.
    """
    os.makedirs(out_dir, exist_ok=True)
    done = finished_partitions(out_dir)
    done_ref = ray.put(
        pa.array(sorted(done), pa.int64()) if done else None
    )

    def assign(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        part = hash_bucket(keys, seed, num_partitions)
        t = t.append_column("__part", pa.array(part))
        skip = ray.get(done_ref)
        if skip is not None:
            keep = pa.compute.invert(
                pa.compute.is_in(t["__part"], value_set=skip)
            )
            t = t.filter(keep)
        return t

    def write_bucket(tbl: pa.Table | None) -> pa.Table:
        # stays in Arrow end-to-end: a pandas hop would turn nullable
        # int64 columns into float64 (schema change in the output file,
        # silent rounding beyond 2^53)
        if tbl is None:
            return pa.table(
                {"part": pa.array([], pa.int64()),
                 "rows": pa.array([], pa.int64())}
            )
        p = int(tbl["__part"][0].as_py())
        d = _part_dir(out_dir, p)
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            tbl.drop_columns(["__part"]), os.path.join(d, "data.parquet")
        )
        # marker LAST: its presence is the partition's completion barrier
        open(os.path.join(d, "_SUCCESS"), "w").close()
        return pa.table({"part": pa.array([p]), "rows": pa.array([tbl.num_rows])})

    stats = collect_table(
        exchange(
            [ds.map_batches(assign, batch_format="pyarrow")],
            lambda t, P: t["__part"].to_numpy(zero_copy_only=False),
            write_bucket,
            num_partitions,
        )
    ).to_pandas()
    return {
        "written": sorted(int(p) for p in stats["part"]),
        "skipped": sorted(done),
        "rows_written": int(stats["rows"].sum()) if len(stats) else 0,
    }


def read_partitioned(out_dir: str, **kwargs) -> ray.data.Dataset:
    """Read back a ``write_partitioned`` layout (only partitions with a
    ``_SUCCESS`` marker — half-written directories are invisible)."""
    dirs = [
        os.path.join(_part_dir(out_dir, p), "data.parquet")
        for p in sorted(finished_partitions(out_dir))
    ]
    if not dirs:
        raise FileNotFoundError(f"no finished partitions under {out_dir}")
    # the part-NNNNN directories are not hive-partitioned, but out_dir or
    # a parent of it may look so (``lang=en/``): no path-derived columns.
    # (With ``columns=`` Ray adds none unless asked, and Ray 2.49 raises
    # UnboundLocalError for ``columns=`` with ``partitioning=None``.)
    if "columns" not in kwargs:
        kwargs.setdefault("partitioning", None)
    return ray.data.read_parquet(dirs, **kwargs)
