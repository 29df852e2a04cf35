"""JSONL document ingestion/export — the interchange format of LLM
training-data pipelines (one JSON object per line, e.g. Dolma/RedPajama
layouts). Complements the reference's 3-CSV conformance I/O (S1-S4) and
the Parquet tables: the same ``documents`` schema flows through either
format.

Scale shape: ``ray.data.read_json`` streams line-blocks in parallel
(files shard naturally by line); schema is normalized to the engine's
documents contract with one vectorized ``map_batches`` (missing columns
null-filled and cast, extras preserved or dropped). Writes shard into
one file per block via ``write_json`` — never one giant file.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

# the engine's documents-table contract (TESTDATA.md)
DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


def read_documents_jsonl(
    paths: "str | list[str]",
    keep_extra_columns: bool = False,
) -> ray.data.Dataset:
    """Read JSONL documents and normalize to the ``documents`` schema:
    missing contract columns are null-filled (``n_chars`` computed from
    ``text`` when absent), ints cast to int64, extras dropped unless
    ``keep_extra_columns``. One vectorized pass; no per-row Python."""

    def normalize(t: pa.Table) -> pa.Table:
        cols: dict[str, pa.ChunkedArray | pa.Array] = {}
        for field in DOCUMENTS_SCHEMA:
            if field.name in t.column_names:
                c = t[field.name]
                cols[field.name] = (
                    c if c.type == field.type else c.cast(field.type)
                )
            elif field.name == "n_chars" and "text" in t.column_names:
                cols["n_chars"] = pa.compute.utf8_length(
                    pa.compute.fill_null(t["text"], "")
                ).cast(pa.int64())
            else:
                cols[field.name] = pa.nulls(t.num_rows, type=field.type)
        if keep_extra_columns:
            for name in t.column_names:
                if name not in cols:
                    cols[name] = t[name]
        return pa.table(cols)

    # partitioning=None: the documents contract lives in the rows, so a
    # hive-style directory name (``lang=en/``) must not inject columns.
    # It also keeps the read tasks off Ray's lazy ``import fsspec`` (done
    # by the hive path parser inside each task): ``schema()`` cancels the
    # in-flight read tasks once it has one block, and a cancel landing in
    # a worker's first ``import fsspec`` leaves fsspec half-initialized in
    # that worker, so every later file read there fails with
    # "partially initialized module 'fsspec' has no attribute 'utils'".
    return ray.data.read_json(paths, partitioning=None).map_batches(
        normalize, batch_format="pyarrow"
    )


def write_documents_jsonl(ds: ray.data.Dataset, out_dir: str) -> None:
    """Shard ``ds`` as JSONL files under ``out_dir`` (one per block)."""
    ds.write_json(out_dir)
