"""JSONL document source (sources/jsonl.py)."""

import json
import os

import pandas as pd
import pyarrow.parquet as pq
import ray.data

from citationgraphs_ray.sources.jsonl import (
    DOCUMENTS_SCHEMA,
    read_documents_jsonl,
    write_documents_jsonl,
)


def test_jsonl_roundtrip_matches_parquet_documents(tmp_path):
    # parquet documents → JSONL → read back: identical rows + schema
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    ds = ray.data.from_arrow(src).repartition(3)
    out = str(tmp_path / "docs_jsonl")
    write_documents_jsonl(ds, out)
    assert len(os.listdir(out)) >= 3  # sharded, never one giant file
    back = read_documents_jsonl(out)
    assert back.schema().names == DOCUMENTS_SCHEMA.names
    a = back.to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = src.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a[b.columns.tolist()], b)


def test_jsonl_normalizes_partial_schema(tmp_path):
    p = tmp_path / "raw.jsonl"
    rows = [
        {"doc_id": 1, "text": "hello world", "meta": "x"},
        {"doc_id": 2, "text": "", "lang": "en", "meta": "y"},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    got = read_documents_jsonl(str(p)).to_pandas().sort_values("doc_id")
    assert list(got.columns) == DOCUMENTS_SCHEMA.names
    assert got.n_chars.tolist() == [11, 0]  # computed from text
    assert got.lang.tolist()[1] == "en" and pd.isna(got.lang.tolist()[0])
    assert pd.isna(got.source).all()
    # extras preserved on request
    kept = read_documents_jsonl(str(p), keep_extra_columns=True).to_pandas()
    assert "meta" in kept.columns


def test_jsonl_ignores_hive_directory_names(tmp_path):
    # contract columns come from the rows, never from a `lang=xx/` path
    d = tmp_path / "lang=de"
    d.mkdir()
    (d / "part.jsonl").write_text(json.dumps({"doc_id": 7, "text": "hallo"}) + "\n")
    got = read_documents_jsonl(str(tmp_path)).to_pandas()
    assert list(got.columns) == DOCUMENTS_SCHEMA.names
    assert got.doc_id.tolist() == [7] and pd.isna(got.lang.tolist()[0])
