"""Minimum slice (SURVEY.md §7.1): corpus → extract → resolve → dedup."""

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from citationgraphs_ray.corpus import generate_corpus
from citationgraphs_ray.stages import edges as edges_mod
from citationgraphs_ray.stages.edges import (
    ExtractImportEdges,
    _corpus_parquet_paths,
    dedup_edges,
    extract_edge_table,
    in_degrees,
    out_degrees,
    sha256_content,
    symmetrize_edges,
)

SOURCES = ("parquet", "blocks")


def _corpus(kind: str, tables: list, tmp_path) -> ray.data.Dataset:
    """The corpus ``tables`` as a bare read_parquet (one file per table,
    the parquet-path source) or as in-memory blocks (the block source)."""
    if kind == "blocks":
        return ray.data.from_arrow(tables)
    d = tmp_path / f"pq{len(list(tmp_path.iterdir()))}"
    d.mkdir()
    for i, t in enumerate(tables):
        pq.write_table(t, str(d / f"part-{i}.parquet"))
    ds = ray.data.read_parquet(str(d))
    assert _corpus_parquet_paths(ds)[0], "bare read_parquet must read by path"
    return ds


def _sorted(ds: ray.data.Dataset, cols: list[str]):
    return ds.to_pandas().sort_values(cols).reset_index(drop=True)


def _edge_keys(edges: ray.data.Dataset, vids: ray.data.Dataset) -> set:
    """The edge table mapped back to (src_repo, src_path, dst_repo, dst_path)."""
    id2key = {r.id: (r.repo, r.path) for r in vids.to_pandas().itertuples()}
    return {
        (*id2key[s], *id2key[d])
        for s, d in zip(*edges.to_pandas()[["src", "dst"]].T.values)
    }


def test_corpus_deterministic():
    a = generate_corpus(n_repos=10, seed=42)
    b = generate_corpus(n_repos=10, seed=42)
    assert a.table.equals(b.table)
    assert a.expected_edges == b.expected_edges
    c = generate_corpus(n_repos=10, seed=43)
    assert not a.table.equals(c.table)


def test_extraction_matches_generator_ground_truth(small_corpus, small_edges):
    assert _edge_keys(*small_edges) == small_corpus.expected_edges


def test_resolve_hashed_collision_guard_raises():
    """A duplicated (h1, h2) pair in the vertex map must trip the guard
    fused into pass-1's reduce tasks (same-h1 rows share a bucket, so
    per-bucket adjacent-duplicate detection IS the global check)."""
    from citationgraphs_ray.stages.edges import (
        _EH_SCHEMA,
        _VertexHashCollision,
        _bucket_on,
        _bucket_slices,
        _resolve_hashed,
    )

    vh = pa.table(
        {
            "h1": pa.array([1, 1, 2], type=pa.int64()),
            "h2": pa.array([5, 5, 6], type=pa.int32()),
            "id": pa.array([0, 1, 2], type=pa.int64()),
        }
    )
    eh = pa.table(
        {
            "s1": pa.array([1], type=pa.int64()),
            "s2": pa.array([5], type=pa.int32()),
            "d1": pa.array([2], type=pa.int64()),
            "d2": pa.array([6], type=pa.int32()),
        }
    )
    l1 = [[ray.put(t) for t in _bucket_slices(eh, _bucket_on("s1"), 4, _EH_SCHEMA)]]
    with pytest.raises(_VertexHashCollision):
        _resolve_hashed(l1, [ray.put(vh)], 4)


def _check_collision_fallback(kind, small_corpus, tmp_path, monkeypatch):
    """Force the hashed resolve to report a collision: the exact string
    join must still produce the generator's edges, on the ids the mint
    already produced."""

    def always_collide(*a, **k):
        raise edges_mod._VertexHashCollision

    ds = _corpus(kind, [small_corpus.table], tmp_path)
    _, v_ref = extract_edge_table(ds)
    monkeypatch.setattr(edges_mod, "_resolve_hashed", always_collide)
    ed, vd = extract_edge_table(ds)
    assert _edge_keys(ed, vd) == small_corpus.expected_edges
    assert not ed.to_pandas().duplicated().any()
    assert _sorted(vd, ["id"]).equals(_sorted(v_ref, ["id"]))


def test_extract_distributed_collision_fallback(small_corpus, tmp_path, monkeypatch):
    _check_collision_fallback("blocks", small_corpus, tmp_path, monkeypatch)


def test_extract_distributed_direct_collision_fallback(
    small_corpus, tmp_path, monkeypatch
):
    _check_collision_fallback("parquet", small_corpus, tmp_path, monkeypatch)


def test_extract_distributed_empty_corpus(small_corpus, tmp_path):
    """Zero-row corpus from either source: no edges, no vertex ids, no
    crash in the empty-exchange wiring."""
    empty = small_corpus.table.schema.empty_table()
    for kind in SOURCES:
        ed, vd = extract_edge_table(_corpus(kind, [empty], tmp_path))
        assert ed.count() == 0
        assert vd.count() == 0


def test_vertex_ids_dense_and_sorted(small_corpus, tmp_path):
    n = small_corpus.table.num_rows
    for kind in SOURCES:
        _, vids = extract_edge_table(_corpus(kind, [small_corpus.table], tmp_path))
        vids = _sorted(vids, ["id"])
        assert list(vids.id) == list(range(n))
        keys = list(zip(vids.repo, vids.path))
        assert keys == sorted(keys)


def test_vertex_ids_distributed_dedups_duplicated_keys(
    small_corpus, tmp_path, monkeypatch
):
    """A doubled corpus, one copy per extraction task, must mint the
    exact same (repo, path, id) table and the same distinct edges: the
    mint reduce and the pass-2 dedup see duplicates across tasks."""
    monkeypatch.setattr(edges_mod, "_TASK_ROWS", 1)
    t = small_corpus.table
    for kind in SOURCES:
        e1, v1 = extract_edge_table(_corpus(kind, [t], tmp_path))
        e2, v2 = extract_edge_table(_corpus(kind, [t, t], tmp_path))
        assert _sorted(v2, ["id"]).equals(_sorted(v1, ["id"]))
        a = _sorted(e2, ["src", "dst"])
        assert not a.duplicated(["src", "dst"]).any()
        assert a.equals(_sorted(e1, ["src", "dst"]))


def test_extract_parquet_source_equals_block_source(small_corpus, tmp_path):
    """Reading the parquet paths inside the extraction tasks and reading
    the materialized blocks must give the same edge table and ids."""
    ep, vp = extract_edge_table(_corpus("parquet", [small_corpus.table], tmp_path))
    eb, vb = extract_edge_table(_corpus("blocks", [small_corpus.table], tmp_path))
    assert _sorted(ep, ["src", "dst"]).equals(_sorted(eb, ["src", "dst"]))
    assert _sorted(vp, ["id"]).equals(_sorted(vb, ["id"]))


def _oracle_tables(corpus) -> tuple:
    """Driver-side (edges, vertex_ids) frames built from the generator:
    ids are the dense rank over sorted distinct (repo, path), edges are
    the generator's ground-truth edges on those ids."""
    cols = corpus.table.select(["repo", "path"]).to_pydict()
    keys = sorted(set(zip(cols["repo"], cols["path"])))
    vids = pd.DataFrame(keys, columns=["repo", "path"])
    vids["id"] = range(len(keys))
    key2id = {k: i for i, k in enumerate(keys)}
    pairs = sorted(
        (key2id[(sr, sp)], key2id[(dr, dp)])
        for sr, sp, dr, dp in corpus.expected_edges
    )
    edges = pd.DataFrame(pairs, columns=["src", "dst"])
    return edges, vids


def _assert_equals_oracle(corpus, edges, vids):
    e_ref, v_ref = _oracle_tables(corpus)
    got_e = _sorted(edges, ["src", "dst"])
    got_v = _sorted(vids, ["id"])
    assert got_e.src.tolist() == e_ref.src.tolist()
    assert got_e.dst.tolist() == e_ref.dst.tolist()
    assert got_v[["repo", "path", "id"]].values.tolist() == v_ref.values.tolist()


def test_extract_distributed_equals_fused(small_corpus, tmp_path):
    """The block source (distributed-sort mint, hash-keyed resolve,
    shuffle dedup) must produce exactly the driver-side oracle's edge
    table AND vertex-id mapping."""
    ed, vd = extract_edge_table(_corpus("blocks", [small_corpus.table], tmp_path))
    _assert_equals_oracle(small_corpus, ed, vd)


def test_extract_distributed_direct_read_equals_fused(small_corpus, tmp_path):
    """A bare read_parquet corpus must be read by path inside the
    extraction tasks (content never enters the object store) and produce
    exactly the driver-side oracle's edge table and vertex ids."""
    ds = _corpus("parquet", [small_corpus.table], tmp_path)
    ed, vd = extract_edge_table(ds)
    _assert_equals_oracle(small_corpus, ed, vd)


def test_extract_fused_dedups_duplicated_corpus_rows(tmp_path):
    """Duplicated (repo, path) corpus rows inside one table must mint no
    extra ids and emit no duplicate edges, from either source."""
    corp = generate_corpus(n_repos=8, seed=42)
    doubled = pa.concat_tables([corp.table, corp.table])
    for kind in SOURCES:
        e_dup, v_dup = extract_edge_table(_corpus(kind, [doubled], tmp_path))
        assert not _sorted(e_dup, ["src", "dst"]).duplicated(["src", "dst"]).any()
        _assert_equals_oracle(corp, e_dup, v_dup)


def test_extract_filtered_parquet_takes_block_source(small_corpus, tmp_path):
    """A row filter over read_parquet must not be read by path (the
    filter would be lost); the block source gives the generator's edges."""
    ds = _corpus("parquet", [small_corpus.table], tmp_path).filter(lambda r: True)
    assert _corpus_parquet_paths(ds) == (None, None)
    assert _edge_keys(*extract_edge_table(ds)) == small_corpus.expected_edges


def test_dedup_idempotent_and_no_self_loops(small_edges):
    edges, _ = small_edges
    df = edges.to_pandas()
    assert not df.duplicated(["src", "dst"]).any()
    assert (df.src != df.dst).all()
    again = dedup_edges(ray.data.from_pandas(df)).to_pandas()
    assert len(again) == len(df)


def test_symmetrize(small_edges):
    edges, _ = small_edges
    und = symmetrize_edges(edges).to_pandas()
    pairs = set(zip(und.src, und.dst))
    assert all((d, s) in pairs for s, d in pairs)


def test_degrees_consistent(small_edges):
    edges, _ = small_edges
    df = edges.to_pandas()
    od = out_degrees(edges).to_pandas().set_index("id")["out_degree"]
    idg = in_degrees(edges).to_pandas().set_index("id")["in_degree"]
    exp_out = df.groupby("src").size()
    exp_in = df.groupby("dst").size()
    assert od.sort_index().equals(exp_out.sort_index().rename("out_degree"))
    assert idg.sort_index().equals(exp_in.sort_index().rename("in_degree"))
    assert od.sum() == len(df) == idg.sum()


def test_content_sha_invariant(small_corpus):
    ds = ray.data.from_arrow(small_corpus.table)
    edges, _ = extract_edge_table(ds)
    edges.materialize()  # run the pipeline
    shas = (
        ds.map_batches(sha256_content, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["repo", "path"])
    )
    src = small_corpus.table.to_pandas().sort_values(["repo", "path"])
    expected = [hashlib.sha256(c.encode()).hexdigest() for c in src.content]
    assert list(shas.sha256) == expected


def test_empty_edge_rows_markdown():
    corp = generate_corpus(n_repos=5, seed=7)
    tbl = corp.table
    ex = ExtractImportEdges()
    md_mask = pa.compute.equal(tbl["lang"], "markdown")
    md_only = tbl.filter(md_mask)
    if md_only.num_rows:
        assert ex(md_only).num_rows == 0


def test_vectorized_extractor_equals_python_loop(small_corpus):
    """The polars (Rust-regex) extraction kernel must emit exactly the
    Python ``finditer`` loop's rows (same multiset — order-insensitive),
    including the awkward cases: null/empty content, non-python lang,
    trailing whitespace on import lines, multiple matches per file."""
    from citationgraphs_ray.stages.edges import ExtractImportEdges

    ex = ExtractImportEdges()
    edge_cases = pa.table(
        {
            "repo": ["o/r1", "o/r2", "o/r3", "o/r4", "o/r5", "o/r6"],
            "path": [f"src/f{i}.py" for i in range(6)],
            "lang": ["python", "python", "python", "go", "python", "python"],
            "content": [
                None,
                "",
                "import m1  \nimport m2\nfrom o/r1.m3 import x\n",
                "import m4\n",  # non-python: no rows
                "  import m5\n# import m6\nfrom bad .m7 import x\n",
                "import m8\nimport m8\n",  # duplicate emits kept
            ],
        }
    )
    for batch in (small_corpus.table, edge_cases):
        a = ex(batch).to_pandas()
        b = ex._call_py(batch).to_pandas()
        cols = list(a.columns)
        a = a.sort_values(cols).reset_index(drop=True)
        b = b[cols].sort_values(cols).reset_index(drop=True)
        assert a.equals(b), f"mismatch: {len(a)} vs {len(b)} rows"
        assert [str(t) for t in ex(batch).schema.types] == ["string"] * 4


