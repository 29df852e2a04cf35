"""C1-C3 corpus builders, G3 index, M10/X10, S8 writer."""

import pyarrow as pa
import ray.data

from citationgraphs_ray.functions.metrics import (
    community_ids_from_communities,
    memb_cos,
)
from citationgraphs_ray.pipelines.corpus_builders import (
    CORPUS_ALL,
    CORPUS_LABELS,
    CORPUS_MAIN_ONLY,
    CORPUS_MAIN_WITH_REFS,
    build_corpus,
    build_corpus_seq,
    build_corpus_x,
    main_node_index,
    write_rank_jumps_csv,
)


def _graph():
    nodes = ray.data.from_items(
        [
            {"id": 1, "is_main": True, "year": 2000, "title": "deep learning", "labels": ["Neural Networks"]},
            {"id": 2, "is_main": False, "year": 2001, "title": "graph theory", "labels": []},
            {"id": 3, "is_main": True, "year": 2002, "title": "spark engines", "labels": ["Systems"]},
        ]
    )
    edges = ray.data.from_items([{"src": 1, "dst": 2}, {"src": 1, "dst": 3}])
    return nodes, edges


def test_main_node_index():
    nodes, _ = _graph()
    idx = main_node_index(nodes).to_pandas().sort_values("main_idx")
    assert list(idx.id) == [1, 3] and list(idx.main_idx) == [0, 1]


def test_build_corpus_with_refs():
    nodes, edges = _graph()
    c = build_corpus(nodes, edges, CORPUS_MAIN_WITH_REFS).to_pandas().sort_values("doc_id")
    assert list(c.id) == [1, 3]
    # doc for node 1 = own title + ref titles of nodes 2 and 3 (sorted)
    assert list(c.tokens.iloc[0]) == ["deep", "learning", "graph", "theory", "spark", "engines"]
    assert list(c.tokens.iloc[1]) == ["spark", "engines"]  # node 3: no refs
    only = build_corpus(nodes, edges, CORPUS_MAIN_ONLY).to_pandas().sort_values("doc_id")
    assert list(only.tokens.iloc[0]) == ["deep", "learning"]
    allc = build_corpus(nodes, edges, CORPUS_ALL).to_pandas()
    assert len(allc) == 3


def test_gather_ref_titles_join_equals_broadcast():
    """The distributed-join ref gather (corpus-scale path) must equal the
    broadcast path row-for-row."""
    from citationgraphs_ray.pipelines.corpus_builders import _gather_ref_titles

    nodes, edges = _graph()
    own = nodes.filter(expr="is_main == True").map_batches(
        lambda t: pa.table(
            {
                "id": t["id"],
                "tokens": pa.array(
                    [(x or "").lower().split() for x in t["title"].to_pylist()],
                    type=pa.list_(pa.string()),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    a = (
        _gather_ref_titles(own, nodes, edges, mode="broadcast")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    b = (
        _gather_ref_titles(own, nodes, edges, mode="join")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert list(a.id) == list(b.id) == [1, 3]
    for x, y in zip(a.tokens, b.tokens):
        assert list(x) == list(y)


def test_build_corpus_labels():
    nodes, edges = _graph()
    c = build_corpus(nodes, edges, CORPUS_LABELS).to_pandas().sort_values("doc_id")
    assert list(c.tokens.iloc[0]) == ["neural", "network"]  # stemmed


def test_build_corpus_x_and_seq():
    nodes, _ = _graph()
    cx = build_corpus_x(nodes, CORPUS_ALL).to_pandas()
    assert {"doc_id", "group_id", "words"} == set(cx.columns)
    row = cx[cx.doc_id == 1].iloc[0]
    assert "deep learning" in list(row.words)  # full candidate + sub-phrases
    assert "deep" in list(row.words)
    seq = build_corpus_seq(nodes, CORPUS_ALL).to_pandas().sort_values("doc_id")
    assert list(seq.columns) == ["id", "year", "is_english", "tokens", "doc_id"]
    assert seq.is_english.all()
    assert list(seq.doc_id) == [0, 1, 2]


def test_memb_cos_and_x10():
    assert memb_cos([1, 0], [0, 1]) == 0.0
    assert abs(memb_cos([1, 1], [1, 1]) - 1.0) < 1e-12
    assert memb_cos([0, 0], [1, 1]) == 0.0
    tbl = community_ids_from_communities([{3, 1}, {2}]).to_pandas()
    assert list(map(tuple, tbl.to_numpy())) == [(1, 0), (3, 0), (2, 1)]


def test_write_rank_jumps_csv(tmp_path):
    jumps = ray.data.from_items(
        [{"phrase1": "a", "phrase2": "b", "jump": 5}]
    )
    f = str(tmp_path / "jumps.csv")
    write_rank_jumps_csv(jumps, f)
    assert open(f).read() == "idx, phrase1, phrase2, jump\n0, a, b, 5\n"
