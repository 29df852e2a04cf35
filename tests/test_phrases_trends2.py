"""Phrase operators (M5/M7-M9, A5, A10-A11), A15/A17, vec-file I/O."""

import numpy as np
import pyarrow as pa
import ray.data

from citationgraphs_ray.functions.cooccur import doc_cooccurrence, tfidf
from citationgraphs_ray.functions.leap2trend import read_vec_file, write_vec_file
from citationgraphs_ray.functions.phrases import (
    all_possible_phrases,
    exclusions,
    greedy_top_k_non_overlapping,
    includes,
    overlaps,
    phrase_similarity_from_cooccurrence,
    sim_tfidf,
    stem_phrase,
    stem_word,
    top_k_per_doc_non_overlapping,
)
from citationgraphs_ray.functions.trends import (
    emerging_topic_publications,
    hot_topic_publications,
    titles_by_year,
)


def test_stemmer():
    assert stem_word("running") == "runn"
    assert stem_word("optimization") == "optimize"
    assert stem_word("graphs") == "graph"
    assert stem_word("cat") == "cat"
    assert stem_phrase("Neural Networks") == "neural network"
    assert stem_word("as") == "as"  # too short to strip


def test_phrase_predicates():
    assert overlaps("deep learning", "machine learning")
    assert not overlaps("deep learning", "graph theory")
    assert includes("deep neural network", "neural network")
    assert not includes("neural network", "deep neural network")
    assert not includes("deep learning network", "deep network")
    subs = all_possible_phrases("a b c")
    assert subs == ["a b c", "a b", "b c", "a", "b", "c"]


def test_greedy_topk_non_overlapping():
    import pandas as pd

    df = pd.DataFrame(
        {
            "doc_id": [0] * 4,
            "word": ["deep neural network", "neural network", "graph", "x"],
            "tfidf": [4.0, 3.0, 2.0, 1.0],
        }
    )
    out = greedy_top_k_non_overlapping(df, k=2)
    # "neural network" is included in the kept top phrase → skipped
    assert list(out.word) == ["deep neural network", "graph"]
    ds = ray.data.from_pandas(df)
    out2 = top_k_per_doc_non_overlapping(ds, k=2).to_pandas()
    assert set(out2.word) == {"deep neural network", "graph"}


def test_exclusions():
    grouped = ray.data.from_items(
        [
            {
                "doc_id": 0,
                "group_id": 0,
                "words": ["deep learning", "machine learning", "graphs"],
            }
        ]
    )
    out = exclusions(grouped).to_pandas()
    assert list(map(tuple, out.to_numpy())) == [("deep learning", "machine learning")]


def test_phrase_similarity_and_sim_tfidf():
    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": "spark ray data"},
            {"doc_id": 1, "text": "spark ray engine"},
            {"doc_id": 2, "text": "cooking pasta recipe"},
        ]
    )
    pair_counts = doc_cooccurrence(docs)
    sims = phrase_similarity_from_cooccurrence(pair_counts)
    assert sims[("ray", "spark")] == sims[("spark", "ray")] > 0
    assert ("spark", "pasta") not in sims
    scored = sim_tfidf(docs, sims).to_pandas()
    plain = tfidf(docs).to_pandas()
    m = scored.set_index(["doc_id", "word"])
    p = plain.set_index(["doc_id", "word"])
    # fuzzy TF ≥ plain TF everywhere (adds sim-weighted neighbor mass)
    assert (m.sim_tf >= p.tf - 1e-12).all()
    assert m.loc[(0, "spark")].sim_tf > 1.0  # boosted by co-occurring ray/data
    scored2 = sim_tfidf(docs, sims, sim_idf=True).to_pandas()
    assert len(scored2) == len(scored)


def test_phrase_similarity_row_guard(monkeypatch):
    """The thresholded-upstream precondition is enforced: a pair table
    whose dict exceeds the driver budget raises instead of silently
    building a corpus-sized broadcast dict (VERDICT r3 #4)."""
    import pytest

    import citationgraphs_ray.utils as U

    pair_counts = ray.data.from_items(
        [{"w1": f"a{i}", "w2": f"b{i}", "freq": 1} for i in range(10)]
    )
    with monkeypatch.context() as m:
        m.setattr(U, "DRIVER_BUDGET_BYTES", 4000)  # < 10 rows × 400 B
        with pytest.raises(ValueError, match="threshold"):
            phrase_similarity_from_cooccurrence(pair_counts)
    # within the budget it still works
    sims = phrase_similarity_from_cooccurrence(pair_counts)
    assert sims[("a0", "b0")] == sims[("b0", "a0")] > 0


def test_titles_by_year():
    ds = ray.data.from_items(
        [
            {"title": "b", "year": 2000},
            {"title": "a", "year": 2000},
            {"title": "c", "year": 2001},
        ]
    )
    out = titles_by_year(ds).to_pandas().sort_values("year")
    assert list(out.titles.iloc[0]) == ["a", "b"]
    assert list(out.titles.iloc[1]) == ["c"]


def _star_graph():
    # node 9 cited by nodes 0..5 in specific years
    edges = ray.data.from_items(
        [{"src": s, "dst": 9} for s in range(6)] + [{"src": 6, "dst": 8}]
    )
    years = ray.data.from_items(
        [{"id": i, "year": 2000 + (0 if i < 2 else 5)} for i in range(7)]
        + [{"id": 8, "year": 2001}, {"id": 9, "year": 1999}]
    )
    return edges, years


def test_emerging_topic_publications():
    edges, years = _star_graph()
    # node 9: 2 citations in 2000 (cold ≤2002), 4 in 2005 → breakout
    out = emerging_topic_publications(
        edges, years, year_far_away=2002, low_threshold=3, high_threshold=4
    ).to_pandas()
    assert list(out.id) == [9]
    assert out.cold_citations.iloc[0] == 2
    assert out.hot_mean.iloc[0] == 4.0


def test_hot_topic_publications():
    edges, years = _star_graph()
    # node 9 (pub 1999): citations in 2000 (cy<=py+1) → 2 early citations
    out = hot_topic_publications(edges, years, high_threshold=2).to_pandas()
    assert list(out.id) == [9]
    assert out.early_citations.iloc[0] == 2


def test_vec_file_roundtrip(tmp_path):
    vecs = {"alpha": np.array([1.0, 2.0]), "beta": np.array([-0.5, 0.25])}
    f = str(tmp_path / "y2000.vec")
    write_vec_file(vecs, f)
    back = read_vec_file(f)
    assert set(back) == {"alpha", "beta"}
    assert np.allclose(back["alpha"], [1.0, 2.0])
    assert open(f).readline() == "2 2\n"
