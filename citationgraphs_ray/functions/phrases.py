"""Phrase-level operators: stemming, sub-phrases, overlap/inclusion
predicates, exclusions, similarity-weighted TF-IDF (M5, M7-M9, A5,
A10-A11, T3 call boundary).

The reference delegates stemming / phrase splitting / overlap tests to the
external ``KeyphraseExtraction`` package and similarity construction to
``ConcurrenceBasedClustering`` (imports at CitationGraphs.go:20-25). Those
libraries are not reimplemented; what is matched is the *call-boundary
semantics* (SURVEY.md §2.2): each function here has the same input/output
shape as its call site, built on public algorithms (Porter-style suffix
stripping, cosine-normalized co-occurrence).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Max

from ..utils import on_driver

# ---------------------------------------------------------------------------
# M5: stemming — small deterministic Porter-style suffix stripper
# ---------------------------------------------------------------------------

_SUFFIXES = [
    ("ational", "ate"), ("ization", "ize"), ("fulness", "ful"),
    ("iveness", "ive"), ("ousness", "ous"), ("biliti", "ble"),
    ("ations", "ate"), ("ingly", ""), ("edly", ""), ("ation", "ate"),
    ("ities", "ity"), ("ness", ""), ("ing", ""), ("ies", "y"),
    ("ed", ""), ("es", ""), ("s", ""),
]


def stem_word(w: str) -> str:
    """Deterministic suffix stemmer (M5 call boundary:
    KeyphraseExtraction.StemPhrases at CitationGraphs.go:2440/2693/3885)."""
    wl = w.lower()
    for suf, rep in _SUFFIXES:
        if wl.endswith(suf) and len(wl) - len(suf) + len(rep) >= 3:
            return wl[: len(wl) - len(suf)] + rep
    return wl


def stem_phrase(phrase: str) -> str:
    return " ".join(stem_word(w) for w in phrase.split())


def stem_phrases_batch(batch: pa.Table, col: str = "label") -> pa.Table:
    vals = [stem_phrase(v) if v is not None else None for v in batch[col].to_pylist()]
    i = batch.schema.get_field_index(col)
    return batch.set_column(i, col, pa.array(vals, type=pa.string()))


# ---------------------------------------------------------------------------
# M7: all possible sub-phrases;  M8: Overlaps;  M9-aux: Includes
# ---------------------------------------------------------------------------


def all_possible_phrases(phrase: str) -> list[str]:
    """M7 (GetAllPossiblePhrases, call sites 2546/2558): every contiguous
    word n-gram of the candidate phrase, longest first then left-to-right."""
    toks = phrase.split()
    out: list[str] = []
    for n in range(len(toks), 0, -1):
        for i in range(len(toks) - n + 1):
            out.append(" ".join(toks[i : i + n]))
    return out


def overlaps(text1: str, text2: str) -> bool:
    """M8 (Overlaps, call site 693): do two phrases share any token?"""
    return not set(text1.split()).isdisjoint(text2.split())


def includes(a: str, b: str) -> bool:
    """M9-aux (Includes, 2181-2182): is b a contiguous sub-phrase of a?"""
    ta, tb = a.split(), b.split()
    if len(tb) > len(ta):
        return False
    return any(ta[i : i + len(tb)] == tb for i in range(len(ta) - len(tb) + 1))


def greedy_top_k_non_overlapping(
    scored: pd.DataFrame, k: int, phrase_col: str = "word", score_col: str = "tfidf"
) -> pd.DataFrame:
    """M9 (2175-2191): sort by score desc (tie → phrase asc), greedily keep
    phrases that neither include nor are included by an already-kept one."""
    g = scored.sort_values(
        [score_col, phrase_col], ascending=[False, True], kind="mergesort"
    )
    kept: list[int] = []
    phrases: list[str] = []
    for idx, row in g.iterrows():
        p = row[phrase_col]
        if any(includes(p, q) or includes(q, p) for q in phrases):
            continue
        kept.append(idx)
        phrases.append(p)
        if len(kept) == k:
            break
    return g.loc[kept]


def top_k_per_doc_non_overlapping(
    scored: ray.data.Dataset,
    k: int = 5,
    id_col: str = "doc_id",
    phrase_col: str = "word",
    score_col: str = "tfidf",
) -> ray.data.Dataset:
    """Distributed M9: per-doc greedy selection in map_groups."""
    return scored.groupby(id_col).map_groups(
        lambda g: greedy_top_k_non_overlapping(g, k, phrase_col, score_col),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# A5: exclusions — same-group overlapping word pairs
# ---------------------------------------------------------------------------


def exclusions(
    grouped: ray.data.Dataset,
) -> ray.data.Dataset:
    """A5 (CorpusX.GetExclusions, 653-735): within each word group of each
    doc, emit pairs of words whose texts overlap. Input:
    (doc_id, group_id, words: list<string>). Output distinct (w1, w2)."""

    def pairs(batch: pa.Table) -> pa.Table:
        w1s: list[str] = []
        w2s: list[str] = []
        for words in batch["words"].to_pylist():
            uniq = sorted(set(words))
            for a, b in combinations(uniq, 2):
                if overlaps(a, b):
                    w1s.append(a)
                    w2s.append(b)
        return pa.table({"w1": pa.array(w1s), "w2": pa.array(w2s)})

    return (
        grouped.map_batches(pairs, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .count()
        .select_columns(["w1", "w2"])
    )


# ---------------------------------------------------------------------------
# T3 call boundary: co-occurrence → similarity matrix;  A10/A11
# ---------------------------------------------------------------------------


def phrase_similarity_from_cooccurrence(
    pair_counts: ray.data.Dataset,
    exclusion_pairs: set[tuple[str, str]] | None = None,
) -> dict[tuple[str, str], float]:
    """T3 boundary (cm.SetConcurrences → similarity, 2342-2360): cosine-
    normalized co-occurrence — sim(a,b) = cooc(a,b) / sqrt(tot(a)·tot(b)),
    excluded pairs forced to 0. Input (w1, w2, freq); returns the symmetric
    similarity dict for broadcast.

    The result is a broadcast driver dict by design (the reference also
    broadcasts this matrix, T5), so the docstring precondition "small,
    thresholded upstream" is ENFORCED: a pair table whose dict would
    exceed the driver budget (``utils.on_driver``) raises instead of
    silently building a corpus-sized driver dict (VERDICT r3 #4). Totals
    and scores are vectorized; only the final dict build touches Python
    rows."""
    pair_counts = pair_counts.materialize()
    n = pair_counts.count()
    # each row becomes two dict entries, each a slot, a key tuple and a
    # float object: ~400 B of Python objects per row
    if not on_driver(pair_counts.size_bytes() + 400 * n):
        raise ValueError(
            f"phrase_similarity_from_cooccurrence got {n} pair rows, whose "
            "dict exceeds the driver budget (utils.DRIVER_BUDGET_BYTES): "
            "the result is a broadcast driver dict — threshold the "
            "co-occurrence counts upstream (freq cutoff) before building "
            "the similarity matrix"
        )
    df = pair_counts.to_pandas()
    import pandas as pd

    tot = (
        pd.concat(
            [
                df[["w1", "freq"]].rename(columns={"w1": "w"}),
                df[["w2", "freq"]].rename(columns={"w2": "w"}),
            ]
        )
        .groupby("w")["freq"]
        .sum()
    )
    t1 = df["w1"].map(tot).to_numpy(dtype=np.float64)
    t2 = df["w2"].map(tot).to_numpy(dtype=np.float64)
    scores = df["freq"].to_numpy(dtype=np.float64) / np.sqrt(t1 * t2)
    excl = exclusion_pairs or set()
    sims: dict[tuple[str, str], float] = {}
    for w1, w2, s in zip(df["w1"], df["w2"], scores):
        if (w1, w2) in excl or (w2, w1) in excl:
            continue
        sims[(w1, w2)] = s
        sims[(w2, w1)] = s
    return sims


def sim_tfidf(
    ds: ray.data.Dataset,
    sims: dict[tuple[str, str], float],
    text_col: str = "text",
    id_col: str = "doc_id",
    sim_idf: bool = False,
) -> ray.data.Dataset:
    """A10 SimTFIDF / A11 SimTFSimIDF (2111-2255).

    SimTF(w, doc) = Σ_{v∈doc} sim(w, v)·count(v) with sim(w,w)=1 — the
    fuzzy TF the reference computes against the broadcast similarity matrix
    (stateful scorer actors, 2116-2157). IDF is either the plain ln(N/df)
    (A10) or similarity-smoothed df: SimDF(w) = Σ_v sim(w,v)·df(v) (A11).
    Returns (doc_id, word, sim_tf, idf, sim_tfidf).
    """
    from .cooccur import doc_frequencies

    n_docs = ds.count()
    from ..utils import collect_table

    df_tbl = collect_table(doc_frequencies(ds, text_col, id_col))
    dfs = dict(zip(df_tbl["word"].to_pylist(), df_tbl["df"].to_pylist()))
    # neighbor lists per word from the sims dict (small, broadcast)
    nbrs: dict[str, list[tuple[str, float]]] = {}
    for (a, b), s in sims.items():
        nbrs.setdefault(a, []).append((b, s))
    if sim_idf:
        idf_map = {
            w: float(
                np.log(
                    n_docs
                    / max(
                        dfs.get(w, 0) + sum(s * dfs.get(v, 0) for v, s in nbrs.get(w, [])),
                        1e-12,
                    )
                )
            )
            for w in dfs
        }
    else:
        idf_map = {w: float(np.log(n_docs / d)) for w, d in dfs.items()}
    state_ref = ray.put((nbrs, idf_map))

    class Score:
        def __init__(self) -> None:
            self.nbrs, self.idf = ray.get(state_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids: list[int] = []
            words: list[str] = []
            stf: list[float] = []
            idfs: list[float] = []
            for i, t in zip(
                batch[id_col].to_pylist(), batch[text_col].to_pylist()
            ):
                counts: dict[str, int] = {}
                for w in (t or "").lower().split():
                    counts[w] = counts.get(w, 0) + 1
                for w in sorted(counts):
                    v = float(counts[w])  # sim(w, w) = 1
                    for u, s in self.nbrs.get(w, []):
                        v += s * counts.get(u, 0)
                    ids.append(i)
                    words.append(w)
                    stf.append(v)
                    idfs.append(self.idf.get(w, 0.0))
            stf_a = np.array(stf)
            idf_a = np.array(idfs)
            return pa.table(
                {
                    id_col: pa.array(ids, type=pa.int64()),
                    "word": pa.array(words),
                    "sim_tf": pa.array(stf_a),
                    "idf": pa.array(idf_a),
                    "sim_tfidf": pa.array(stf_a * idf_a),
                }
            )

    return ds.map_batches(Score, batch_format="pyarrow", concurrency=(1, 4))
