"""Co-occurrence / document-frequency / TF-IDF / pair-lift analytics.

Reference semantics (SURVEY.md §2.5): the Go library computes word-word
co-occurrence with goroutine pools merging nested maps under a mutex
(Corpus.GetConcurrences, CitationGraphs.go:568-648; doc-level variant
GetDocConcurrences 835-928; doc freqs 3690-3737; lift-style pair filter
findStronglyConnectedPhrases 3751-3780; TFIDF 2058-2102). Here every one is
a pair-expansion inside ``map_batches`` (each document is one row, so the
per-doc work never crosses a batch) followed by ONE ``groupby`` on the pair
key — the canonical shuffle shape the north rule's triangle counting shares.

Tokenization for these ops is ``lower().split()`` (whitespace) so the
DuckDB oracle can reproduce it exactly.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..utils import (
    _default_partitions,
    collect_table,
    exchange,
    fast_distinct,
    fast_grouped_agg,
    hash_buckets,
)
from ray.data.aggregate import Count, Sum


def _tokens_long(
    batch: pa.Table, text_col: str, ids: np.ndarray, id_name: str
) -> pa.Table:
    """Vectorized tokenize-to-long-table: Arrow lower + whitespace split
    + list_flatten, doc identity attached with one np.repeat. Arrow's
    split emits "" tokens at whitespace boundaries (Python str.split()
    drops them) — filtered here. No Python row loop."""
    toks = pa.compute.utf8_split_whitespace(
        pa.compute.utf8_lower(pa.compute.fill_null(batch[text_col], ""))
    )
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    n = pa.compute.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pa.compute.list_flatten(toks)
    doc = np.repeat(ids, n)
    return pa.table({id_name: pa.array(doc), "word": flat}).filter(
        pa.compute.not_equal(flat, "")
    )


def explode_tokens(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Long table (doc_id, word) — one row per token occurrence."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _tokens_long(batch, text_col, ids, id_col)

    return ds.map_batches(fn, batch_format="pyarrow")


def doc_frequencies(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """(word, df) — number of docs containing the word (A12: per-doc
    distinct inside the batch UDF — a C++ group_by on (row, word) over
    the vectorized token long-table — then one groupby count)."""

    def fn(batch: pa.Table) -> pa.Table:
        long = _tokens_long(
            batch,
            text_col,
            np.arange(batch.num_rows, dtype=np.int64),
            "__row",
        )
        uniq = long.group_by(["__row", "word"]).aggregate([])
        return pa.table({"word": uniq["word"]})

    return fast_grouped_agg(
        ds.map_batches(fn, batch_format="pyarrow"), ["word"], count_as="df"
    )


def doc_cooccurrence(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Document-level co-occurrence (A4): weight 1 per doc per unordered
    distinct pair (w1 < w2 lexicographically). Returns (w1, w2, freq)."""

    def pairs(batch: pa.Table) -> pa.Table:
        w1s: list[str] = []
        w2s: list[str] = []
        for t in batch[text_col].to_pylist():
            uniq = sorted(set((t or "").lower().split()))
            for a, b in combinations(uniq, 2):
                w1s.append(a)
                w2s.append(b)
        return pa.table({"w1": pa.array(w1s), "w2": pa.array(w2s)})

    return fast_grouped_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["w1", "w2"],
        count_as="freq",
    )


def word_cooccurrence(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Count-weighted co-occurrence (A1): per doc, every unordered distinct
    pair contributes count(w1)*count(w2). Returns (w1, w2, weight)."""

    def pairs(batch: pa.Table) -> pa.Table:
        w1s: list[str] = []
        w2s: list[str] = []
        wts: list[float] = []
        for t in batch[text_col].to_pylist():
            counts: dict[str, int] = {}
            for w in (t or "").lower().split():
                counts[w] = counts.get(w, 0) + 1
            uniq = sorted(counts)
            for a, b in combinations(uniq, 2):
                w1s.append(a)
                w2s.append(b)
                wts.append(float(counts[a] * counts[b]))
        return pa.table(
            {"w1": pa.array(w1s), "w2": pa.array(w2s), "w": pa.array(wts)}
        )

    return fast_grouped_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["w1", "w2"],
        {"weight": ("w", "sum")},
    )


def strongly_connected_pairs(
    ds: ray.data.Dataset,
    thres_freq: float = 2.0,
    thres_ratio: float = 2.0,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Lift-style pair filter (A13/A14, CitationGraphs.go:3751-3793).

    Keep pairs with freq ≥ thres_freq AND freq ≥ thres_ratio · expected,
    expected = df1/N · df2/N · N. Returns (w1, w2, actual, expected).
    The df vector is broadcast (vocab-sized) into the filter stage.
    """
    import ray

    n_docs = ds.count()
    df_tbl = collect_table(doc_frequencies(ds, text_col, id_col))
    dfs_ref = ray.put(
        pd.Series(
            df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.float64),
            index=df_tbl["word"].to_pylist(),
        )
    )
    pair_counts = doc_cooccurrence(ds, text_col, id_col)

    class Filter:
        def __init__(self) -> None:
            self.dfs = ray.get(dfs_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            w1 = pd.Series(batch["w1"].to_pylist())
            w2 = pd.Series(batch["w2"].to_pylist())
            freq = batch["freq"].to_numpy(zero_copy_only=False).astype(np.float64)
            exp = (
                w1.map(self.dfs).to_numpy(dtype=np.float64)
                * w2.map(self.dfs).to_numpy(dtype=np.float64)
                / n_docs
            )
            keep = (freq >= thres_freq) & (freq >= thres_ratio * exp)
            out = pa.table(
                {
                    "w1": batch["w1"],
                    "w2": batch["w2"],
                    "actual": pa.array(freq),
                    "expected": pa.array(exp),
                }
            )
            return out.filter(pa.array(keep))

    return pair_counts.map_batches(Filter, batch_format="pyarrow", concurrency=(1, 4))


def tfidf(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Per-(doc, word) TF-IDF (A9): tf = in-doc count, idf = ln(N/df).

    TF is per-row (vectorized in the tokenize batch); IDF is the broadcast
    small side (reference probes a global map, CitationGraphs.go:2091-2094).
    Returns (doc_id, word, tf, idf, tfidf).
    """
    import ray

    # three consumers (count, df, scoring) — pin the projected input once
    ds = ds.select_columns([id_col, text_col]).materialize()
    n_docs = ds.count()
    df_tbl = collect_table(doc_frequencies(ds, text_col, id_col))
    dfs_ref = ray.put(
        pd.Series(
            df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.float64),
            index=df_tbl["word"].to_pylist(),
        )
    )

    class Score:
        """Fully vectorized TF stage: Arrow lower+whitespace-split →
        list_flatten + np.repeat(doc_id) → C++ group_by count per
        (doc, word) → one pandas hash-map for the broadcast IDF side —
        no Python row loop (the previous per-doc dict loop was the
        classic hot-stage pathology; ~8× on the scoring stage)."""

        def __init__(self) -> None:
            self.dfs = ray.get(dfs_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids_np = (
                batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            pairs = _tokens_long(batch, text_col, ids_np, id_col)
            g = (
                pairs.group_by([id_col, "word"])
                .aggregate([([], "count_all")])
                .to_pandas()
                .sort_values([id_col, "word"], kind="mergesort")
            )
            tf = g["count_all"].to_numpy().astype(np.float64)
            idf = np.log(
                n_docs / g["word"].map(self.dfs).to_numpy(dtype=np.float64)
            )
            return pa.table(
                {
                    id_col: pa.array(g[id_col].to_numpy(), type=pa.int64()),
                    "word": pa.array(g["word"].tolist()),
                    "tf": pa.array(tf),
                    "idf": pa.array(idf),
                    "tfidf": pa.array(tf * idf),
                }
            )

    return ds.map_batches(Score, batch_format="pyarrow", concurrency=(1, 4))


def bm25(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """Per-(doc, word) Okapi BM25: idf = ln(1 + (N - df + 0.5)/(df + 0.5)),
    score = idf · tf·(k1+1) / (tf + k1·(1 - b + b·dl/avgdl)).

    Same two-broadcast shape as :func:`tfidf` (the reference's TF/IDF
    boundary, CitationGraphs.go:2058-2102, with the saturating BM25 weight
    a training-data quality pipeline wants): df and the scalar avgdl are
    the small sides; TF and the per-doc length dl are computed inside the
    vectorized scoring stage from the same token long-table, so dl is
    definitionally consistent with tf (dl = Σ_w tf). Returns
    (doc_id, word, tf, dl, bm25).
    """
    import ray

    # four consumers (count, df, dl/avgdl, scoring) — pin the projected
    # input once instead of four upstream read+tokenize executions
    ds = ds.select_columns([id_col, text_col]).materialize()
    n_docs = ds.count()
    df_tbl = collect_table(doc_frequencies(ds, text_col, id_col))
    dfs_ref = ray.put(
        pd.Series(
            df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.float64),
            index=df_tbl["word"].to_pylist(),
        )
    )

    # avgdl over docs with ≥1 token (int64 partial sums — exact under any
    # accumulation order, so the single final division matches SQL AVG).
    def lens(batch: pa.Table) -> pa.Table:
        long = _tokens_long(
            batch,
            text_col,
            np.arange(batch.num_rows, dtype=np.int64),
            "__row",
        )
        per_row = long.group_by("__row").aggregate([([], "count_all")])
        return pa.table(
            {
                "dl_sum": pa.array(
                    [int(pa.compute.sum(per_row["count_all"]).as_py() or 0)],
                    type=pa.int64(),
                ),
                "n_nonempty": pa.array(
                    [per_row.num_rows], type=pa.int64()
                ),
            }
        )

    totals = collect_table(ds.map_batches(lens, batch_format="pyarrow"))
    dl_sum = int(pa.compute.sum(totals["dl_sum"]).as_py() or 0)
    n_nonempty = int(pa.compute.sum(totals["n_nonempty"]).as_py() or 0)
    avgdl = dl_sum / max(1, n_nonempty)

    class Score:
        """Vectorized TF + dl + BM25 in one pass over the token long-table
        (the tfidf Score skeleton with the per-doc length transform)."""

        def __init__(self) -> None:
            self.dfs = ray.get(dfs_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids_np = (
                batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            pairs = _tokens_long(batch, text_col, ids_np, id_col)
            g = (
                pairs.group_by([id_col, "word"])
                .aggregate([([], "count_all")])
                .to_pandas()
                .sort_values([id_col, "word"], kind="mergesort")
            )
            tf = g["count_all"].to_numpy().astype(np.float64)
            dl = (
                g.groupby(id_col, sort=False)["count_all"]
                .transform("sum")
                .to_numpy()
                .astype(np.float64)
            )
            df = g["word"].map(self.dfs).to_numpy(dtype=np.float64)
            idf = np.log1p((n_docs - df + 0.5) / (df + 0.5))
            score = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
            return pa.table(
                {
                    id_col: pa.array(g[id_col].to_numpy(), type=pa.int64()),
                    "word": pa.array(g["word"].tolist()),
                    "tf": pa.array(tf),
                    "dl": pa.array(dl),
                    "bm25": pa.array(score),
                }
            )

    return ds.map_batches(Score, batch_format="pyarrow", concurrency=(1, 4))


def top_k_tfidf_per_doc(
    scored: ray.data.Dataset,
    k: int = 5,
    id_col: str = "doc_id",
    value_col: str = "tfidf",
) -> ray.data.Dataset:
    """Per-doc top-k by ``value_col`` desc, ties by word asc (the
    reference's greedy per-doc ArgSort selection shape,
    CitationGraphs.go:2175-2191).

    Docs are hash-partitioned into P coarse buckets (P ≈ CPUs), and each
    bucket selects in one vectorized pass (sort + cython groupby-head) —
    NOT ``groupby(doc_id).map_groups``, whose per-group Python dispatch
    costs ~45 µs/group and dominates at millions of docs (the same
    pathology measured and fixed in dedup's bucket expansion)."""

    def pick_bucket(t: pa.Table | None) -> pa.Table:
        if t is None:  # only every bucket empty keeps this output
            return pa.table({})
        df = (
            t.to_pandas()
            .sort_values(
                [id_col, value_col, "word"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby(id_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    return exchange(
        [scored], hash_buckets([id_col]), pick_bucket, _default_partitions()
    )


def corpusx_concurrences(
    grouped: ray.data.Dataset,
    doc_col: str = "doc_id",
    group_col: str = "group_id",
    words_col: str = "words",
    regroup: bool = True,
) -> ray.data.Dataset:
    """A3 (CorpusX.GetConcurrences, CitationGraphs.go:740-830): count-
    weighted co-occurrence across DIFFERENT word groups of the same doc —
    same-group pairs are skipped (770-773), w1 == w2 skipped, both
    orientations emitted (the reference builds a symmetric nested map).

    Input: the build_corpus_x long table (doc_id, group_id, words). Per
    doc the cross-group weight has closed form
    ``T(w1)·T(w2) − Σ_g c_g(w1)·c_g(w2)`` (totals outer product minus the
    same-group term), computed as one small matrix product per doc — no
    group×group Python loop.

    The closed form requires every group row of a doc in ONE task, and Ray
    Data's dynamic block splitting may split a doc's rows across blocks
    even straight out of build_corpus_x (ADVICE r2). ``regroup=True``
    (default) therefore hash-exchanges docs into P≈CPUs coarse buckets
    first — co-location guaranteed. ``regroup=False`` skips the shuffle
    for callers that co-locate doc rows themselves (single-block
    fixtures, pre-partitioned inputs).
    """
    import collections

    def doc_pairs(df: pd.DataFrame) -> pd.DataFrame:
        w1_out: list[str] = []
        w2_out: list[str] = []
        wt_out: list[float] = []
        for _, doc in df.groupby(doc_col, sort=False):
            counts = [
                collections.Counter(ws) for ws in doc[words_col]
            ]
            vocab = sorted({w for c in counts for w in c})
            if len(vocab) < 2:
                continue
            pos = {w: i for i, w in enumerate(vocab)}
            C = np.zeros((len(vocab), len(counts)))
            for g, c in enumerate(counts):
                for w, n in c.items():
                    C[pos[w], g] = n
            tot = C.sum(axis=1)
            W = np.outer(tot, tot) - C @ C.T
            np.fill_diagonal(W, 0.0)
            i1, i2 = np.nonzero(W)
            w1_out.extend(vocab[i] for i in i1)
            w2_out.extend(vocab[i] for i in i2)
            wt_out.extend(W[i1, i2])
        return pd.DataFrame(
            {
                "w1": pd.Series(w1_out, dtype=str),
                "w2": pd.Series(w2_out, dtype=str),
                "weight": pd.Series(wt_out, dtype=np.float64),
            }
        )

    def pairs_table(t: pa.Table | None) -> pa.Table:
        if t is None:  # only every bucket empty keeps this output
            return pa.table({})
        return pa.Table.from_pandas(doc_pairs(t.to_pandas()), preserve_index=False)

    if regroup:
        partial = exchange(
            [grouped], hash_buckets([doc_col]), pairs_table, _default_partitions()
        )
    else:
        partial = grouped.map_batches(pairs_table, batch_format="pyarrow")
    return fast_grouped_agg(partial, ["w1", "w2"], {"weight": ("weight", "sum")})


def unigram_logprob(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-doc mean unigram log-probability under the corpus's own
    unigram LM: mean over token OCCURRENCES of ln(count(w)/N_total) —
    i.e. Σ_w tf·ln(p_w) / Σ_w tf. No smoothing needed (the LM is trained
    on the scored corpus, so every token has count ≥ 1). Returns
    (doc_id, n_tokens, mean_logprob); low scores flag gibberish /
    rare-token-heavy docs — the standard cheap fluency filter.

    Two passes like :func:`tfidf`: one combiner-style grouped count
    builds the (small) LM table, broadcast via ray.put; the scoring pass
    reuses the vectorized token long-table + C++ group_by skeleton.
    """
    import ray

    # two consumers (LM count, scoring) — pin the projected input once
    ds = ds.select_columns([id_col, text_col]).materialize()
    cnt_tbl = collect_table(
        fast_grouped_agg(explode_tokens(ds, text_col, id_col), ["word"],
                         count_as="c")
    )
    total = float(
        pa.compute.sum(cnt_tbl["c"]).as_py() or 0
    )
    logp_ref = ray.put(
        pd.Series(
            np.log(
                cnt_tbl["c"].to_numpy(zero_copy_only=False).astype(np.float64)
                / total
            ),
            index=cnt_tbl["word"].to_pylist(),
        )
    )

    class Score:
        def __init__(self) -> None:
            self.logp = ray.get(logp_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids_np = (
                batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            pairs = _tokens_long(batch, text_col, ids_np, id_col)
            g = (
                pairs.group_by([id_col, "word"])
                .aggregate([([], "count_all")])
                .to_pandas()
                .sort_values([id_col, "word"], kind="mergesort")
            )
            tf = g["count_all"].to_numpy().astype(np.float64)
            lp = g["word"].map(self.logp).to_numpy(dtype=np.float64)
            agg = (
                pd.DataFrame({id_col: g[id_col], "w": tf * lp, "n": tf})
                .groupby(id_col, sort=False)
                .sum()
                .reset_index()
            )
            n = agg["n"].to_numpy()
            mean = agg["w"].to_numpy() / n
            return pa.table(
                {
                    id_col: pa.array(
                        agg[id_col].to_numpy(), type=pa.int64()
                    ),
                    "n_tokens": pa.array(n.astype(np.int64)),
                    "mean_logprob": pa.array(
                        np.floor(mean * 1e6 + 0.5) / 1e6
                    ),
                }
            )

    return ds.map_batches(Score, batch_format="pyarrow", concurrency=(1, 4))
