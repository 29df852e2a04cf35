"""Corpus builders over the citation-graph tables (SURVEY.md C1-C3, G3).

Reference semantics (CitationGraphs.go:2390-2775): per main node, tokenize
the node's own title and — for corpusType ≤ 0 — also the titles of its
ref-neighbors (a join along out-edges); corpusType 2 uses all nodes;
corpusType 3 uses stemmed labels. Doc order in the reference equals
``ToBeAnalyzed`` order; here every row carries an explicit ``doc_id`` (the
main-node index) so no block-order assumption exists (SURVEY.md §2.11).

Builders:
- ``main_node_index`` (G3): (id, main_idx) dense index over main nodes —
  filter + sorted rank (reference: idxMainNodes dict, 1447/2779-2785).
- ``build_corpus``   (C1/C3 shapes): (doc_id, id, tokens) per doc.
- ``build_corpus_x`` (C2 shape): (doc_id, group_id, words) — one group per
  candidate phrase (feeds exclusions / CorpusX co-occurrence).
- ``build_corpus_seq`` (C3): order-preserving tokens + year + is_english
  side columns.

The ref-title gather is ``edges ⋈ nodes ON dst=id → groupby(src).collect``
done fully distributed (``_gather_ref_titles``): broadcast merge (small
nodes table) or ``utils.bucketed_inner_join`` (corpus scale) followed by
ONE hash ``utils.exchange`` that co-locates each node's own-token row
with its ref rows.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.phrases import all_possible_phrases, stem_phrase
from ..stages.text import LangIdHeuristic
from ..utils import (
    _default_partitions,
    broadcast_merge,
    bucketed_inner_join,
    exchange,
    hash_buckets,
    on_driver,
    zip_with_index,
)

CORPUS_MAIN_WITH_REFS = 0  # main nodes, own+ref titles (reference type<=0)
CORPUS_MAIN_ONLY = 1  # main nodes, own title only
CORPUS_ALL = 2  # all nodes, own title only
CORPUS_LABELS = 3  # main nodes, stemmed labels


def main_node_index(nodes: ray.data.Dataset) -> ray.data.Dataset:
    """G3: (id, main_idx) — dense rank over main nodes sorted by id."""
    main = nodes.filter(expr="is_main == True").select_columns(["id"]).sort("id")
    return zip_with_index(main, col="main_idx")


def _tokens(s: str) -> list[str]:
    return (s or "").lower().split()


def _gather_ref_titles(
    own: ray.data.Dataset,
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    mode: str = "auto",
) -> ray.data.Dataset:
    """Append each node's ref-neighbor title tokens to its own tokens —
    fully distributed (SURVEY §2.4 shape): edges ⋈ titles ON dst=id, then
    ONE hash shuffle that co-locates a node's own-token row with its ref
    rows in a coarse bucket, where the per-node concat (own tokens first,
    then ref titles sorted for order-independence) runs in-process.

    No driver-side map, no V-sized object: the old implementation
    collected the joined table to the driver and built a broadcast
    src→tokens dict (scale-killer at corpus scale, VERDICT r2 #3).
    ``mode``: "broadcast" ships the titles table via ray.put to the join
    probe; "join" uses the distributed bucketed_inner_join; "auto"
    broadcasts while the titles table fits the driver budget
    (``utils.on_driver``, the bound ``broadcast_merge`` enforces).
    """
    titles = nodes.select_columns(["id", "title"])
    if mode == "auto":
        titles = titles.materialize()
        mode = "broadcast" if on_driver(titles.size_bytes()) else "join"
    if mode == "join":
        rt = titles.map_batches(
            lambda t: pa.table({"dst": t["id"], "title": t["title"]}),
            batch_format="pyarrow",
        )
        joined = bucketed_inner_join(
            edges.select_columns(["src", "dst"]),
            rt,
            ["dst"],
            min(64, _default_partitions()),
        )
    else:
        joined = broadcast_merge(
            edges.select_columns(["src", "dst"]),
            titles,
            left_on="dst",
            right_on="id",
        )
    refs = joined.map_batches(
        lambda t: pa.table({"id": t["src"], "title": t["title"]}),
        batch_format="pyarrow",
    )

    def merge_bucket(own_t: pa.Table | None, ref_t: pa.Table | None) -> pa.Table:
        """Offsets-based vectorized merge (no per-node Python loop,
        VERDICT r3 #3): sort the bucket by (id, tag, title) so each node's
        own-token row (tag 0) leads its title-sorted ref rows (tag 1),
        flatten every row's tokens once, and rebuild list offsets at the
        id boundaries. Bucket flat size is bounded by the coarse hash
        partitioning, so int32 list offsets suffice."""
        empty = pa.table(
            {
                "id": pa.array([], type=pa.int64()),
                "tokens": pa.array([], type=pa.list_(pa.string())),
            }
        )
        if own_t is None:
            return empty
        df = own_t.select(["id", "tokens"]).to_pandas().assign(title=None, tag=0)
        if ref_t is not None:
            rdf = ref_t.select(["id", "title"]).to_pandas()
            df = pd.concat([df, rdf.assign(tokens=None, tag=1)], ignore_index=True)
        df = df.sort_values(["id", "tag", "title"], kind="stable")
        tag = df["tag"].to_numpy()
        # drop ref rows of nodes outside the corpus base, and (defensive,
        # matching the old iloc[0]) extra own rows from duplicated inputs
        own_ids = df.loc[tag == 0, "id"].unique()
        keep = df["id"].isin(own_ids).to_numpy() & ~(
            (tag == 0) & df.duplicated(["id", "tag"], keep="first").to_numpy()
        )
        df = df[keep]
        tag = df["tag"].to_numpy()
        row_lists = df["tokens"].copy()
        row_lists[tag == 1] = df.loc[tag == 1, "title"].str.lower().str.split()
        lens = row_lists.map(len).to_numpy(dtype=np.int64)
        flat = list(chain.from_iterable(row_lists))
        ids = df["id"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        row_offsets = np.r_[0, np.cumsum(lens)]
        id_offsets = row_offsets[np.r_[starts, len(ids)]]
        tokens = pa.ListArray.from_arrays(
            pa.array(id_offsets.astype(np.int32)),
            pa.array(flat, type=pa.string()),
        )
        return pa.table(
            {"id": pa.array(ids[starts], type=pa.int64()), "tokens": tokens}
        )

    return exchange(
        [own, refs], hash_buckets(["id"]), merge_bucket, _default_partitions()
    )


def build_corpus(
    nodes: ray.data.Dataset,
    edges: ray.data.Dataset,
    corpus_type: int = CORPUS_MAIN_WITH_REFS,
) -> ray.data.Dataset:
    """C1: (doc_id, id, tokens list<string>).

    corpus_type semantics per the reference switch (2382-2389): ≤0 gathers
    ref-neighbor titles too; 2 covers all nodes; 3 uses stemmed labels
    (nodes must then carry a ``labels`` list column).

    The ref-title gather (``_gather_ref_titles``) is fully distributed:
    edges ⋈ titles then one coarse-bucket hash shuffle; no driver-side
    group loop or broadcast src→tokens map.
    """
    if corpus_type == CORPUS_LABELS:
        base = nodes.filter(expr="is_main == True")

        def lab_tokens(t: pa.Table) -> pa.Table:
            toks = [
                [w for lab in (labs or []) for w in stem_phrase(lab).split()]
                for labs in t["labels"].to_pylist()
            ]
            return pa.table(
                {
                    "id": t["id"],
                    "tokens": pa.array(toks, type=pa.list_(pa.string())),
                }
            )

        docs = base.map_batches(lab_tokens, batch_format="pyarrow")
    else:
        base = (
            nodes
            if corpus_type == CORPUS_ALL
            else nodes.filter(expr="is_main == True")
        )
        own = base.map_batches(
            lambda t: pa.table(
                {
                    "id": t["id"],
                    "tokens": pa.array(
                        [_tokens(x) for x in t["title"].to_pylist()],
                        type=pa.list_(pa.string()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        if corpus_type <= CORPUS_MAIN_WITH_REFS:
            own = _gather_ref_titles(own, nodes, edges)
        docs = own

    # explicit doc ids = rank over sorted node id (order-independence)
    return zip_with_index(docs.sort("id"), col="doc_id")


def build_corpus_x(
    nodes: ray.data.Dataset,
    corpus_type: int = CORPUS_ALL,
) -> ray.data.Dataset:
    """C2: (doc_id, group_id, words list<string>) — one group per candidate
    phrase = each word's sub-phrase expansion (M7) of title bigram windows.
    Feeds exclusions (A5) and CorpusX co-occurrence (A3/A4)."""
    base = (
        nodes if corpus_type == CORPUS_ALL else nodes.filter(expr="is_main == True")
    )

    def groups(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        gids: list[int] = []
        words: list[list[str]] = []
        for i, title in zip(t["id"].to_pylist(), t["title"].to_pylist()):
            toks = _tokens(title)
            # candidate phrases = consecutive word bigrams (+ last unigram)
            cands = [" ".join(toks[k : k + 2]) for k in range(0, len(toks), 2)]
            for g, cand in enumerate(cands):
                ids.append(i)
                gids.append(g)
                words.append(all_possible_phrases(cand))
        return pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "group_id": pa.array(gids, type=pa.int64()),
                "words": pa.array(words, type=pa.list_(pa.string())),
            }
        )

    out = base.map_batches(groups, batch_format="pyarrow")
    return out.map_batches(
        lambda t: t.rename_columns(["doc_id", "group_id", "words"]),
        batch_format="pyarrow",
    )


def build_corpus_seq(
    nodes: ray.data.Dataset,
    corpus_type: int = CORPUS_ALL,
) -> ray.data.Dataset:
    """C3: (doc_id, id, year, is_english, tokens) — order-preserving, with
    the language gate column (reference gates via langdet, 2700-2705)."""
    base = (
        nodes if corpus_type == CORPUS_ALL else nodes.filter(expr="is_main == True")
    )

    def fn(t: pa.Table) -> pa.Table:
        titles = t["title"].to_pylist()
        toks = [_tokens(x) for x in titles]
        is_en = [LangIdHeuristic.detect(x or "") in ("en", "und") for x in titles]
        return pa.table(
            {
                "id": t["id"],
                "year": t["year"],
                "is_english": pa.array(is_en),
                "tokens": pa.array(toks, type=pa.list_(pa.string())),
            }
        )

    out = base.map_batches(fn, batch_format="pyarrow")
    return zip_with_index(out.sort("id"), col="doc_id")


def write_rank_jumps_csv(jumps: ray.data.Dataset, file_name: str) -> None:
    """S8 (Leap2Trend CSV writer, 4321-4326): ``idx, phrase1, phrase2,
    jump`` rows in jump-desc order."""
    df = jumps.to_pandas()
    with open(file_name, "w") as f:
        f.write("idx, phrase1, phrase2, jump\n")
        for i, r in enumerate(df.itertuples()):
            f.write(f"{i}, {r.phrase1}, {r.phrase2}, {r.jump}\n")
