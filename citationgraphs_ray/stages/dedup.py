"""Deduplication suite for large-scale training-data pipelines.

Exact + four near-dup families, each expressed as map_batches sketching →
ONE hash ``utils.exchange`` on the bucket key → candidate-pair
verification → cluster resolution. Cluster resolution reuses the
distributed connected-components kernel (graph/engine.py) over the
verified duplicate-pair edge table — dup clusters ARE components, so the
engine's scaling/skew story carries over.

All hashing is seeded and deterministic. Representative of a cluster = min
doc id (same min-id convention as the CC kernel).

Scale notes: every family keeps per-doc work inside one batch (a doc is a
row), emits O(#buckets) rows to the shuffle, and verifies only within-bucket
candidate pairs. Exact dedup is one hash exchange + first-per-group (the
reference's only dedup is the nested-set edge dedup, CitationGraphs.go:
2003-2026 — same shape).
"""

from __future__ import annotations

import hashlib
import os
from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..utils import (
    _default_partitions,
    exchange,
    fast_distinct,
    fast_grouped_agg,
    hash_buckets,
    list_column_to_matrix,
    matrix_to_list_array,
    on_driver,
)

from ..graph.engine import connected_components
from .edges import symmetrize_edges

_MERSENNE = (1 << 61) - 1


def _token_shingles(text: str, k: int = 3) -> set[str]:
    toks = (text or "").lower().split()
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


# Per-window-position odd mixing constants for the vectorized shingle
# hash: shingle(t_i..t_{i+k-1}) = XOR_j (siphash(t_{i+j}) * C_j) mod 2^62
# — order-sensitive (distinct C_j per position), no per-shingle string
# build or digest call. Token hashes come from ONE pd.util.hash_array
# pass (cython siphash, fixed key — deterministic across processes).
_SH_GOLD = 0x9E3779B97F4A7C15
_SH_P = np.uint64(0xC2B2AE3D27D4EB4F)


def _sh_consts(k: int) -> np.ndarray:
    return np.array(
        [(_SH_GOLD * (2 * j + 1)) & ((1 << 64) - 1) | 1 for j in range(k)],
        dtype=np.uint64,
    )


def _shingle_hashes_flat(
    texts: list[str], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """All docs' sorted-unique shingle hashes as ONE flat int64 buffer +
    per-doc offsets. Tokenize (C split), siphash every token in one
    vectorized pass, window-mix with numpy slices over the whole batch
    buffer (doc-boundary-crossing positions excluded per doc), unique per
    doc. Docs shorter than ``k`` tokens get ONE whole-doc fold (the old
    single-shingle semantics). Replaces per-shingle ``' '.join`` +
    blake2b — the measured hot spot of the minhash/ngram suite."""
    toks_per_doc = [(t or "").lower().split() for t in texts]
    lens = np.fromiter(
        (len(x) for x in toks_per_doc), dtype=np.int64, count=len(toks_per_doc)
    )
    offs = np.concatenate([[0], np.cumsum(lens)])
    total = int(offs[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), np.zeros(
            len(texts) + 1, dtype=np.int64
        )
    flat_toks = np.empty(total, dtype=object)
    pos = 0
    for toks in toks_per_doc:
        flat_toks[pos : pos + len(toks)] = toks
        pos += len(toks)
    th = pd.util.hash_array(flat_toks)
    consts = _sh_consts(k)
    mod62 = np.uint64(1 << 62)
    with np.errstate(over="ignore"):
        n_all = max(len(th) - k + 1, 0)
        mix = np.zeros(n_all, dtype=np.uint64)
        for j in range(k):
            mix ^= th[j : j + n_all] * consts[j]
        mix62 = (mix % mod62).astype(np.int64)
        feats: list[np.ndarray] = []
        for d in range(len(texts)):
            s, L = int(offs[d]), int(lens[d])
            if L == 0:
                feats.append(np.empty(0, dtype=np.int64))
            elif L < k:
                h = th[s]
                for x in th[s + 1 : s + L]:
                    h = (h * _SH_P) ^ x
                feats.append(
                    np.array([np.int64(h % mod62)], dtype=np.int64)
                )
            else:
                feats.append(np.unique(mix62[s : s + L - k + 1]))
    counts = np.fromiter((len(a) for a in feats), dtype=np.int64, count=len(feats))
    out_offs = np.concatenate([[0], np.cumsum(counts)])
    flat = (
        np.concatenate(feats) if out_offs[-1] else np.empty(0, dtype=np.int64)
    )
    return flat, out_offs


def _shingle_hash_array(text: str, k: int = 3) -> np.ndarray:
    """Sorted unique int64 hashes of ONE doc's token shingles — the scalar
    twin of :func:`_shingle_hashes_flat` (identical values; tested). The
    verification feature for minhash/ngram dedup: 62-bit hashes stand in
    for the string sets; Jaccard is unchanged barring ~2^-62 collisions."""
    flat, _ = _shingle_hashes_flat([text], k)
    return flat


def shingle_features(
    ds: ray.data.Dataset, text_col: str, id_col: str, shingle_k: int
) -> ray.data.Dataset:
    """(id, feat: list<int64>) — per-doc shingle-hash sets, computed
    distributed (shingling never runs on the driver)."""

    def f(batch: pa.Table) -> pa.Table:
        flat, offs = _shingle_hashes_flat(
            batch[text_col].to_pylist(), shingle_k
        )
        la = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()), pa.array(flat, type=pa.int64())
        )
        return pa.table(
            {"id": batch[id_col].cast(pa.int64()), "feat": la.cast(pa.list_(pa.int64()))}
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _attach_feature(
    pairs: ray.data.Dataset,
    feats: ray.data.Dataset,
    key_col: str,
    pair_schema: pa.Schema,
    feat_type: pa.DataType,
) -> ray.data.Dataset:
    """Reduce-side left join: attach ``feats`` (id, feat) to ``pairs`` on
    ``key_col`` as ``feat_<key_col>`` without broadcasting the feature
    set — one two-sided ``utils.exchange`` bucketed by ``id % P`` (P from
    the cluster, as in ``bucketed_inner_join``), so a task holds only 1/P
    of the features whatever the corpus size. A pair whose id has no
    feature row gets a null feature."""
    out = pa.schema(list(pair_schema) + [(f"feat_{key_col}", feat_type)])

    def bucket(t: pa.Table, P: int) -> np.ndarray:
        key = t[key_col] if key_col in t.column_names else t["id"]
        return key.to_numpy(zero_copy_only=False).astype(np.int64) % P

    def attach(p: pa.Table | None, f: pa.Table | None) -> pa.Table:
        if p is None:
            return out.empty_table()
        keys = p[key_col].to_numpy(zero_copy_only=False)
        if f is None:
            feat = pa.nulls(len(keys), feat_type)
        else:
            fid = f["id"].to_numpy(zero_copy_only=False)
            order = np.argsort(fid, kind="stable")
            pos = np.minimum(np.searchsorted(fid[order], keys), len(fid) - 1)
            hit = fid[order][pos] == keys
            feat = f["feat"].cast(feat_type).take(pa.array(order[pos], mask=~hit))
        cols = [p[c] for c in pair_schema.names] + [feat]
        return pa.Table.from_arrays(cols, schema=out)

    return exchange([pairs, feats], bucket, attach, _default_partitions())


def _pair_features(
    cand: ray.data.Dataset, feats: ray.data.Dataset, feat_type: pa.DataType
) -> ray.data.Dataset:
    """(src, dst, feat_src, feat_dst): both endpoints' features attached
    to the candidate pairs by two :func:`_attach_feature` joins — the one
    verify path of every near-dup family (no whole-dataset object, no
    driver pass). ``feats`` is materialized once here, so the two joins
    do not each re-run the feature map over the input."""
    feats = feats.materialize()
    schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    for key in ("src", "dst"):
        cand = _attach_feature(cand, feats, key, schema, feat_type)
        schema = schema.append(pa.field(f"feat_{key}", feat_type))
    return cand


def _jaccard_keep(sa: set, sb: set, threshold: float) -> bool:
    """Exact Jaccard ≥ threshold over two sets. Python set ops measured
    FASTER than every vectorized alternative at typical shingle-set
    sizes (~50): 5 ms/1024 pairs vs 14 ms for a batch unique+intersect1d
    formulation — keep the simple thing."""
    union = len(sa | sb)
    return union > 0 and len(sa & sb) / union >= threshold


def _verify_jaccard(
    cand: ray.data.Dataset,
    ds: ray.data.Dataset,
    threshold: float,
    shingle_k: int,
    text_col: str,
    id_col: str,
    feats: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate ``(src, dst)`` pairs over
    the int64 shingle-hash sets; a missing feature reads as the empty
    set, which matches nothing. ``feats`` (shingle_features output) is
    reused when the caller already computed it — the minhash path
    shingles each doc exactly once."""
    if feats is None:
        feats = shingle_features(ds, text_col, id_col, shingle_k)
    pairs = _pair_features(cand, feats, pa.list_(pa.int64()))

    def verify(batch: pa.Table) -> pa.Table:
        fs = batch["feat_src"].to_pylist()
        fd = batch["feat_dst"].to_pylist()
        keep = [
            _jaccard_keep(set(a or ()), set(b or ()), threshold)
            for a, b in zip(fs, fd)
        ]
        return batch.select(["src", "dst"]).filter(pa.array(keep))

    return pairs.map_batches(verify, batch_format="pyarrow")


def _expand_buckets_distributed(
    sigs: ray.data.Dataset,
    keys: list[str],
    pair_fn,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Candidate-pair expansion without per-bucket task dispatch.

    ``groupby(bucket).map_groups`` pays Ray's per-group Python dispatch
    for EVERY bucket — at 5k docs × 16 bands that is ~80k mostly-
    singleton groups (measured 3.5 s where the whole stage should cost
    ~1 s). Instead: one hash ``utils.exchange`` of the bucket rows into
    ``num_partitions`` coarse key-disjoint groups (bounded dispatch
    count), then pairs are expanded in-process with a pandas groupby
    where a vectorized duplicated() mask drops singleton buckets before
    any Python loop. ``pair_fn(sub_df) -> DataFrame`` runs once per
    multi-row bucket.
    """
    empty = pa.table(
        {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
    )

    def expand(t: pa.Table | None) -> pa.Table:
        if t is None:
            return empty
        df = t.to_pandas()
        sub = df[df.duplicated(subset=keys, keep=False)]
        frames = [pair_fn(g) for _, g in sub.groupby(keys, sort=False)]
        frames = [f for f in frames if len(f)]
        if not frames:
            return empty
        out = pd.concat(frames, ignore_index=True)
        return pa.Table.from_pandas(out, schema=empty.schema, preserve_index=False)

    return exchange([sigs], hash_buckets(keys), expand, num_partitions)


def _bucket_pairs_capped(
    g: pd.DataFrame, id_col: str, max_bucket: int
) -> pd.DataFrame:
    """Within-bucket candidate pairs with an explosion guard: a bucket
    larger than ``max_bucket`` (e.g. thousands of empty or identical docs
    sharing one signature) emits a STAR (min id → every other id, n-1
    pairs) instead of all n·(n-1)/2 — identical docs still merge into one
    cluster through CC, pair count stays O(n), and the dup graph keeps
    diameter 2 so CC converges in O(1) supersteps (a chain would need
    O(n) min-label rounds).

    Recall caveat: in a MIXED over-cap bucket (a signature collision of
    dissimilar docs), only pairs involving the min id are generated, so
    true near-dups not touching the min id are never verified for this
    bucket — they can still surface via their other (bands-1) band
    buckets. The cap trades that residual recall for bounded work; the
    documented target is the identical/empty-doc pile-up, where the star
    is lossless."""
    ids = sorted(set(g[id_col]))
    if len(ids) < 2:
        return pd.DataFrame({"src": [], "dst": []}).astype(np.int64)
    if len(ids) > max_bucket:
        import logging

        logging.getLogger(__name__).warning(
            "LSH bucket of %d docs exceeds cap %d; emitting star pairs",
            len(ids),
            max_bucket,
        )
        return pd.DataFrame(
            {"src": [ids[0]] * (len(ids) - 1), "dst": ids[1:]}
        ).astype(np.int64)
    src, dst = zip(*combinations(ids, 2))
    return pd.DataFrame({"src": src, "dst": dst}).astype(np.int64)


def _hash64(s: str, seed: int = 0) -> int:
    h = hashlib.blake2b(s.encode(), digest_size=8, key=seed.to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
    keep: str = "first",
    quality_col: str | None = None,
) -> ray.data.Dataset:
    """(doc_id, content_hash, is_representative): sha256 the text, keep the
    min doc_id per hash.

    ``keep="best"`` selects the MAX-``quality_col`` row per hash instead
    (ties → min doc_id) — the keep-the-best-copy policy training-data
    pipelines want when duplicates differ in upstream quality metadata;
    ``quality_col`` must be a column of ``ds`` and is carried through the
    shuffle.

    ONE hash shuffle into ``num_partitions`` coarse hash-disjoint buckets
    (bounded task dispatch), then a fully vectorized in-bucket mark
    (``groupby(...).transform("min")`` — C hash agg, no per-group Python).
    The old ``groupby(content_hash).map_groups`` paid Ray's ~45 µs/group
    dispatch for EVERY distinct hash ≈ every unique doc (VERDICT r3 #2 —
    the same pathology measured and fixed in LSH bucket expansion,
    ``_expand_buckets_distributed``)."""
    if keep not in ("first", "best"):
        raise ValueError("keep must be 'first' or 'best'")
    if keep == "best" and not quality_col:
        raise ValueError("keep='best' needs quality_col")

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.sha256((t or "").encode()).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        cols = {id_col: batch[id_col], "content_hash": pa.array(hashes)}
        if keep == "best":  # only the best-policy mark consumes it
            cols[quality_col] = batch[quality_col]
        return pa.table(cols)

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")

    def mark(t: pa.Table | None) -> pa.Table:
        if t is None:  # only every bucket empty keeps this output
            return pa.table({})
        df = t.to_pandas()
        if keep == "first":
            rep = df.groupby("content_hash", sort=False)[id_col].transform(
                "min"
            )
            df["is_representative"] = df[id_col] == rep
        else:
            g = df.groupby("content_hash", sort=False)
            best_q = g[quality_col].transform("max")
            tied = df[quality_col] == best_q
            # min doc_id among the quality-tied rows (same transform
            # trick: ids of non-tied rows masked to +inf-equivalent)
            masked = df[id_col].where(tied, other=np.iinfo(np.int64).max)
            rep = masked.groupby(df["content_hash"], sort=False).transform(
                "min"
            )
            df["is_representative"] = tied & (df[id_col] == rep)
            df = df.drop(columns=quality_col)
        return pa.Table.from_pandas(df, preserve_index=False)

    return exchange(
        [hashed], hash_buckets(["content_hash"]), mark, num_partitions
    )


# ---------------------------------------------------------------------------
# Candidate-pair → cluster resolution (shared)
# ---------------------------------------------------------------------------


def resolve_dup_clusters(
    pairs: pa.Table | ray.data.Dataset,
    num_ids: int,
    engine: str = "auto",
    csr_partitions: int = 32,
    csr_workdir: str = "/tmp/citationgraphs_ray/dedup_csr",
) -> ray.data.Dataset:
    """Verified dup pairs (src, dst) → (id, cluster_id) via the CC kernel.

    ``num_ids`` = max doc id + 1 (doc ids must be dense-ish; sparse id
    spaces should be rank-compressed first). Singleton docs keep their own
    id as cluster. ``engine``: "broadcast" holds the label vector as one
    dense driver array (small-V fast path); "csr" runs the partition-actor
    BSP engine and drains the labels via ``CsrEngine.write_states`` —
    per-partition parquet shards written by the workers, so NO process
    (driver included) ever holds V-sized state on the 10^12-doc path.
    "auto" picks "broadcast" while its two V-sized int64 arrays (labels
    and ids) fit the driver budget (``utils.on_driver``), and "csr"
    above it. Both engines are exact and equivalence-tested.
    """
    if isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)
    else:
        # the CC engines execute their edge input more than once (count +
        # edge pull / per-superstep scans); pin the verified pair set —
        # tiny by definition — so a lazy verify pipeline upstream is not
        # re-run per pass (measured: 3 s of re-verified DP pairs per
        # execution on the edit-distance family before this)
        pairs = pairs.materialize()
    und = symmetrize_edges(pairs)
    if engine == "auto":
        engine = "broadcast" if on_driver(16 * num_ids) else "csr"
    if engine == "csr":
        import glob
        import shutil

        from ..graph.csr_engine import CsrEngine

        eng = CsrEngine(
            und.materialize(),
            num_ids,
            num_partitions=csr_partitions,
            workdir=csr_workdir,
        )
        try:
            _, _, converged = eng.connected_components(
                max_iters=max(100, csr_partitions), assemble=False
            )
            if not converged:  # must survive python -O, hence no assert
                raise RuntimeError(
                    "CSR connected-components did not converge within "
                    f"{max(100, csr_partitions)} supersteps; dup clusters "
                    "would be wrong"
                )
            # drain worker-held labels as per-partition shards — never a
            # V-sized driver array (fingerprint-keyed dir so a stale run
            # with different partitioning can't leave mixed shards behind)
            states_dir = os.path.join(csr_workdir, f"states_{eng.fingerprint}")
            shutil.rmtree(states_dir, ignore_errors=True)
            eng.write_states(states_dir)
        finally:
            eng.shutdown()
        shards = sorted(glob.glob(os.path.join(states_dir, "state-*.parquet")))
        return ray.data.read_parquet(shards, partitioning=None).map_batches(
            lambda t: pa.table(
                {
                    "id": t["id"],
                    "cluster_id": t["component"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    state = connected_components(und, num_ids).state
    ids = np.arange(num_ids, dtype=np.int64)
    return ray.data.from_arrow(
        pa.table({"id": pa.array(ids), "cluster_id": pa.array(state)})
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


class MinHashSigs:
    """Per-doc minhash signatures + banded LSH keys over PRECOMPUTED
    shingle-hash features (``shingle_features`` output) — text is
    shingled and blake2b-hashed exactly ONCE per pipeline (the feat
    table, which verification reuses); this stage is pure numpy: one
    (total_shingles × perm-chunk) universal-hash product with per-doc
    minima via ``minimum.reduceat`` over the Arrow list offsets. The
    per-doc-Python-hash version this replaces re-shingled every doc
    here AND in verify — together the dominant minhash_dedup cost.

    num_perms universal hash fns h_i(x) = (a_i·x + b_i) mod 2^64
    (seeded, a odd); bands of rows folded to one bucket key each. Emits
    (doc_id, band, bucket) rows — the only thing that shuffles.
    """

    def __init__(
        self,
        num_perms: int = 64,
        bands: int = 16,
        seed: int = 42,
        id_col: str = "doc_id",
    ) -> None:
        assert num_perms % bands == 0
        rng = np.random.default_rng(seed)
        # uint64 wraparound family h_i(x) = a_i·x + b_i mod 2^64 (a odd) —
        # fully vectorizable; adequate min-wise mixing for LSH bucketing
        self.a = (
            rng.integers(1, 1 << 63, size=num_perms, dtype=np.uint64) | np.uint64(1)
        )
        self.b = rng.integers(0, 1 << 63, size=num_perms, dtype=np.uint64)
        self.num_perms, self.bands = num_perms, bands
        self.rows_per_band = num_perms // bands
        self.id_col = id_col
        self._mix = np.uint64(0x9E3779B97F4A7C15)

    def _sig_matrix(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(n_docs, num_perms) minhash from the concatenated shingle
        hashes + list offsets. Empty docs keep the uint64 max sentinel
        (same as before: all-empty docs share one signature and are
        caught by the bucket cap, never false-merged — verify is exact).
        Perms are processed in chunks of 16 to bound the (S × chunk)
        temporary at ~25 MB for a 200k-shingle batch."""
        n = len(offsets) - 1
        out = np.full((n, self.num_perms), np.iinfo(np.uint64).max, dtype=np.uint64)
        if n == 0 or len(flat) == 0:
            return out
        starts = offsets[:-1]
        nonempty = offsets[1:] > starts
        if not nonempty.any():
            return out
        # reduceat segments run start_i .. next idx: empty docs between
        # two nonempty ones contribute zero rows, so consecutive nonempty
        # starts bound each doc's rows exactly
        idx = starts[nonempty].astype(np.int64)
        with np.errstate(over="ignore"):
            for p0 in range(0, self.num_perms, 16):
                vals = (
                    self.a[None, p0 : p0 + 16] * flat[:, None]
                    + self.b[None, p0 : p0 + 16]
                )
                out[nonempty, p0 : p0 + 16] = np.minimum.reduceat(
                    vals, idx, axis=0
                )
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch["feat"].combine_chunks()
        # offsets are absolute into .values (pyarrow keeps slice offsets
        # physical), so reduceat indexes the flat buffer directly
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_ids = batch["id"].to_numpy(zero_copy_only=False)
        n = len(doc_ids)
        sigs = self._sig_matrix(flat, offsets)
        # band keys: xor-multiply fold across the band's rows, vectorized
        # over (docs, bands)
        R = self.rows_per_band
        with np.errstate(over="ignore"):
            sb = sigs.reshape(n, self.bands, R)
            keys = np.zeros((n, self.bands), dtype=np.uint64)
            for r in range(R):
                keys = (keys ^ sb[:, :, r]) * self._mix
            keys ^= np.arange(self.bands, dtype=np.uint64)[None, :] * self._mix
        ids = np.repeat(doc_ids.astype(np.int64), self.bands)
        bands = np.tile(np.arange(self.bands, dtype=np.int64), n)
        buckets = (keys.ravel() >> np.uint64(2)).astype(np.int64)
        return pa.table(
            {
                self.id_col: pa.array(ids),
                "band": pa.array(bands),
                "bucket": pa.array(buckets),
            }
        )


def minhash_lsh_dedup(
    ds: ray.data.Dataset,
    threshold: float = 0.8,
    num_perms: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    seed: int = 42,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_ids: int | None = None,
    max_bucket: int = 200,
) -> ray.data.Dataset:
    """MinHash-LSH near-dedup → (id, cluster_id).

    shingle → minhash → band-bucket groupby (buckets over ``max_bucket``
    emit min-id STAR pairs, not all pairs — O(n) candidates even when
    thousands of empty/identical docs share one signature; see
    ``_bucket_pairs_capped`` for the mixed-bucket recall caveat) → exact
    Jaccard verification (partitioned reduce-side feature join, no
    whole-dataset object) → CC over verified pairs.
    """
    # shingle + hash each doc exactly ONCE: the compact (id, feat) table
    # is materialized and feeds BOTH the signature stage (numpy minhash
    # over the flat list buffer) and exact-Jaccard verification — the
    # text column is read once and never re-shingled (was 3 full text
    # passes: max, sigs, verify). At scale the feat table is far smaller
    # than the corpus and spills to the object store rather than
    # recomputing.
    feats = shingle_features(ds, text_col, id_col, shingle_k).materialize()
    if num_ids is None:
        num_ids = int(feats.max("id")) + 1
    # a prebuilt INSTANCE makes this a task-pool stage: the state is two
    # 64-element uint64 arrays (cheap to ship per task), while a callable
    # CLASS would spin an actor pool per execution (~1-2 s fixed cost
    # that the numpy signature kernel never repays)
    sigs = feats.map_batches(
        MinHashSigs(
            num_perms=num_perms, bands=bands, seed=seed, id_col=id_col
        ),
        batch_format="pyarrow",
    )

    cand = fast_distinct(
        _expand_buckets_distributed(
            sigs,
            ["band", "bucket"],
            lambda g: _bucket_pairs_capped(g, id_col, max_bucket),
        ),
        ["src", "dst"],
    )
    verified = _verify_jaccard(
        cand, ds, threshold, shingle_k, text_col, id_col, feats=feats
    )
    return resolve_dup_clusters(verified, num_ids)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_MERSENNE_MOD = (1 << 61) - 1
_MERSENNE_TOKEN_CAP = 12


def mersenne_token_hash(w: str) -> int:
    """SQL-twin-able token hash: polynomial base-257 fold of the first
    ``_MERSENNE_TOKEN_CAP`` code points mod 2^61−1 — the same arithmetic
    DuckDB reproduces with a HUGEINT power table (the fingerprints-oracle
    trick, queries._FINGERPRINTS_SQL). The default blake2b ``_hash64`` has
    no SQL twin; injecting this into :func:`simhash64` lets the
    simhash_exact gate hash-check the WHOLE verify+resolve path against
    an independent SQL oracle."""
    h = 0
    for c in w[:_MERSENNE_TOKEN_CAP]:
        h = (h * 257 + ord(c)) % _MERSENNE_MOD
    return h


def simhash64(text: str, token_hash=_hash64) -> int:
    """64-bit SimHash over whitespace tokens weighted by count.

    All words' hashes are expanded into ONE (n_words × 64) sign matrix and
    reduced with a single matvec-shaped sum — the per-word 64-element
    numpy op it replaces was ~10-100× slower on realistic docs (VERDICT
    r3 #5); hash inputs are unchanged, so values are identical.
    ``token_hash`` defaults to blake2b; the exact-gate path injects
    :func:`mersenne_token_hash` (61-bit) so the value has a SQL twin."""
    counts: dict[str, int] = {}
    for w in (text or "").lower().split():
        counts[w] = counts.get(w, 0) + 1
    if not counts:
        return 0
    h = np.fromiter(
        (token_hash(w) for w in counts), dtype=np.uint64, count=len(counts)
    )
    c = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    )
    acc = ((2 * bits - 1) * c[:, None]).sum(axis=0)
    powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return int(powers[acc > 0].sum())


def _hamming_pairs(
    recs: list[tuple[int, int]], max_hamming: int, max_bucket: int
) -> pd.DataFrame:
    """Hamming-verified (src, dst) pairs from a bucket's [(id, simhash)]
    records — THE simhash verify predicate, shared verbatim between the
    banded-LSH path and the all-pairs simhash_exact gate. Buckets over
    ``max_bucket`` emit a hamming-checked min-id STAR instead of all
    pairs (identical docs still merge into one cluster; pair count stays
    O(n); same mixed-bucket recall caveat as ``_bucket_pairs``)."""
    empty = pd.DataFrame({"src": [], "dst": []}).astype(np.int64)
    if len(recs) < 2:
        return empty
    if len(recs) > max_bucket:  # explosion guard: star from min id
        import logging

        logging.getLogger(__name__).warning(
            "SimHash bucket of %d docs exceeds cap %d; star pairs",
            len(recs),
            max_bucket,
        )
        cand_pairs = [(recs[0], r) for r in recs[1:]]
    else:
        cand_pairs = list(combinations(recs, 2))
    out = [
        (a, b)
        for (a, ha), (b, hb) in cand_pairs
        if bin((ha ^ hb) & 0xFFFFFFFFFFFFFFFF).count("1") <= max_hamming
    ]
    if not out:
        return empty
    s, d = zip(*out)
    return pd.DataFrame({"src": s, "dst": d}).astype(np.int64)


def simhash_dedup(
    ds: ray.data.Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_ids: int | None = None,
    max_bucket: int = 200,
    token_hash=_hash64,
    all_pairs: bool = False,
) -> ray.data.Dataset:
    """SimHash near-dedup → (id, cluster_id). 4 bands of 16 bits: any pair
    within hamming ≤ 3 shares at least one full band (pigeonhole), so
    blocking on band values finds all candidates; verify true distance.
    The full simhash travels WITH the bucket rows, so verification is
    in-bucket — already broadcast-free.

    ``all_pairs=True`` is the EXACT-mode gate (the minhash_exact trick):
    banding is disabled — every doc lands in one bucket, so ALL pairs go
    through the SAME :func:`_hamming_pairs` verify and the same cluster
    resolution; combined with ``token_hash=mersenne_token_hash`` the whole
    path is hash-checkable against a pure-SQL simhash+bit_count oracle.
    Only for small subsets (one O(n²) bucket) — the banded path is the
    scale engine."""
    if num_ids is None:
        num_ids = int(ds.max(id_col)) + 1

    def sig(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        bands: list[int] = []
        vals: list[int] = []
        hashes: list[int] = []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            h = simhash64(t or "", token_hash)
            h_signed = h - (1 << 64) if h >= (1 << 63) else h  # int64-safe
            for b in range(1 if all_pairs else 4):
                ids.append(i)
                bands.append(b)
                vals.append(0 if all_pairs else (h >> (16 * b)) & 0xFFFF)
                hashes.append(h_signed)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "band": pa.array(bands, type=pa.int64()),
                "value": pa.array(vals, type=pa.int64()),
                "simhash": pa.array(hashes, type=pa.int64()),
            }
        )

    sigs = ds.map_batches(sig, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        rows = g.drop_duplicates(id_col).sort_values(id_col)
        return _hamming_pairs(
            list(zip(rows[id_col], rows["simhash"])), max_hamming, max_bucket
        )

    verified = fast_distinct(
        _expand_buckets_distributed(sigs, ["band", "value"], bucket_pairs),
        ["src", "dst"],
    )
    return resolve_dup_clusters(verified, num_ids)


# ---------------------------------------------------------------------------
# N-gram Jaccard (no sketch — blocking on rare shingles)
# ---------------------------------------------------------------------------


def ngram_jaccard_dedup(
    ds: ray.data.Dataset,
    threshold: float = 0.8,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_ids: int | None = None,
    max_bucket: int = 50,
) -> ray.data.Dataset:
    """Exact n-gram-Jaccard dedup with shingle blocking: docs sharing any
    shingle are candidates. Buckets larger than ``max_bucket`` are DROPPED
    (a shingle shared by that many docs is a stop-shingle carrying no
    signal — unlike the minhash/simhash full-signature buckets, which
    emit a min-id star instead). Verify exact Jaccard (partitioned
    feature join), cluster via CC."""
    if num_ids is None:
        num_ids = int(ds.max(id_col)) + 1

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        shs: list[int] = []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            for s in _token_shingles(t or "", shingle_k):
                ids.append(i)
                shs.append(_hash64(s) % (1 << 62))
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "shingle": pa.array(shs, type=pa.int64()),
            }
        )

    rows = ds.map_batches(shingle_rows, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(set(g[id_col]))
        if len(ids) < 2 or len(ids) > max_bucket:  # hot-shingle guard
            return pd.DataFrame({"src": [], "dst": []}).astype(np.int64)
        src, dst = zip(*combinations(ids, 2))
        return pd.DataFrame({"src": src, "dst": dst}).astype(np.int64)

    cand = fast_distinct(
        _expand_buckets_distributed(rows, ["shingle"], bucket_pairs),
        ["src", "dst"],
    )
    verified = _verify_jaccard(cand, ds, threshold, shingle_k, text_col, id_col)
    return resolve_dup_clusters(verified, num_ids)


# ---------------------------------------------------------------------------
# Edit-distance (Levenshtein) near-dup
# ---------------------------------------------------------------------------


def _levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Levenshtein distance via the row DP, vectorized over ``b``: the
    substitution/deletion row is one numpy minimum, the serial insertion
    chain cur[j] = min(cur[j], cur[j-1]+1) collapses to
    minimum.accumulate(cur - j) + j (d[j] = cur[j] - j is non-increasing
    under min-plus-1 from the left). len(a) numpy passes of width len(b)
    instead of a len(a)·len(b) Python loop.

    ``limit``: early-out — once every cell of a row exceeds it, returns
    limit + 1 (callers only need "is the distance ≤ limit").
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    if limit is not None and abs(la - lb) > limit:
        return limit + 1
    bb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    idx = np.arange(lb + 1, dtype=np.int64)
    prev = idx.copy()
    cur = np.empty(lb + 1, dtype=np.int64)
    for i, ca in enumerate(a, 1):
        sub = prev[:-1] + (bb != ord(ca))
        cur[0] = i
        np.minimum(prev[1:] + 1, sub, out=cur[1:])
        np.subtract(cur, idx, out=cur)
        np.minimum.accumulate(cur, out=cur)
        np.add(cur, idx, out=cur)
        prev, cur = cur, prev
        if limit is not None and int(prev.min()) > limit:
            return limit + 1
    return int(prev[lb])


def _edit_keep(a: str | None, b: str | None, max_ratio: float) -> bool:
    """Normalized-distance predicate: lev(a,b) / max(len a, len b, 1)
    ≤ max_ratio, with the same double division a SQL twin computes."""
    a = a or ""
    b = b or ""
    if a == b:
        return True
    m = max(len(a), len(b), 1)
    limit = int(max_ratio * m) + 1  # band upper bound, never cuts boundary
    d = _levenshtein(a, b, limit)
    return d / m <= max_ratio


def _text_features(
    ds: ray.data.Dataset, text_col: str, id_col: str
) -> ray.data.Dataset:
    def f(t: pa.Table) -> pa.Table:
        return pa.table(
            {"id": t[id_col].cast(pa.int64()), "feat": t[text_col]}
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _verify_edit_distance(
    cand: ray.data.Dataset,
    ds: ray.data.Dataset,
    max_ratio: float,
    text_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """:func:`_pair_features` with the raw text as the pair feature and
    the banded DP as the predicate; a missing text reads as ""."""
    pairs = _pair_features(cand, _text_features(ds, text_col, id_col), pa.string())

    def verify(batch: pa.Table) -> pa.Table:
        keep = [
            _edit_keep(a, b, max_ratio)
            for a, b in zip(
                batch["feat_src"].to_pylist(), batch["feat_dst"].to_pylist()
            )
        ]
        return batch.select(["src", "dst"]).filter(pa.array(keep))

    return pairs.map_batches(verify, batch_format="pyarrow")


def edit_distance_dedup(
    ds: ray.data.Dataset,
    max_ratio: float = 0.25,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_ids: int | None = None,
    max_bucket: int = 50,
    min_shared: int = 5,
) -> ray.data.Dataset:
    """Near-dup clusters under normalized Levenshtein distance:
    lev(a, b) / max(len a, len b, 1) ≤ ``max_ratio``.

    Candidates come from the ngram family's shingle blocking sharpened by
    a shared-shingle COUNT: a pair must share ≥ ``min_shared`` distinct
    non-stop shingles (buckets above ``max_bucket`` dropped). The count
    is the blocking's recall knob — an edit-close pair shares many
    windows, a topically-similar far pair only a few (measured at sf0.1:
    ≥5 keeps 305 of 1.13M any-shared pairs and ALL 256 true dups; the
    single-shared rule made the DP verify 3700× over-verify).
    Verification is the banded numpy row-DP over the surviving pairs;
    clustering is the CC kernel."""
    # three consumers (num_ids max, shingle blocking, text verify) — pin
    # the projected input in the object store instead of re-running the
    # upstream read per consumer (measured ~4 s of re-read/re-shingle at
    # sf0.01 without this)
    ds = ds.select_columns([id_col, text_col]).materialize()
    if num_ids is None:
        num_ids = int(ds.max(id_col)) + 1

    feats = shingle_features(ds, text_col, id_col, shingle_k)

    def explode(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(t["feat"]).to_numpy(zero_copy_only=False)
        ids = np.repeat(t["id"].to_numpy(zero_copy_only=False), n)
        return pa.table(
            {id_col: pa.array(ids), "shingle": pc.list_flatten(t["feat"])}
        )

    rows = feats.map_batches(explode, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(set(g[id_col]))
        if len(ids) < 2 or len(ids) > max_bucket:  # hot-shingle guard
            return pd.DataFrame({"src": [], "dst": []}).astype(np.int64)
        src, dst = zip(*combinations(ids, 2))
        return pd.DataFrame({"src": src, "dst": dst}).astype(np.int64)

    # one pair row PER shared shingle → grouped count → min_shared filter
    # (shingle sets are per-doc distinct, so count == |shared shingles|)
    pair_counts = fast_grouped_agg(
        _expand_buckets_distributed(rows, ["shingle"], bucket_pairs),
        ["src", "dst"],
        count_as="shared",
    )
    cand = pair_counts.filter(
        expr=f"shared >= {int(min_shared)}"
    ).select_columns(["src", "dst"])
    verified = _verify_edit_distance(cand, ds, max_ratio, text_col, id_col)
    return resolve_dup_clusters(verified, num_ids)


# ---------------------------------------------------------------------------
# Embedding cosine near-dup (random-hyperplane LSH)
# ---------------------------------------------------------------------------


def embedding_cosine_dedup(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    num_planes: int = 16,
    num_tables: int = 4,
    seed: int = 42,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    num_ids: int | None = None,
    max_bucket: int = 200,
) -> ray.data.Dataset:
    """Near-dup on an embedding column: sign-LSH buckets (num_tables
    independent sets of num_planes hyperplanes) → candidates (buckets over
    ``max_bucket`` emit a min-id star instead of exploding) → exact cosine
    verification (partitioned feature join) → CC clusters."""
    if num_ids is None:
        num_ids = int(ds.max(id_col)) + 1

    # a plain function keeps this a task-pool stage: an actor pool behind
    # a lazy read can wait forever in a 1-CPU session, whose one CPU the
    # read tasks hold. The seed fixes the planes, so every task draws the
    # same ones for the batch's dimension.
    def buckets(batch: pa.Table) -> pa.Table:
        vecs = list_column_to_matrix(batch[vec_col])
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        planes = np.random.default_rng(seed).standard_normal(
            (num_tables, num_planes, vecs.shape[1])
        )
        keys = np.concatenate(
            [
                ((vecs @ planes[t].T) > 0) @ (1 << np.arange(num_planes))
                for t in range(num_tables)
            ]
        ).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(np.tile(ids, num_tables)),
                "table": pa.array(
                    np.repeat(np.arange(num_tables, dtype=np.int64), len(ids))
                ),
                "key": pa.array(keys),
            }
        )

    cand = fast_distinct(
        _expand_buckets_distributed(
            ds.map_batches(buckets, batch_format="pyarrow"),
            ["table", "key"],
            lambda g: _bucket_pairs_capped(g, id_col, max_bucket),
        ),
        ["src", "dst"],
    )
    verified = _verify_cosine(cand, ds, threshold, vec_col, id_col)
    return resolve_dup_clusters(verified, num_ids)


def _verify_cosine(
    cand: ray.data.Dataset,
    ds: ray.data.Dataset,
    threshold: float,
    vec_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """Exact-cosine verification of candidate ``(src, dst)`` pairs against
    the vectors in ``ds`` — the shared verify stage of the embedding
    near-dup path (LSH candidates) and its all-pairs exact-mode oracle
    twin. Normalizes map-side, then attaches both endpoint features by
    :func:`_pair_features`; a missing vector matches nothing."""

    def norm_feats(batch: pa.Table) -> pa.Table:
        vecs = list_column_to_matrix(batch[vec_col])
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return pa.table(
            {
                "id": batch[id_col].cast(pa.int64()),
                "feat": matrix_to_list_array(vecs / norms),
            }
        )

    pairs = _pair_features(
        cand,
        ds.map_batches(norm_feats, batch_format="pyarrow"),
        pa.list_(pa.float64()),
    )

    def verify(batch: pa.Table) -> pa.Table:
        try:
            A = list_column_to_matrix(batch["feat_src"])
            B = list_column_to_matrix(batch["feat_dst"])
            keep = pa.array((A * B).sum(axis=1) >= threshold)
        except ValueError:
            # null / ragged feature rows (unmatched ids) — slow path
            fs = batch["feat_src"].to_pylist()
            fd = batch["feat_dst"].to_pylist()
            keep = pa.array(
                [
                    bool(a)
                    and bool(b)
                    and float(np.dot(np.asarray(a), np.asarray(b)))
                    >= threshold
                    for a, b in zip(fs, fd)
                ]
            )
        return batch.select(["src", "dst"]).filter(keep)

    return pairs.map_batches(verify, batch_format="pyarrow")
