"""Sampling, quantile and sketch operators for 100-TB-scale pipelines.

These are the "pipeline hygiene" operators a training-data engine needs
next to dedup/ANN (build brief, first-class components): deterministic
sampling, exact distributed quantiles, heavy hitters, and approximate
distinct counting. Every operator here is a composition of map_batches
passes over ONE pruned column plus a tiny (≤ sketch-sized) reduce — no
all-to-all shuffle, no driver-side row iteration, nothing proportional
to the dataset ever lands on the driver:

- ``hash_sample`` / ``stratified_sample``: Fibonacci-hash based, fully
  deterministic (same rows on any partitioning / cluster size / rerun),
  map-only (sample) or one bounded-dispatch coarse-bucket pass
  (stratified). Deterministic hashing instead of RNG sampling is the
  100-TB-correct choice: resumable runs and retried tasks reproduce the
  exact same sample. The hash arithmetic is chosen to be expressible in
  ANSI SQL HUGEINT arithmetic so the driver's DuckDB oracle can verify
  row-for-row equality (see pipelines/queries.py hash_sample_orders).
- ``exact_quantiles``: multi-pass histogram refinement — O(log_B(N))
  streaming passes each reading one column, exchanging only a B-bin
  count vector; returns EXACT order statistics (quantile_disc
  semantics), unlike t-digest-style sketches.
- ``heavy_hitters``: per-block C++ group-counts compressed to a
  Misra-Gries summary (mergeable; candidate guarantee below) + one
  exact recount pass over the broadcast candidate set → exact top-k
  under the documented skew condition.
- ``hll_registers`` / ``approx_distinct``: HyperLogLog with exact
  vectorized clz; per-block registers are 2^p bytes, merged by
  element-wise max (mergeable across any partitioning).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..utils import collect_table, fast_grouped_agg

# Fibonacci multiplicative hashing constant (2^64 / golden ratio; public
# domain technique — Knuth TAOCP vol 3 §6.4). The SQL twin used by the
# correctness oracle computes the identical value with HUGEINT
# arithmetic: ((key + seed) * 11400714819323198485) % 2^64, then the
# well-mixed HIGH 32 bits ( // 2^32 ) are used — the low bits of a pure
# multiplicative hash are poorly mixed (bit i of the product depends
# only on bits ≤ i of the key).
FIB64 = np.uint64(0x9E3779B97F4A7C15)
SAMPLE_BUCKETS = 10_000


def _key_hash(keys: np.ndarray, seed: int) -> np.ndarray:
    """(key + seed) * FIB64 mod 2^64 over non-negative integer keys.

    Negative keys are rejected rather than silently wrapped: the uint64
    cast would still produce a deterministic sample, but one that no
    longer matches the HUGEINT SQL twin (DuckDB computes the signed
    value), breaking the oracle-parity contract."""
    if len(keys) and keys.min() < 0:
        raise ValueError("hash keys must be non-negative (SQL-parity contract)")
    k = keys.astype(np.uint64, copy=False)
    return (k + np.uint64(seed)) * FIB64


def hash_bucket(
    keys: np.ndarray, seed: int, buckets: int = SAMPLE_BUCKETS
) -> np.ndarray:
    """Deterministic bucket in [0, buckets) from the hash's high bits."""
    h = _key_hash(keys, seed)
    return ((h >> np.uint64(32)) % np.uint64(buckets)).astype(np.int64)


def hash_order_key(keys: np.ndarray, seed: int) -> np.ndarray:
    """Full high-32-bit hash value (int64-safe) for deterministic
    pseudo-random ORDERING (stratified sampling). SQL twin:
    ``(((key + seed)::HUGEINT * 11400714819323198485) % 2^64) // 2^32``."""
    return (_key_hash(keys, seed) >> np.uint64(32)).astype(np.int64)


def hash_sample(
    ds: ray.data.Dataset, key_col: str, rate: float, seed: int = 41
) -> ray.data.Dataset:
    """Deterministic ~``rate`` uniform sample keyed on ``key_col``.

    Map-only (zero shuffle): a row survives iff its key's hash bucket
    falls below ``rate * 10000``. The same key always makes the same
    decision — across reruns, retries, partitionings and cluster sizes —
    which is what makes downstream experiments reproducible and the
    sample joinable across tables sharing the key. Keys must be
    non-negative integers (the SQL-parity contract).
    """
    thresh = int(round(rate * SAMPLE_BUCKETS))

    def pick(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(hash_bucket(keys, seed) < thresh))

    return ds.map_batches(pick, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    stratum_col: str,
    key_col: str,
    n: int,
    seed: int = 41,
) -> ray.data.Dataset:
    """Deterministic n-per-stratum sample: the n rows of each stratum
    whose keys hash lowest (ties broken by key asc).

    Equivalent to a seeded per-stratum reservoir sample but exactly
    reproducible under any partitioning. One bounded-dispatch pass:
    strata are hash-partitioned into P ≈ CPUs coarse buckets and each
    bucket selects with ONE vectorized sort + cython groupby-head — not
    ``groupby(stratum).map_groups`` (per-group Python dispatch is the
    measured ~45 µs/group pathology; see cooccur.top_k_tfidf_per_doc).
    """
    from ..utils import _default_partitions, exchange, hash_buckets

    out_cols = [c for c in ds.schema().names]

    def add_h(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        return t.append_column("__h", pa.array(hash_order_key(keys, seed)))

    def pick_bucket(t: pa.Table | None) -> pa.Table:
        if t is None:  # only every bucket empty keeps this output
            return pa.table({})
        df = (
            t.to_pandas()
            .sort_values(
                [stratum_col, "__h", key_col],
                ascending=True,
                kind="mergesort",
            )
            .groupby(stratum_col, sort=False)
            .head(n)[out_cols]
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    return exchange(
        [ds.map_batches(add_h, batch_format="pyarrow")],
        hash_buckets([stratum_col]),
        pick_bucket,
        _default_partitions(),
    )


# ---------------------------------------------------------------------------
# Exact distributed quantiles (multi-pass histogram refinement)
# ---------------------------------------------------------------------------

QUANTILE_BINS = 4096
QUANTILE_COLLECT_CUTOFF = 65_536
QUANTILE_MAX_COLLECT = 5_000_000


def _rank_for(q: float, n: int) -> int:
    """quantile_disc target rank, 1-indexed over the ascending sort:
    max(1, ceil(q*n)) — calibrated against DuckDB quantile_disc."""
    return max(1, int(math.ceil(q * n)))


def _col_values(t: pa.Table, col: str) -> np.ndarray:
    v = t[col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    return v[~np.isnan(v)]


def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    bins: int = QUANTILE_BINS,
    cutoff: int = QUANTILE_COLLECT_CUTOFF,
) -> list[tuple[float, float]]:
    """EXACT discrete quantiles (DuckDB ``quantile_disc`` semantics:
    the value at 1-indexed rank max(1, ceil(q*N)) of the ascending
    sort, NaNs excluded) via multi-pass histogram refinement.

    Scale shape: each pass is a streaming ``map_batches`` over the ONE
    pruned column; blocks exchange only a ``bins``-sized count vector
    (pre-merged by ``fast_grouped_agg``'s C++ combiner), so the driver
    never holds more than B·len(qs) integers until the final pass,
    which collects only the ≤``cutoff`` values inside each quantile's
    narrowed interval. Interval width shrinks ×``bins`` per pass —
    2 histogram passes bound 10^9 rows, 3 bound 10^13. Degenerate
    float intervals (≤2 representable values but huge counts, e.g.
    10^9 copies of two adjacent floats) resolve with an exact counting
    pass instead of a collect.

    Caller note: ``ds`` is re-executed once per pass — pass a dataset
    whose lineage is a pruned parquet read (cheap re-scan), or
    ``materialize()`` it first if upstream is expensive. Values are
    binned in float64, so integer columns beyond 2^53 may alias within
    a bin; the final selection still returns an exact element, but rank
    ties between integers that collide as floats resolve in float
    order.
    """
    if not qs:
        return []

    # pass 0: global count / min / max (one tiny row per block)
    def stats(t: pa.Table) -> pa.Table:
        v = _col_values(t, col)
        if np.isinf(v).any():
            # an inf min/max poisons np.linspace ([nan, inf, ...] edges →
            # all-zero histograms → wrong intervals / IndexError deep in
            # the refinement loop); fail loud at the boundary instead
            raise ValueError(
                f"exact_quantiles: non-finite values in {col!r} — filter "
                "±inf upstream (NaNs are excluded automatically)"
            )
        if len(v) == 0:
            return pa.table(
                {"n": pa.array([], pa.int64()), "lo": pa.array([], pa.float64()),
                 "hi": pa.array([], pa.float64())}
            )
        return pa.table(
            {"n": [len(v)], "lo": [float(v.min())], "hi": [float(v.max())]}
        )

    st = collect_table(ds.map_batches(stats, batch_format="pyarrow"))
    if st.num_rows == 0:
        raise ValueError(f"exact_quantiles: no non-null values in {col!r}")
    n_total = int(pa.compute.sum(st["n"]).as_py())
    glo = float(pa.compute.min(st["lo"]).as_py())
    ghi = float(pa.compute.max(st["hi"]).as_py())

    # per-quantile state: (lo, hi, below) with invariant
    #   below == #values < lo, and the target value sits in [lo, hi]
    state = {
        i: [glo, ghi, 0, _rank_for(q, n_total)] for i, q in enumerate(qs)
    }
    results: dict[int, float] = {}

    def interval_count_pass(intervals: list[tuple[float, float]]):
        """One streaming pass: per interval, bins-histogram of values in
        [lo, hi] plus the count of values strictly below lo."""
        edges = [np.linspace(lo, hi, bins + 1) for lo, hi in intervals]

        def hist(t: pa.Table) -> pa.Table:
            v = _col_values(t, col)
            iv, bn, ct = [], [], []
            for i, (lo, hi) in enumerate(intervals):
                cnt, _ = np.histogram(v, bins=edges[i])
                nz = np.nonzero(cnt)[0]
                iv.extend([i] * (len(nz) + 1))
                bn.extend(nz.tolist())
                ct.extend(cnt[nz].tolist())
                bn.append(-1)  # sentinel bin: below-lo count
                ct.append(int((v < lo).sum()))
            return pa.table(
                {
                    "iv": pa.array(iv, pa.int64()),
                    "bin": pa.array(bn, pa.int64()),
                    "cnt": pa.array(ct, pa.int64()),
                }
            )

        merged = collect_table(
            fast_grouped_agg(
                ds.map_batches(hist, batch_format="pyarrow"),
                ["iv", "bin"],
                {"n": ("cnt", "sum")},
            )
        )
        out = []
        miv = merged["iv"].to_numpy(zero_copy_only=False)
        mbin = merged["bin"].to_numpy(zero_copy_only=False)
        mn = merged["n"].to_numpy(zero_copy_only=False)
        for i in range(len(intervals)):
            sel = miv == i
            counts = np.zeros(bins, dtype=np.int64)
            b, c = mbin[sel], mn[sel]
            below = int(c[b == -1].sum())
            inb = b >= 0
            counts[b[inb]] = c[inb]
            out.append((counts, below, edges[i]))
        return out

    max_rounds = 6
    for _ in range(max_rounds):
        active = {
            i: s
            for i, s in state.items()
            if i not in results
        }
        if not active:
            break
        # exact-lo degenerate intervals resolve immediately
        for i, (lo, hi, below, rank) in list(active.items()):
            if lo == hi:
                results[i] = lo
                del active[i]
        if not active:
            break
        intervals = sorted({(s[0], s[1]) for s in active.values()})
        ivmap = {iv: j for j, iv in enumerate(intervals)}
        passed = interval_count_pass(intervals)
        done_enough = True
        for i, (lo, hi, below, rank) in active.items():
            counts, pass_below, edges = passed[ivmap[(lo, hi)]]
            # recompute the exact below-lo offset from this pass (guards
            # against any drift; counts are exact integers)
            below = pass_below
            need = rank - below
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, need))
            new_lo = float(edges[b])
            new_hi = float(edges[b + 1]) if b + 1 < len(edges) else hi
            in_bin = int(counts[b])
            below += int(cum[b - 1]) if b > 0 else 0
            if b == bins - 1:
                new_hi = hi  # last np.histogram bin is right-closed
            state[i] = [new_lo, new_hi, below, rank]
            if in_bin > cutoff and np.nextafter(new_lo, new_hi) < new_hi:
                done_enough = False
        if done_enough:
            break

    # final pass: resolve every unfinished quantile exactly
    pending = [i for i in state if i not in results]
    if pending:
        finals = sorted({(state[i][0], state[i][1]) for i in pending})
        fmap = {iv: j for j, iv in enumerate(finals)}

        # a degenerate interval has ≤2 representable float values but may
        # hold arbitrarily many rows — resolve it with COUNTS (kind -1 =
        # below-lo, -2 = count(v == lo), -3 = count(v == hi)), never a
        # value collect; non-degenerate intervals are under ``cutoff``
        # rows total and ship their values (kind 0)
        degenerate = [
            np.nextafter(lo, hi) >= hi for lo, hi in finals
        ]

        def final_pass(t: pa.Table) -> pa.Table:
            v = _col_values(t, col)
            rows_iv, rows_kind, rows_val = [], [], []
            for j, (lo, hi) in enumerate(finals):
                below = int((v < lo).sum())
                rows_iv.append(j)
                rows_kind.append(-1)
                rows_val.append(float(below))
                if degenerate[j]:
                    rows_iv.extend([j, j])
                    rows_kind.extend([-2, -3])
                    rows_val.extend(
                        [float((v == lo).sum()), float((v == hi).sum())]
                    )
                    continue
                sel = v[(v >= lo) & (v <= hi)]
                if len(sel) > QUANTILE_MAX_COLLECT:
                    raise ValueError(
                        "exact_quantiles: interval holds "
                        f"{len(sel)} values in one block; raise bins/cutoff"
                    )
                rows_iv.extend([j] * len(sel))
                rows_kind.extend([0] * len(sel))
                rows_val.extend(sel.tolist())
            return pa.table(
                {
                    "iv": pa.array(rows_iv, pa.int64()),
                    "kind": pa.array(rows_kind, pa.int64()),
                    "val": pa.array(rows_val, pa.float64()),
                }
            )

        ft = collect_table(ds.map_batches(final_pass, batch_format="pyarrow"))
        fiv = ft["iv"].to_numpy(zero_copy_only=False)
        fkind = ft["kind"].to_numpy(zero_copy_only=False)
        fval = ft["val"].to_numpy(zero_copy_only=False)
        for i in pending:
            lo, hi = state[i][0], state[i][1]
            j = fmap[(lo, hi)]
            sel = fiv == j
            below = int(fval[sel & (fkind == -1)].sum())
            r = state[i][3] - below
            if degenerate[j]:
                n_lo = int(fval[sel & (fkind == -2)].sum())
                n_hi = int(fval[sel & (fkind == -3)].sum())
                if not (1 <= r <= n_lo + n_hi):
                    raise AssertionError(
                        f"exact_quantiles rank bookkeeping: r={r} of "
                        f"{n_lo}+{n_hi}"
                    )
                results[i] = lo if r <= n_lo else hi
                continue
            vals = np.sort(fval[sel & (fkind == 0)])
            if not (1 <= r <= len(vals)):
                raise AssertionError(
                    f"exact_quantiles rank bookkeeping: r={r} of {len(vals)}"
                )
            results[i] = float(vals[r - 1])

    return [(q, results[i]) for i, q in enumerate(qs)]


# ---------------------------------------------------------------------------
# Heavy hitters (Misra-Gries candidates + exact recount)
# ---------------------------------------------------------------------------

HH_CAPACITY = 8192


def _mg_compress(vals: np.ndarray, cnts: np.ndarray, m: int):
    """Misra-Gries compression to ≤ m counters: subtract the (m+1)-th
    largest count from all, drop non-positive. Underestimates each
    survivor by ≤ (the subtracted threshold); total error ≤ N/(m+1)."""
    if len(vals) <= m:
        return vals, cnts
    thr = np.partition(cnts, -(m + 1))[-(m + 1)]
    # strictly-greater keeps ≤ m survivors by the order-statistic
    # definition (at most m elements exceed the (m+1)-th largest), so no
    # tie fallback is needed; threshold ties are simply dropped, which
    # MG permits (they are the counters the subtraction would zero)
    keep = cnts > thr
    return vals[keep], cnts[keep] - thr


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str,
    k: int = 10,
    capacity: int = HH_CAPACITY,
) -> pa.Table:
    """EXACT top-k most frequent values of ``col`` (count desc, value
    asc), computed with a two-pass candidate/verify shape that never
    shuffles full per-value counts:

    1. Per block: C++ ``pa.Table.group_by`` exact counts, Misra-Gries
       compressed to ≤ ``capacity`` counters (a few KB). Summaries are
       weight-summed per value by ``fast_grouped_agg`` (distributed
       combine) and compressed once more → candidate set ≤ capacity.
    2. The broadcast candidate set is exactly recounted in one
       streaming filter+aggregate pass; top-k of the exact counts is
       returned.

    Guarantee (mergeable-summaries bound, one merge level): any value
    with true frequency > 2N/(capacity+1) survives to the candidate
    set, so the result equals the exact top-k whenever the k-th
    frequency clears that bar — with the default capacity 8192 that is
    0.025% of rows, far below any realistic "frequent" threshold at
    this k. The exact recount means candidates can only be *missing*,
    never miscounted; the planted-Zipf pytest drives cardinality 50×
    over capacity to exercise the compression path.
    """

    def block_counts(t: pa.Table) -> pa.Table:
        g = (
            pa.table({col: t[col]})
            .group_by(col)
            .aggregate([([], "count_all")])
        )
        vals = g[col].to_numpy(zero_copy_only=False)
        cnts = g["count_all"].to_numpy(zero_copy_only=False)
        vals, cnts = _mg_compress(vals, cnts, capacity)
        return pa.table(
            {
                col: pa.array(vals, t[col].type),
                "__hh_w": pa.array(cnts, pa.int64()),
            }
        )

    summary_ds = fast_grouped_agg(
        ds.map_batches(block_counts, batch_format="pyarrow"),
        [col],
        {"__hh_w": ("__hh_w", "sum")},
    )
    # Candidate cut: the candidate set of a final MG compress is exactly
    # the global top-``capacity`` by summed weight (subtracting the
    # threshold changes weights, never set membership — and the weights
    # are discarded; pass 2 recounts exactly). fast_grouped_agg's output
    # already has each value in exactly ONE block (driver-merge regime:
    # one merged table; distributed regime: hash-partitioned merge
    # buckets), so a per-BLOCK top-capacity IS a valid global cut —
    # the driver collects ≤ num_blocks·capacity rows with no extra
    # shuffle (the previous form re-bucketed through a Ray Data
    # groupby().map_groups, a full sort-shuffle of fixed ~1 s cost for
    # a candidate table that is already value-unique).
    def block_top(t: pa.Table) -> pa.Table:
        if t.num_rows <= capacity:
            return t
        idx = pc.sort_indices(
            t,
            sort_keys=[("__hh_w", "descending"), (col, "ascending")],
        )
        return t.take(idx.slice(0, capacity))

    summary = collect_table(
        summary_ds.map_batches(block_top, batch_format="pyarrow")
    )
    sdf = summary.to_pandas().sort_values(
        ["__hh_w", col], ascending=[False, True], kind="mergesort"
    ).head(capacity)
    cvals = sdf[col].to_numpy()
    cands = pa.array(cvals, summary[col].type)

    def recount(t: pa.Table) -> pa.Table:
        # Arrow C++ is_in membership against the (tiny, ≤ capacity)
        # candidate array — shipped in the task closure, zero Python
        # row iteration; a task pool avoids the actor ramp that was
        # ~1 s of this query's fixed cost.
        return t.filter(pa.compute.is_in(t[col], value_set=cands))

    exact = collect_table(
        fast_grouped_agg(
            ds.select_columns([col]).map_batches(
                recount, batch_format="pyarrow"
            ),
            [col],
            {},
            count_as="cnt",
        )
    )
    df = exact.to_pandas().sort_values(
        ["cnt", col], ascending=[False, True], kind="mergesort"
    )
    return pa.Table.from_pandas(df.head(k), preserve_index=False)


# ---------------------------------------------------------------------------
# HyperLogLog approximate distinct count
# ---------------------------------------------------------------------------


def _group_codes(arr) -> tuple[np.ndarray, pa.Array]:
    """Null-safe ARROW dictionary encoding of a group column: returns
    ``(int64 codes, dictionary)`` where a null group gets its OWN trailing
    dictionary slot. Stays in Arrow the whole way — the previous
    ``to_numpy → pd.factorize`` hop coerced an int64 column containing any
    null to float64, silently rounding (and colliding) group keys beyond
    2^53; this is the same failure class :func:`..temporal._cast_out`
    raises on."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    enc = arr.dictionary_encode()
    dictionary = enc.dictionary
    idx = enc.indices
    if idx.null_count:
        codes = (
            idx.fill_null(len(dictionary))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        dictionary = pa.concat_arrays(
            [dictionary, pa.nulls(1, type=dictionary.type)]
        )
    else:
        codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
    return codes, dictionary


def _clz64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros over uint64 (no float log2 —
    values with >53 significant bits round and go off by one)."""
    x = w.copy()
    clz = np.zeros(len(w), dtype=np.int64)
    zero = x == 0
    for shift in (32, 16, 8, 4, 2, 1):
        small = (~zero) & (x < (np.uint64(1) << np.uint64(64 - shift)))
        clz[small] += shift
        x[small] = x[small] << np.uint64(shift)
    clz[zero] = 64
    return clz


def hll_registers(
    ds: ray.data.Dataset, col: str, p: int = 12
) -> np.ndarray:
    """HyperLogLog registers (2^p uint8) for ``col``. Per block: hash
    (pandas hash_array — deterministic, vectorized, typed), register
    index from the top p bits, rho = clz of the remaining bits + 1,
    ``np.maximum.at`` merge. Each block ships only its 2^p-byte
    register array; the driver merges by element-wise max. Mergeable:
    registers of a union == max of the parts' registers (tested)."""
    m = 1 << p

    def block_regs(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(v)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h << np.uint64(p)
        rho = np.minimum(_clz64(w) + 1, 64 - p + 1)
        regs = np.zeros(m, dtype=np.uint8)
        np.maximum.at(regs, idx, rho.astype(np.uint8))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = collect_table(ds.map_batches(block_regs, batch_format="pyarrow"))
    merged = np.zeros(m, dtype=np.uint8)
    for buf in parts["regs"].to_pylist():
        merged = np.maximum(merged, np.frombuffer(buf, dtype=np.uint8))
    return merged


def hll_estimate(regs: np.ndarray) -> int:
    """Standard HLL estimator with linear-counting small-range
    correction (Flajolet et al. 2007)."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    return int(round(est))


def approx_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> int:
    """Approximate COUNT(DISTINCT col): HLL with standard error
    ~1.04/sqrt(2^p) (p=12 → ~1.6%)."""
    return hll_estimate(hll_registers(ds, col, p))


def rate_sample_by_stratum(
    ds: ray.data.Dataset,
    stratum_col: str,
    key_col: str,
    rates: dict,
    default_rate: float = 0.0,
    seed: int = 41,
) -> ray.data.Dataset:
    """Domain-mixing sampler: per-stratum keep RATES over the same
    deterministic Fibonacci key hash as :func:`hash_sample` — the op a
    training-data pipeline uses to reweight sources ("keep 100% of
    books, 10% of web"). Map-only, partition-invariant, rerun-stable,
    and joinable across tables sharing the key; SQL twin is a CASE
    ladder over the identical HUGEINT arithmetic. Strata not in
    ``rates`` keep ``default_rate``."""
    thresh = {
        s: int(round(r * SAMPLE_BUCKETS)) for s, r in rates.items()
    }
    dflt = int(round(default_rate * SAMPLE_BUCKETS))

    def pick(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        b = hash_bucket(keys, seed)
        strata = t[stratum_col].to_pylist()
        lim = np.fromiter(
            (thresh.get(s, dflt) for s in strata),
            dtype=np.int64,
            count=len(strata),
        )
        return t.filter(pa.array(b < lim))

    return ds.map_batches(pick, batch_format="pyarrow")


def approx_distinct_by(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    p: int = 12,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT col) PER GROUP — the "distinct users
    per day" op — as mergeable per-group HLL sketches in SPARSE form:
    each block emits (group, register, rho) rows only for registers it
    touched (a group seen once costs one row, not 2^p bytes), the
    distributed C++ combiner max-merges them, and the estimate is
    computed per group from its sparse rows in one coarse-bucket
    vectorized pass (missing registers contribute 2^0 each:
    Σ2^-rho over all m registers = (m - n_present) + Σ2^-rho_present).

    Returns (group, approx_distinct int64). Standard error
    ~1.04/sqrt(2^p). Deterministic (pandas hash_array) — partition- and
    rerun-invariant."""
    from ..utils import _default_partitions, exchange, fast_grouped_agg, hash_buckets

    m = 1 << p

    def block_rows(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(v)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h << np.uint64(p)
        rho = np.minimum(_clz64(w) + 1, 64 - p + 1)
        # per-(group, register) max inside the block: dictionary-encode the
        # group column IN ARROW (null group = its own trailing code),
        # encode (code, idx) into one int64 key, lexsort-free max
        codes, dictionary = _group_codes(t[group_col])
        key = codes * m + idx
        uk, inv = np.unique(key, return_inverse=True)
        mx = np.zeros(len(uk), dtype=np.int64)
        np.maximum.at(mx, inv, rho)
        garr = dictionary.take(pa.array(uk // m))
        return pa.table(
            {
                group_col: garr,
                "reg": pa.array(uk % m),
                "rho": pa.array(mx),
            }
        )

    merged = fast_grouped_agg(
        ds.map_batches(block_rows, batch_format="pyarrow"),
        [group_col, "reg"],
        {"rho": ("rho", "max")},
    )

    alpha = 0.7213 / (1 + 1.079 / m)

    def estimate_bucket(t: pa.Table | None) -> pa.Table:
        if t is None:  # only every bucket empty keeps this output
            return pa.table({})
        # Arrow-native grouping (see _group_codes): no pandas hop, so
        # int64 group keys beyond 2^53 survive exactly
        codes, dictionary = _group_codes(t[group_col])
        rho = t["rho"].to_numpy(zero_copy_only=False).astype(np.float64)
        ngroups = len(dictionary)
        n_present = np.bincount(codes, minlength=ngroups).astype(np.float64)
        inv_sum = np.bincount(codes, weights=np.exp2(-rho), minlength=ngroups)
        denom = (m - n_present) + inv_sum
        est = alpha * m * m / denom
        zeros = m - n_present  # rho >= 1 for every present register
        lc = np.where(zeros > 0, m * np.log(np.maximum(m / np.maximum(zeros, 1), 1e-300)), est)
        out = np.where((est <= 2.5 * m) & (zeros > 0), lc, est)
        return pa.table(
            {
                group_col: dictionary,
                "approx_distinct": pa.array(np.round(out).astype(np.int64)),
            }
        )

    return exchange(
        [merged],
        hash_buckets([group_col]),
        estimate_bucket,
        num_partitions or _default_partitions(),
    )


# ---------------------------------------------------------------------------
# Grouped exact quantiles (per-group multi-pass histogram refinement)
# ---------------------------------------------------------------------------


def grouped_exact_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    qs: list[float],
    bins: int = QUANTILE_BINS,
    cutoff: int = QUANTILE_COLLECT_CUTOFF,
) -> pa.Table:
    """Per-group EXACT discrete quantiles (same ``quantile_disc``
    semantics, NaN-excluded, as :func:`exact_quantiles`) in shared
    streaming passes: every refinement round scans the two pruned
    columns ONCE for all groups and exchanges only per-(group-interval)
    ``bins``-sized count vectors through ``fast_grouped_agg``'s C++
    combiner. Driver state is G·len(qs) interval records — designed for
    LOW-cardinality group columns (the result itself is G×Q rows; a
    billion-group quantile wants the co-partitioned per-group sort, not
    this). Returns an Arrow table (grp, q, value) sorted by (grp, q).
    """
    if not qs:
        return pa.table(
            {
                "grp": pa.array([], pa.string()),
                "q": pa.array([], pa.float64()),
                "value": pa.array([], pa.float64()),
            }
        )

    # pass 0: per-group count / min / max (one tiny row per group per block)
    def stats(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        if np.isinf(v).any():
            raise ValueError(
                f"grouped_exact_quantiles: non-finite values in {col!r} — "
                "filter ±inf upstream (NaNs are excluded automatically)"
            )
        keep = ~np.isnan(v)
        sub = pa.table({"g": t[group_col].filter(pa.array(keep)), "v": pa.array(v[keep])})
        out = sub.group_by(["g"]).aggregate(
            [("v", "count"), ("v", "min"), ("v", "max")]
        )
        return out.rename_columns(["g", "n", "lo", "hi"])

    merged = collect_table(
        fast_grouped_agg(
            ds.map_batches(stats, batch_format="pyarrow"),
            ["g"],
            {"n": ("n", "sum"), "lo": ("lo", "min"), "hi": ("hi", "max")},
        )
    )
    if merged.num_rows == 0:
        raise ValueError(
            f"grouped_exact_quantiles: no non-null values in {col!r}"
        )
    merged = merged.sort_by("g")
    gvals = merged["g"].to_pylist()
    gtype = merged["g"].type
    gn = merged["n"].to_numpy(zero_copy_only=False)
    glos = merged["lo"].to_numpy(zero_copy_only=False)
    ghis = merged["hi"].to_numpy(zero_copy_only=False)

    # state per (group index, quantile index), same invariant as the
    # global function: below == #values < lo, target in [lo, hi]
    state: dict[tuple[int, int], list] = {}
    results: dict[tuple[int, int], float] = {}
    for gi in range(len(gvals)):
        for qi, q in enumerate(qs):
            state[(gi, qi)] = [
                float(glos[gi]),
                float(ghis[gi]),
                0,
                _rank_for(q, int(gn[gi])),
            ]

    def _group_masks(t: pa.Table, gis: list[int]) -> dict[int, np.ndarray]:
        masks = {}
        for gi in gis:
            masks[gi] = pc.equal(
                t[group_col], pa.scalar(gvals[gi], type=gtype)
            ).to_numpy(zero_copy_only=False)
        return masks

    def interval_count_pass(triples: list[tuple[int, float, float]]):
        edges = [np.linspace(lo, hi, bins + 1) for _, lo, hi in triples]
        gis_needed = sorted({gi for gi, _, _ in triples})

        def hist(t: pa.Table) -> pa.Table:
            v = t[col].to_numpy(zero_copy_only=False).astype(
                np.float64, copy=False
            )
            nn = ~np.isnan(v)
            masks = _group_masks(t, gis_needed)
            iv, bn, ct = [], [], []
            for i, (gi, lo, hi) in enumerate(triples):
                gv = v[masks[gi] & nn]
                cnt, _ = np.histogram(gv, bins=edges[i])
                nz = np.nonzero(cnt)[0]
                iv.extend([i] * (len(nz) + 1))
                bn.extend(nz.tolist())
                ct.extend(cnt[nz].tolist())
                bn.append(-1)  # sentinel: below-lo count
                ct.append(int((gv < lo).sum()))
            return pa.table(
                {
                    "iv": pa.array(iv, pa.int64()),
                    "bin": pa.array(bn, pa.int64()),
                    "cnt": pa.array(ct, pa.int64()),
                }
            )

        mt = collect_table(
            fast_grouped_agg(
                ds.map_batches(hist, batch_format="pyarrow"),
                ["iv", "bin"],
                {"n": ("cnt", "sum")},
            )
        )
        out = []
        miv = mt["iv"].to_numpy(zero_copy_only=False)
        mbin = mt["bin"].to_numpy(zero_copy_only=False)
        mn = mt["n"].to_numpy(zero_copy_only=False)
        for i in range(len(triples)):
            sel = miv == i
            counts = np.zeros(bins, dtype=np.int64)
            b, c = mbin[sel], mn[sel]
            below = int(c[b == -1].sum())
            inb = b >= 0
            counts[b[inb]] = c[inb]
            out.append((counts, below, edges[i]))
        return out

    max_rounds = 6
    for _ in range(max_rounds):
        active = {k: s for k, s in state.items() if k not in results}
        for k, (lo, hi, below, rank) in list(active.items()):
            if lo == hi:
                results[k] = lo
                del active[k]
        if not active:
            break
        triples = sorted({(k[0], s[0], s[1]) for k, s in active.items()})
        tmap = {tr: j for j, tr in enumerate(triples)}
        passed = interval_count_pass(triples)
        done_enough = True
        for k, (lo, hi, below, rank) in active.items():
            counts, pass_below, edges = passed[tmap[(k[0], lo, hi)]]
            below = pass_below
            need = rank - below
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, need))
            new_lo = float(edges[b])
            new_hi = float(edges[b + 1]) if b + 1 < len(edges) else hi
            in_bin = int(counts[b])
            below += int(cum[b - 1]) if b > 0 else 0
            if b == bins - 1:
                new_hi = hi  # last np.histogram bin is right-closed
            state[k] = [new_lo, new_hi, below, rank]
            if in_bin > cutoff and np.nextafter(new_lo, new_hi) < new_hi:
                done_enough = False
        if done_enough:
            break

    pending = [k for k in state if k not in results]
    if pending:
        finals = sorted({(k[0], state[k][0], state[k][1]) for k in pending})
        fmap = {tr: j for j, tr in enumerate(finals)}
        degenerate = [np.nextafter(lo, hi) >= hi for _, lo, hi in finals]
        gis_needed = sorted({gi for gi, _, _ in finals})

        def final_pass(t: pa.Table) -> pa.Table:
            v = t[col].to_numpy(zero_copy_only=False).astype(
                np.float64, copy=False
            )
            nn = ~np.isnan(v)
            masks = _group_masks(t, gis_needed)
            rows_iv, rows_kind, rows_val = [], [], []
            for j, (gi, lo, hi) in enumerate(finals):
                gv = v[masks[gi] & nn]
                below = int((gv < lo).sum())
                rows_iv.append(j)
                rows_kind.append(-1)
                rows_val.append(float(below))
                if degenerate[j]:
                    rows_iv.extend([j, j])
                    rows_kind.extend([-2, -3])
                    rows_val.extend(
                        [float((gv == lo).sum()), float((gv == hi).sum())]
                    )
                    continue
                sel = gv[(gv >= lo) & (gv <= hi)]
                if len(sel) > QUANTILE_MAX_COLLECT:
                    raise ValueError(
                        "grouped_exact_quantiles: interval holds "
                        f"{len(sel)} values in one block; raise bins/cutoff"
                    )
                rows_iv.extend([j] * len(sel))
                rows_kind.extend([0] * len(sel))
                rows_val.extend(sel.tolist())
            return pa.table(
                {
                    "iv": pa.array(rows_iv, pa.int64()),
                    "kind": pa.array(rows_kind, pa.int64()),
                    "val": pa.array(rows_val, pa.float64()),
                }
            )

        ft = collect_table(ds.map_batches(final_pass, batch_format="pyarrow"))
        fiv = ft["iv"].to_numpy(zero_copy_only=False)
        fkind = ft["kind"].to_numpy(zero_copy_only=False)
        fval = ft["val"].to_numpy(zero_copy_only=False)
        for k in pending:
            gi = k[0]
            lo, hi = state[k][0], state[k][1]
            j = fmap[(gi, lo, hi)]
            sel = fiv == j
            below = int(fval[sel & (fkind == -1)].sum())
            r = state[k][3] - below
            if degenerate[j]:
                n_lo = int(fval[sel & (fkind == -2)].sum())
                n_hi = int(fval[sel & (fkind == -3)].sum())
                if not (1 <= r <= n_lo + n_hi):
                    raise AssertionError(
                        f"grouped_exact_quantiles rank bookkeeping: r={r} "
                        f"of {n_lo}+{n_hi}"
                    )
                results[k] = lo if r <= n_lo else hi
                continue
            vals = np.sort(fval[sel & (fkind == 0)])
            if not (1 <= r <= len(vals)):
                raise AssertionError(
                    f"grouped_exact_quantiles rank bookkeeping: r={r} of "
                    f"{len(vals)}"
                )
            results[k] = float(vals[r - 1])

    out_g, out_q, out_v = [], [], []
    for gi in range(len(gvals)):
        for qi, q in enumerate(qs):
            out_g.append(gvals[gi])
            out_q.append(float(q))
            out_v.append(results[(gi, qi)])
    return pa.table(
        {
            "grp": pa.array(out_g, type=gtype),
            "q": pa.array(out_q, pa.float64()),
            "value": pa.array(out_v, pa.float64()),
        }
    )


def weighted_sample(
    ds: ray.data.Dataset,
    key_col: str,
    weight_col: str,
    rate_per_10k: int,
    seed: int = 41,
) -> ray.data.Dataset:
    """Deterministic weight-PROPORTIONAL Bernoulli sample: a row is kept
    with probability min(1, w · rate_per_10k / 10000) — pure integer
    arithmetic (keep iff hash_bucket(key) < min(w · rate_per_10k,
    10000)), so the SQL twin is bit-exact and the decision is
    reproducible across reruns / partitionings and joinable across
    tables sharing the key, like :func:`hash_sample`. Map-only, zero
    shuffle. Weights must be non-negative integers (the exact-parity
    contract; scale fractional weights into rate_per_10k's unit).
    """
    if not (0 <= rate_per_10k <= SAMPLE_BUCKETS):
        raise ValueError(f"rate_per_10k outside [0, {SAMPLE_BUCKETS}]")

    def pick(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        w = t[weight_col].to_numpy(zero_copy_only=False)
        if np.issubdtype(w.dtype, np.floating):
            wi = w.astype(np.int64)
            if not np.array_equal(wi, w):
                raise ValueError(
                    "weighted_sample needs integer weights "
                    "(exact SQL-parity contract)"
                )
            w = wi
        if len(w) and w.min() < 0:
            raise ValueError("weighted_sample needs non-negative weights")
        thresh = np.minimum(
            w.astype(np.int64) * int(rate_per_10k), SAMPLE_BUCKETS
        )
        return t.filter(pa.array(hash_bucket(keys, seed) < thresh))

    return ds.map_batches(pick, batch_format="pyarrow")
