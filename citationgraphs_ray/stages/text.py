"""Text normalization + text-analysis stages.

Covers the reference's scalar string functions (SURVEY.md §2.2):

- ``tidy_title`` — M1/M2: trim, HTML-entity unescape, ``&//x2019;``-style
  unicode escapes (CitationGraphs.go:1395-1430, 1352-1378). Regexes compile
  once per actor (reference compiles at package init, 32-37).
- ``[comma]`` escape/unescape — M3 (CitationGraphs.go:1491, 1980), used by
  the CSV-conformance writer only.
- language-ID heuristic, quality scoring, token counting, fingerprinting —
  the training-data-pipeline text ops (M6 analog: the reference gates on
  ``langdet`` at CitationGraphs.go:2700-2705; here an n-gram/stopword
  heuristic with the same call-boundary semantics: text → language code).

All stages are vectorized ``map_batches`` callables over Arrow batches.
"""

from __future__ import annotations

import html
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_HEX_ESC = re.compile(r"&//[xX]([0-9a-fA-F]+);")
_DEC_ESC = re.compile(r"&//(\d+);")


def _convert_escapes(s: str) -> str:
    """``&//x2019;`` / ``&//8217;`` → codepoint, ``<?>`` on failure
    (CitationGraphs.go:1352-1378)."""

    def hex_sub(m: re.Match) -> str:
        try:
            return chr(int(m.group(1), 16))
        except (ValueError, OverflowError):
            return "<?>"

    def dec_sub(m: re.Match) -> str:
        try:
            return chr(int(m.group(1)))
        except (ValueError, OverflowError):
            return "<?>"

    return _DEC_ESC.sub(dec_sub, _HEX_ESC.sub(hex_sub, s))


def tidy_title(s: str) -> str:
    """Reference TidyTitle semantics (CitationGraphs.go:1395-1430)."""
    s = s.strip()
    s = html.unescape(s)
    return _convert_escapes(s)


def escape_comma(s: str) -> str:
    return s.replace(",", "[comma]")


def unescape_comma(s: str) -> str:
    return s.replace("[comma]", ",")


class TidyTitles:
    """map_batches stage: tidy a string column in place."""

    def __init__(self, col: str = "title") -> None:
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = [tidy_title(v) if v is not None else None for v in batch[self.col].to_pylist()]
        i = batch.schema.get_field_index(self.col)
        return batch.set_column(i, self.col, pa.array(vals, type=pa.string()))


# ---------------------------------------------------------------------------
# Training-data text analysis (documents table ops)
# ---------------------------------------------------------------------------

# Tiny per-language stopword profiles for the n-gram/stopword language-ID
# heuristic. Public-knowledge word lists; intentionally small.
_LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": frozenset("the a of and to in is for on with that it as at by".split()),
    "es": frozenset("el la de y que en los del se las un por con una es".split()),
    "fr": frozenset("le la de et les des en un une du est pour que dans".split()),
    "de": frozenset("der die das und in den von zu mit sich des ist nicht".split()),
}

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_PUNCT_RE = re.compile(r"[^\w\s]")
# BPE-ish token regex (GPT-2-style, simplified): word pieces, numbers,
# punctuation runs, leading-space handling approximated.
_BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+")
_EN_STOP = _LANG_MARKERS["en"]


class LangIdHeuristic:
    """Stopword-profile language ID over whitespace tokens.

    Returns the marker language with the highest hit ratio, ``und`` when no
    profile scores > 0. Deterministic; CJK detected by codepoint range.
    """

    def __init__(self, col: str = "text", out: str = "lang_pred") -> None:
        self.col, self.out = col, out

    @staticmethod
    def detect(text: str) -> str:
        if not text:
            return "und"
        cjk = sum(1 for ch in text[:400] if "一" <= ch <= "鿿")
        if cjk > 0 and cjk >= len(text[:400]) * 0.05:
            return "zh"
        toks = text.lower().split()
        if not toks:
            return "und"
        best, best_score = "und", 0
        for lang, markers in _LANG_MARKERS.items():
            score = sum(1 for t in toks if t in markers)
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.detect(t or "") for t in batch[self.col].to_pylist()]
        return batch.append_column(self.out, pa.array(preds, type=pa.string()))


def token_count_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Whitespace token count + BPE-ish regex token count, vectorized.

    ``ws_tokens`` matches DuckDB ``len(string_split_regex(trim(text),'\\s+'))``
    for non-empty text.
    """
    texts = batch[col].to_pylist()
    ws = np.fromiter(
        (len(t.split()) if t else 0 for t in texts), dtype=np.int64, count=len(texts)
    )
    bpe = np.fromiter(
        (len(_BPE_RE.findall(t)) if t else 0 for t in texts),
        dtype=np.int64,
        count=len(texts),
    )
    return batch.append_column("ws_tokens", pa.array(ws)).append_column(
        "bpe_tokens", pa.array(bpe)
    )


def quality_score_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Length / punctuation-ratio / stopword-ratio quality signals.

    Mirrors heuristic quality filters in public training-data pipelines
    (C4/Gopher-style rules); semantics kept SQL-expressible:
    ``n_chars``=len, ``punct_ratio``=punct chars/len, ``stop_ratio``=EN
    stopword tokens / tokens, ``mean_word_len``.
    """
    texts = batch[col].to_pylist()
    n = len(texts)
    n_chars = np.zeros(n, dtype=np.int64)
    punct_ratio = np.zeros(n, dtype=np.float64)
    stop_ratio = np.zeros(n, dtype=np.float64)
    mean_wl = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        if not t:
            continue
        n_chars[i] = len(t)
        punct_ratio[i] = len(_PUNCT_RE.findall(t)) / len(t)
        toks = t.lower().split()
        if toks:
            stop_ratio[i] = sum(1 for w in toks if w in _EN_STOP) / len(toks)
            mean_wl[i] = sum(len(w) for w in toks) / len(toks)
    out = batch
    for name, arr in (
        ("n_chars_q", n_chars),
        ("punct_ratio", punct_ratio),
        ("stop_ratio", stop_ratio),
        ("mean_word_len", mean_wl),
    ):
        out = out.append_column(name, pa.array(arr))
    return out


_FP_B, _FP_MOD = 257, (1 << 61) - 1
_FP_M64 = np.uint64(_FP_MOD)
_FP_MASK53 = np.uint64((1 << 53) - 1)


def _fp_mulB_add(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(h·257 + b) mod (2^61−1), vectorized uint64 with no overflow:
    h·2^8 decomposes as (h mod 2^53)·2^8 + (h >> 53)·2^61, and 2^61 ≡ 1
    (Mersenne), so every intermediate stays below 2^63. In-place masked
    subtracts — np.where on uint64 measured ~20× slower."""
    hb = h & _FP_MASK53
    hb <<= np.uint64(8)
    hb += h >> np.uint64(53)
    hb += h
    top = hb >> np.uint64(61)
    hb &= _FP_M64
    hb += top
    np.subtract(hb, _FP_M64, out=hb, where=hb >= _FP_M64)
    hb += b
    np.subtract(hb, _FP_M64, out=hb, where=hb >= _FP_M64)
    return hb


def _fingerprint_short(data: bytes) -> int:
    h = 0
    for b in data:
        h = (h * _FP_B + b) % _FP_MOD
    return h


def fingerprint_batch(batch: pa.Table, col: str = "text", window: int = 8) -> pa.Table:
    """Rolling-hash document fingerprint: min of Rabin-Karp window hashes.

    A winnowing-style (Schleimer et al., SIGMOD'03) scalar fingerprint —
    equal for equal texts, shift-tolerant for near-equal ones.

    Vectorized: all docs' bytes (truncated at 4096) are concatenated into
    one buffer, every window hash is computed in ``window`` numpy passes
    of Mersenne-modular multiply-add (no per-byte Python), and per-doc
    minima come from one ``np.minimum.reduceat`` over the valid (non-
    boundary-crossing) positions. Sub-window docs take the scalar path.
    Values are bit-identical to the original per-byte loop (tested) and
    to the HUGEINT SQL oracle.
    """
    texts = batch[col].to_pylist()
    fps = np.zeros(len(texts), dtype=np.uint64)
    datas = [
        (t.encode()[:4096] if t else b"") for t in texts
    ]
    long_idx = [i for i, d in enumerate(datas) if len(d) >= window]
    for i, d in enumerate(datas):
        if 0 < len(d) < window:
            fps[i] = _fingerprint_short(d)
    if long_idx:
        lens = np.array([len(datas[i]) for i in long_idx], dtype=np.int64)
        buf = np.frombuffer(b"".join(datas[i] for i in long_idx), dtype=np.uint8)
        offs = np.concatenate([[0], np.cumsum(lens)])
        # hash EVERY contiguous position of the joined buffer (window
        # slices are contiguous — zero gathers, zero index arrays), then
        # take per-doc minima over only the in-doc positions: reduceat
        # with interleaved (start, end) pairs yields alternating
        # [valid-min, boundary-garbage-min]; keep the even slots. A
        # doc's valid range is [offs[d], offs[d]+len_d−window], strictly
        # before the next doc's start, so the pair list is increasing.
        n_all = int(offs[-1]) - window + 1
        h = np.zeros(n_all, dtype=np.uint64)
        for k in range(window):
            h = _fp_mulB_add(h, buf[k : k + n_all].astype(np.uint64))
        ends = offs[:-1] + lens - (window - 1)
        pairs = np.empty(2 * len(lens), dtype=np.int64)
        pairs[0::2] = offs[:-1]
        pairs[1::2] = ends
        if pairs[-1] >= n_all:  # reduceat rejects index == len
            pairs = pairs[:-1]
        mins = np.minimum.reduceat(h, pairs)[0::2]
        fps[np.array(long_idx, dtype=np.int64)] = mins
    return batch.append_column("fingerprint", pa.array(fps.astype(np.int64)))


# PII-style scrub chain (C4/CCNet-style masking): applied IN ORDER — urls
# before emails (an email inside a URL is already masked), entities last,
# then whitespace collapse + trim. Both pyarrow.compute and DuckDB use
# RE2, so the SQL oracle applies the SAME pattern strings verbatim.
SCRUB_URL_RE = r"https?://[^\s]+"
SCRUB_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
SCRUB_ENTITY_RE = r"\b(customer|supplier)\b"
SCRUB_WS_RE = r"\s+"


def scrub_text_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Mask URLs/emails/entity terms and normalize whitespace — the
    redaction pass of an LLM training-data pipeline, fully vectorized
    (four Arrow RE2 kernels + trim; no Python row loop).

    Appends ``scrubbed`` (masked text) and ``n_chars_scrubbed``.
    """
    s = batch[col]
    s = pc.replace_substring_regex(s, SCRUB_URL_RE, "<URL>")
    s = pc.replace_substring_regex(s, SCRUB_EMAIL_RE, "<EMAIL>")
    s = pc.replace_substring_regex(s, SCRUB_ENTITY_RE, "<ENTITY>")
    # trim EXACTLY the ASCII space char: after the RE2 \s+ collapse
    # (ASCII-only in both engines) an edge holds either a single
    # collapse-produced ' ' or preserved non-ASCII whitespace (NBSP
    # etc.). Arrow's utf8_trim_whitespace and DuckDB's default trim()
    # disagree on which non-ASCII whitespace they strip (measured:
    # DuckDB trims Zs-category but not NEL; Arrow trims both), so both
    # sides pin the char set to {' '} — SQL twin: trim(x, ' ')
    s = pc.utf8_trim(
        pc.replace_substring_regex(s, SCRUB_WS_RE, " "), " "
    )
    return batch.append_column("scrubbed", s).append_column(
        "n_chars_scrubbed", pc.utf8_length(s).cast(pa.int64())
    )


def repetition_score_batch(
    batch: pa.Table, id_col: str = "doc_id", col: str = "text"
) -> pa.Table:
    """Gopher-style repetition quality signals, fully vectorized:

    - ``n_words``: single-space split length (DuckDB ``string_split``
      parity — consecutive spaces yield empty tokens on both sides)
    - ``dup_word_frac``: 1 − distinct_words / n_words
    - ``top_bigram_frac``: occurrences of the most frequent word bigram
      / total bigrams (0 when the doc has < 2 words)

    No Python row loop: one Arrow split, per-doc distinct and bigram
    counts via dictionary codes + ``pa.Table.group_by`` (C++), bigram
    keys as code[i]·K + code[i+1] across the flattened token stream
    masked at document boundaries. Fractions are round6 on both sides
    of the SQL twin.
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    words = pc.split_pattern(batch[col], " ")
    n_words = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    n_words = np.where(n_words == 0, 1, n_words)  # '' splits to [''] in SQL
    # combine BEFORE encoding — per-chunk dictionaries would make the
    # integer codes inconsistent across chunk boundaries
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    pidx = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    codes = (
        pc.dictionary_encode(flat)
        .indices.to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    # distinct words per doc
    dtab = pa.table(
        {"d": pa.array(pidx), "c": pa.array(codes)}
    ).group_by(["d", "c"]).aggregate([("c", "count")])
    ddoc = dtab.group_by(["d"]).aggregate([("c_count", "count")])
    n_distinct = np.ones(n, dtype=np.int64)  # empty docs: 1 token ('')
    n_distinct[
        ddoc["d"].to_numpy(zero_copy_only=False)
    ] = ddoc["c_count_count"].to_numpy(zero_copy_only=False)

    # bigram counts: adjacent positions within the same doc
    top_frac = np.zeros(n, dtype=np.float64)
    if len(codes) > 1:
        same = pidx[:-1] == pidx[1:]
        if same.any():
            K = int(codes.max()) + 1
            key = codes[:-1][same] * K + codes[1:][same]
            btab = pa.table(
                {"d": pa.array(pidx[:-1][same]), "k": pa.array(key)}
            ).group_by(["d", "k"]).aggregate([("k", "count")])
            bdoc = btab.group_by(["d"]).aggregate(
                [("k_count", "max"), ("k_count", "sum")]
            )
            dd = bdoc["d"].to_numpy(zero_copy_only=False)
            mx = bdoc["k_count_max"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            tot = bdoc["k_count_sum"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            top_frac[dd] = mx / tot

    dup_frac = 1.0 - n_distinct / n_words.astype(np.float64)
    r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # noqa: E731
    return pa.table(
        {
            id_col: batch[id_col],
            "n_words": pa.array(n_words.astype(np.int64)),
            "dup_word_frac": pa.array(r6(dup_frac)),
            "top_bigram_frac": pa.array(r6(top_frac)),
        }
    )


def chunk_dedup_signal(
    ds,
    chunk_tokens: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Cross-corpus chunk-level duplication signal: split each doc into
    fixed ``chunk_tokens``-token chunks (last chunk partial), count per
    doc how many of its DISTINCT chunks also occur in ≥2 distinct docs.
    Returns (doc_id, n_chunks, dup_chunks, dup_chunk_frac) — the
    line/paragraph-level exact-dedup quality gate of corpus-cleaning
    pipelines, at the chunk granularity this corpus has (no sentence
    delimiters).

    Shape: chunk rows → one grouped count on the chunk hash (combiner
    aggregate) → one bucketed reduce-side join back → one per-doc
    grouped aggregate. Nothing driver-side; both shuffles keyed and
    bounded. NULL docs emit no row (no chunks to score).
    """
    import pandas as pd
    import ray.data  # noqa: F401

    from ..utils import bucketed_inner_join, fast_grouped_agg

    def chunk_rows(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        chunks: list[str] = []
        for i, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            if t is None:
                continue
            # single-space split keeping empty tokens, as the SQL twin's
            # string_split(lower(text), ' ') does: an empty doc is one ''
            # chunk, and tabs/newlines stay inside tokens
            toks = t.lower().split(" ")
            seen = set()
            for s in range(0, len(toks), chunk_tokens):
                c = " ".join(toks[s : s + chunk_tokens])
                if c not in seen:
                    seen.add(c)
                    ids.append(i)
                    chunks.append(c)
        h = pd.util.hash_array(np.asarray(chunks, dtype=object)).astype(
            np.int64
        )
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "chunk_hash": pa.array(h),
            }
        )

    # rows feeds BOTH the grouped count and the join back — pin it so the
    # corpus read + tokenize + hash lineage runs once, not twice
    rows = ds.map_batches(chunk_rows, batch_format="pyarrow").materialize()
    df = fast_grouped_agg(rows, ["chunk_hash"], count_as="d")
    joined = bucketed_inner_join(rows, df, ["chunk_hash"])

    def flag(t: pa.Table) -> pa.Table:
        d = t["d"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: t[id_col],
                "dup": pa.array((d >= 2).astype(np.int64)),
            }
        )

    per_doc = fast_grouped_agg(
        joined.map_batches(flag, batch_format="pyarrow"),
        [id_col],
        {"dup_chunks": ("dup", "sum")},
        count_as="n_chunks",
    )

    def finish(t: pa.Table) -> pa.Table:
        dup = t["dup_chunks"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n_chunks"].to_numpy(zero_copy_only=False).astype(np.float64)
        frac = np.floor(dup / n * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                id_col: t[id_col],
                "n_chunks": t["n_chunks"],
                "dup_chunks": t["dup_chunks"],
                "dup_chunk_frac": pa.array(frac),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")
