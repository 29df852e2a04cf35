"""Vocab/encoding, Word2Phrase, and topic-model behavior tests."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.functions.vocab import (
    build_vocab,
    encode_docs,
    tokenize_docs,
    translate_vocab,
    vocab_dict,
    word2phrase,
    word2phrase_ex,
)
from citationgraphs_ray.stages.topics import GsdmmEngine, LdaEngine


def _docs(texts):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts),
            }
        )
    )


def test_vocab_deterministic_sorted():
    ds = tokenize_docs(_docs(["b a c", "a a d"]))
    v = build_vocab(ds).to_pandas().sort_values("word_id")
    assert list(v.word) == ["a", "b", "c", "d"]  # sorted rank, not first-seen
    assert list(v.word_id) == [0, 1, 2, 3]
    assert v.set_index("word").freq["a"] == 3


def test_encode_order_preserving():
    ds = tokenize_docs(_docs(["b a c", "a a d"]))
    vd = vocab_dict(build_vocab(ds))
    enc = encode_docs(ds, vd).to_pandas().sort_values("doc_id")
    assert list(enc.word_ids.iloc[0]) == [vd["b"], vd["a"], vd["c"]]
    assert list(enc.word_ids.iloc[1]) == [vd["a"], vd["a"], vd["d"]]


def test_translate_vocab():
    sub = {"a": 0, "b": 1}
    sup = {"a": 5, "b": 7, "c": 9}
    assert translate_vocab(sub, sup) == {0: 5, 1: 7}
    with pytest.raises(KeyError):
        translate_vocab({"zz": 0}, sup)


def test_word2phrase_promotes_frequent_bigram():
    texts = ["new york is big", "i love new york", "new york city"] * 5 + [
        "the new day",
        "york shire",
    ]
    ds = tokenize_docs(_docs(texts))
    out = word2phrase(ds, num_iters=1, min_freq=5, min_score=1e-5).to_pandas()
    joined = [" ".join(t) for t in out.sort_values("doc_id").tokens]
    assert "new_york" in joined[0]
    assert "the new day" in joined  # below-threshold bigram untouched
    out2 = word2phrase_ex(ds, num_iters=1, min_freq=5, min_score=1.2).to_pandas()
    assert any("new_york" in " ".join(t) for t in out2.tokens)


def test_word2phrase_no_unthresholded_driver_collect(monkeypatch):
    """word2phrase/word2phrase_ex must never collect the UNTHRESHOLDED
    grouped bigram/unigram tables to the driver (VERDICT r3 #1: the
    distinct-bigram table is corpus-sized at 100-TB scale). Every
    vocab-level driver collect during the run is size-guarded well below
    the distinct-bigram count, and the rewrite must still promote exactly
    the frequent bigram."""
    import citationgraphs_ray.functions.vocab as vocab_mod

    # 40 repeats of one hot bigram, one-off successors/predecessors of its
    # words (diluting the ex-variant's conditional means), and ~120
    # distinct one-off bigrams
    texts = (
        ["new york opens"] * 40
        + [f"new a{i}" for i in range(10)]
        + [f"b{i} york" for i in range(10)]
        + [f"u{i} v{i} w{i} x{i}" for i in range(40)]
    )
    ds = tokenize_docs(_docs(texts)).materialize()
    n_distinct_bigrams = vocab_mod.bigram_counts(ds).count()
    assert n_distinct_bigrams > 100  # the guard below is meaningful

    real_collect = vocab_mod.collect_table
    max_rows = 20

    def guarded_collect(d):
        tbl = real_collect(d)
        assert tbl.num_rows <= max_rows, (
            f"driver collect of {tbl.num_rows} rows inside word2phrase "
            f"(distinct bigrams: {n_distinct_bigrams}) — the threshold "
            "filter must run distributed BEFORE any collect"
        )
        return tbl

    monkeypatch.setattr(vocab_mod, "collect_table", guarded_collect)
    out = word2phrase(ds, num_iters=1, min_freq=20, min_score=1e-6).to_pandas()
    joined = [" ".join(t) for t in out.sort_values("doc_id").tokens]
    assert joined[0] == "new_york opens"
    assert "u0 v0 w0 x0" in joined  # one-off bigrams untouched
    out2 = word2phrase_ex(ds, num_iters=1, min_freq=20, min_score=1.2)
    assert any("new_york" in " ".join(t) for t in out2.to_pandas().tokens)


def _planted_corpus(n_per_topic=30, seed=0):
    """Two disjoint vocabularies → trivially separable topics."""
    rng = np.random.default_rng(seed)
    t0 = ["alpha beta gamma delta epsilon"] * n_per_topic
    t1 = ["one two three four five"] * n_per_topic
    texts = []
    truth = []
    for i in range(n_per_topic):
        texts.append(" ".join(rng.permutation(t0[i].split())))
        truth.append(0)
        texts.append(" ".join(rng.permutation(t1[i].split())))
        truth.append(1)
    return texts, np.array(truth)


def test_lda_separates_planted_topics():
    texts, truth = _planted_corpus()
    ds = tokenize_docs(_docs(texts))
    vocab = build_vocab(ds)
    W = vocab.count()
    enc = encode_docs(ds, vocab).materialize()
    eng = LdaEngine(enc, num_topics=2, vocab_size=W, num_partitions=2, seed=1)
    # 30 sweeps: Gibbs chains are RNG-stream dependent; on this fixture
    # every seed in {1,2,3} fully separates by 30 (seed 1 needs >15)
    eng.train(num_iters=30)
    ms = eng.memberships().to_pandas().sort_values("id")
    pred = np.array([int(np.argmax(m)) for m in ms.membership])
    eng.shutdown()
    # purity: every doc of one ground-truth topic gets the same label
    agree = max(
        (pred == truth).mean(), (pred == 1 - truth).mean()
    )
    assert agree == 1.0
    # entropy monitor recorded per iteration
    assert len(eng.entropy_history) == 30


def test_gsdmm_separates_planted_topics():
    texts, truth = _planted_corpus()
    ds = tokenize_docs(_docs(texts))
    vocab = build_vocab(ds)
    W = vocab.count()
    enc = encode_docs(ds, vocab).materialize()
    eng = GsdmmEngine(enc, num_topics=4, vocab_size=W, num_partitions=2, seed=3)
    eng.train(num_iters=15)
    asg = eng.assignments().to_pandas().sort_values("id")
    eng.shutdown()
    pred = asg.topic.to_numpy()
    # purity: no label is shared between the two planted topics (GSDMM may
    # keep >1 pure cluster per topic — a valid stationary state)
    labels0 = set(pred[truth == 0])
    labels1 = set(pred[truth == 1])
    assert labels0.isdisjoint(labels1)


def test_lda_param_guard():
    with pytest.raises(ValueError):
        LdaEngine(None, num_topics=0, vocab_size=5)


def test_topic_pool_reuse_is_deterministic_and_amortized():
    """Pooled engine runs must (a) reuse the SAME actors across engine
    instantiations — the ~5 s/query pool churn fix — and (b) produce
    results bitwise equal to a private cold-start pool (reset re-arms the
    identical RNG stream)."""
    texts, _ = _planted_corpus()
    ds = tokenize_docs(_docs(texts))
    vocab = build_vocab(ds)
    W = vocab.count()
    enc = encode_docs(ds, vocab).materialize()

    cold = LdaEngine(
        enc, num_topics=2, vocab_size=W, num_partitions=2, seed=5,
        reuse_pool=False,
    ).train(5)
    m_cold = cold.memberships().to_pandas().sort_values("id")
    cold.shutdown()

    p1 = LdaEngine(
        enc, num_topics=2, vocab_size=W, num_partitions=2, seed=5
    ).train(5)
    actors1 = list(p1.actors)
    m_p1 = p1.memberships().to_pandas().sort_values("id")
    p1.shutdown()

    p2 = LdaEngine(
        enc, num_topics=2, vocab_size=W, num_partitions=2, seed=5
    ).train(5)
    actors2 = list(p2.actors)
    m_p2 = p2.memberships().to_pandas().sort_values("id")
    p2.shutdown()

    # same actor handles reused across engines
    assert [a._actor_id for a in actors1] == [a._actor_id for a in actors2]
    for a, b in ((m_cold, m_p1), (m_p1, m_p2)):
        assert list(a.id) == list(b.id)
        for x, y in zip(a.membership, b.membership):
            assert list(x) == list(y)

    # GSDMM shares the same pool size → same actors again
    g = GsdmmEngine(enc, num_topics=4, vocab_size=W, num_partitions=2, seed=3)
    assert [a._actor_id for a in g.actors] == [a._actor_id for a in actors1]
    g.train(3)
    g.shutdown()


def test_topic_output_shard_path_equals_driver_path(tmp_path):
    """Worker-written shard sinks (nothing doc-sized on the driver) carry
    exactly the driver-concat results for both engines."""
    texts, _ = _planted_corpus()
    ds = tokenize_docs(_docs(texts))
    vocab = build_vocab(ds)
    W = vocab.count()
    enc = encode_docs(ds, vocab).materialize()

    eng = LdaEngine(
        enc, num_topics=2, vocab_size=W, num_partitions=2, seed=7
    ).train(5)
    drv = eng.memberships().to_pandas().sort_values("id").reset_index(drop=True)
    shard = (
        eng.memberships(shard_dir=str(tmp_path / "lda"))
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    eng.shutdown()
    assert list(drv.id) == list(shard.id)
    for a, b in zip(drv.membership, shard.membership):
        assert list(a) == list(b)
    # one parquet shard per partition actor
    assert len(list((tmp_path / "lda").glob("part-*.parquet"))) == 2

    g = GsdmmEngine(
        enc, num_topics=4, vocab_size=W, num_partitions=2, seed=7
    ).train(3)
    gd = g.assignments().to_pandas().sort_values("id").reset_index(drop=True)
    gs = (
        g.assignments(shard_dir=str(tmp_path / "gsdmm"))
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    g.shutdown()
    assert list(gd.id) == list(gs.id)
    assert list(gd.topic) == list(gs.topic)


def test_topic_pool_ownership_guard():
    """Constructing a second pooled engine with the same P resets the
    shared actors — the first engine must refuse to keep training (it
    would silently Gibbs-sample over the second engine's documents)."""
    texts, _ = _planted_corpus(n_per_topic=5)
    ds = tokenize_docs(_docs(texts))
    vocab = build_vocab(ds)
    W = vocab.count()
    enc = encode_docs(ds, vocab).materialize()
    e1 = LdaEngine(enc, num_topics=2, vocab_size=W, num_partitions=2, seed=1)
    e2 = LdaEngine(enc, num_topics=2, vocab_size=W, num_partitions=2, seed=2)
    with pytest.raises(RuntimeError, match="re-acquired"):
        e1.train(num_iters=1)
    with pytest.raises(RuntimeError, match="re-acquired"):
        e1.memberships()
    e2.train(num_iters=1)  # the current owner keeps working
    e2.shutdown()


def test_topic_shard_dir_cleared_between_runs(tmp_path):
    """A reused shard_dir must not leak a previous run's shards into the
    read-back: a 4-partition run followed by a 2-partition run into the
    same directory returns exactly the fresh run's rows."""
    texts, _ = _planted_corpus(n_per_topic=5)
    ds = tokenize_docs(_docs(texts))
    vocab = build_vocab(ds)
    W = vocab.count()
    enc = encode_docs(ds, vocab).materialize()
    d = str(tmp_path / "shards")
    # shard_dir is a public parameter: caller files in it must SURVIVE
    # (the old rmtree deleted the whole directory, ADVICE r3)
    os.makedirs(d)
    foreign = os.path.join(d, "caller_output.txt")
    with open(foreign, "w") as f:
        f.write("not a shard")
    e1 = LdaEngine(enc, num_topics=2, vocab_size=W, num_partitions=4, seed=1)
    e1.train(num_iters=1)
    n1 = e1.memberships(shard_dir=d).count()
    e2 = LdaEngine(enc, num_topics=2, vocab_size=W, num_partitions=2, seed=1)
    e2.train(num_iters=1)
    n2 = e2.memberships(shard_dir=d).count()
    e2.shutdown()
    assert n1 == n2 == enc.count()
    assert open(foreign).read() == "not a shard"


def test_matrix_to_list_array_large_offset_branch(monkeypatch):
    """Blocks at/above the int32 offset capacity take int64 offsets
    (large_list) — forced here via the threshold constant — and still
    round-trip through list_column_to_matrix."""
    import citationgraphs_ray.utils as u

    mat = np.arange(24, dtype=np.float64).reshape(6, 4)
    small = u.matrix_to_list_array(mat)
    assert pa.types.is_list(small.type)
    monkeypatch.setattr(u, "_LIST_OFFSET32_MAX", 8)
    large = u.matrix_to_list_array(mat)
    assert pa.types.is_large_list(large.type)
    assert np.array_equal(u.list_column_to_matrix(large), mat)
    assert large.to_pylist() == small.to_pylist()


_TOPIC_SESSIONS_SCRIPT = """
import numpy as np
import pyarrow as pa
import ray, ray.data
from citationgraphs_ray.functions.vocab import build_vocab, encode_docs, tokenize_docs
from citationgraphs_ray.stages.topics import LdaEngine

texts = ["alpha beta gamma", "one two three"] * 10
for _ in range(2):
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    }))
    ds = tokenize_docs(docs)
    vocab = build_vocab(ds)
    enc = encode_docs(ds, vocab).materialize()
    eng = LdaEngine(enc, num_topics=2, vocab_size=vocab.count(),
                    num_partitions=2, seed=1)
    eng.train(num_iters=2)
    assert eng.memberships().count() == len(texts)
    eng.shutdown()
    ray.shutdown()
print("OK")
"""


def test_topic_pool_never_lends_a_past_sessions_actor(tmp_path):
    """init → pooled LdaEngine → shutdown → init → pooled LdaEngine with
    the same P in one process: the second session gets its own actors
    instead of the dead session's handles."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _TOPIC_SESSIONS_SCRIPT],
        env={**os.environ, "PYTHONPATH": root}, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("OK"), out.stderr[-3000:]
