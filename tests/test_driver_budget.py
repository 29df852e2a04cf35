"""One driver-memory budget (``utils.DRIVER_BUDGET_BYTES``) picks every
driver-or-distributed regime. With the budget forced to zero, every site
takes its at-scale path and still gives the driver path's (or the
oracle's) answer, and the guards whose result must sit on the driver
raise, naming the budget."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

import citationgraphs_ray.utils as U
from citationgraphs_ray.graph import engine
from citationgraphs_ray.graph import triangles as tri_mod
from citationgraphs_ray.graph.csr_engine import CsrEngine
from citationgraphs_ray.graph.oracle import triangles_oracle


def _spy(monkeypatch, owner, name: str) -> list:
    calls = []
    real = getattr(owner, name)

    def spy(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _no_budget(monkeypatch):
    monkeypatch.setattr(U, "DRIVER_BUDGET_BYTES", 0)


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(3)
    V = 60
    e = rng.integers(0, V, size=(300, 2))
    e = e[e[:, 0] != e[:, 1]]
    tbl = pa.table({"src": pa.array(e[:, 0]), "dst": pa.array(e[:, 1])})
    und = np.concatenate([e, e[:, ::-1]])
    und_tbl = pa.table({"src": pa.array(und[:, 0]), "dst": pa.array(und[:, 1])})
    return ray.data.from_arrow(tbl), ray.data.from_arrow(und_tbl), e, V


def test_on_driver_is_the_budget():
    assert U.on_driver(U.DRIVER_BUDGET_BYTES)
    assert not U.on_driver(U.DRIVER_BUDGET_BYTES + 1)


def test_aggregates_merge_partitioned_past_the_budget(monkeypatch):
    rng = np.random.default_rng(7)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(rng.integers(0, 50, 2000)),
                "v": pa.array(rng.normal(size=2000)),
            }
        )
    ).repartition(4)

    def run():
        agg = U.fast_grouped_agg(ds, ["k"], {"s": ("v", "sum")}, count_as="n")
        distinct = U.fast_distinct(ds, ["k"])
        return (
            agg.to_pandas().sort_values("k").reset_index(drop=True).round(9),
            sorted(distinct.to_pandas().k),
        )

    driver = run()
    _no_budget(monkeypatch)
    merges = _spy(monkeypatch, U, "_merge_partitioned")
    dist = run()
    assert len(merges) == 2
    pd.testing.assert_frame_equal(driver[0], dist[0][driver[0].columns])
    assert driver[1] == dist[1]


def test_kernels_auto_build_csr_past_the_budget(graph, monkeypatch):
    edges, und, _, V = graph
    local = (
        engine.pagerank(edges, V, tol=1e-10, reduce="local"),
        engine.connected_components(und, V, reduce="local"),
    )
    _no_budget(monkeypatch)
    built = _spy(monkeypatch, CsrEngine, "__init__")
    monkeypatch.setattr(engine, "_Edges", None)  # a local run would fail
    auto = (
        engine.pagerank(edges, V, tol=1e-10),
        engine.connected_components(und, V),
    )
    assert len(built) == 2
    assert np.allclose(auto[0].state, local[0].state, atol=1e-9)
    assert np.array_equal(auto[1].state, local[1].state)
    for a, b in zip(auto, local):
        assert (a.iterations, a.converged) == (b.iterations, b.converged)


def test_triangles_auto_shuffles_past_the_budget(graph, monkeypatch):
    _, und, e, V = graph
    _no_budget(monkeypatch)
    shuffled = _spy(monkeypatch, tri_mod, "_orient_distributed")
    res = tri_mod.triangle_counts(und, V, strategy="auto")
    assert shuffled
    assert np.array_equal(res.state, triangles_oracle(e, V))


def test_dup_clusters_auto_run_csr_past_the_budget(monkeypatch, tmp_path):
    from citationgraphs_ray.stages.dedup import resolve_dup_clusters

    pairs = pa.table(
        {
            "src": pa.array([0, 5, 9, 2], type=pa.int64()),
            "dst": pa.array([5, 7, 3, 0], type=pa.int64()),
        }
    )
    want = resolve_dup_clusters(pairs, 12).to_pandas().sort_values("id")
    _no_budget(monkeypatch)
    built = _spy(monkeypatch, CsrEngine, "__init__")
    got = (
        resolve_dup_clusters(pairs, 12, csr_workdir=str(tmp_path / "csr"))
        .to_pandas()
        .sort_values("id")
    )
    assert len(built) == 1
    assert list(got.cluster_id) == list(want.cluster_id)


def test_brute_force_topk_distributes_past_the_budget(monkeypatch):
    from citationgraphs_ray.stages import similarity as sim

    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(200, 8))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(200, dtype=np.int64)),
                "embedding": U.matrix_to_list_array(vecs),
            }
        )
    ).repartition(3).materialize()
    Q = vecs[[3, 50]]
    key = ["query_id", "vec_id", "score"]

    def run():
        out = sim.brute_force_topk(ds, Q, k=5).to_pandas()[key]
        return out.sort_values(["query_id", "vec_id"]).reset_index(drop=True)

    local = run()
    _no_budget(monkeypatch)
    # the local regime normalizes the collected vectors on the driver;
    # the distributed engine normalizes only the queries there
    normalized = _spy(monkeypatch, sim, "_normalize")
    dist = run()
    assert [len(a[0]) for a in normalized] == [len(Q)]
    pd.testing.assert_frame_equal(local, dist)


def test_driver_guards_raise_past_the_budget(monkeypatch):
    from citationgraphs_ray.functions.phrases import (
        phrase_similarity_from_cooccurrence,
    )
    from citationgraphs_ray.stages.decontam import decontaminate

    texts = ray.data.from_arrow(pa.table({"text": pa.array(["a b c d e f g h i"])}))
    keyed = ray.data.from_arrow(pa.table({"k": pa.array([1, 2])}))
    pairs = ray.data.from_items([{"w1": "a", "w2": "b", "freq": 1}])
    _no_budget(monkeypatch)
    with pytest.raises(ValueError, match="DRIVER_BUDGET_BYTES"):
        U.broadcast_merge(keyed, keyed, "k", "k")
    with pytest.raises(ValueError, match="DRIVER_BUDGET_BYTES"):
        decontaminate(texts, texts)
    with pytest.raises(ValueError, match="DRIVER_BUDGET_BYTES"):
        phrase_similarity_from_cooccurrence(pairs)
