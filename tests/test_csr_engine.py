"""CSR actor engine must equal the broadcast engine / oracle."""

import numpy as np
import pytest

from citationgraphs_ray.graph.csr_engine import CsrEngine
from citationgraphs_ray.graph.engine import pagerank
from citationgraphs_ray.graph.oracle import components_oracle, pagerank_oracle
from citationgraphs_ray.stages.edges import symmetrize_edges


@pytest.fixture(scope="module")
def engines(small_edges, tmp_path_factory):
    edges, vids = small_edges
    V = vids.count()
    wd = str(tmp_path_factory.mktemp("csr"))
    dir_eng = CsrEngine(edges, V, num_partitions=4, workdir=wd, tag="dir")
    und = symmetrize_edges(edges).materialize()
    und_eng = CsrEngine(und, V, num_partitions=4, workdir=wd, tag="und")
    yield edges, V, dir_eng, und_eng
    dir_eng.shutdown()
    und_eng.shutdown()


def test_csr_pagerank_matches_oracle(engines, small_edges):
    edges, V, dir_eng, _ = engines
    earr = edges.to_pandas()[["src", "dst"]].to_numpy()
    state, iters, converged = dir_eng.pagerank(tol=1e-10)
    assert converged
    exp = pagerank_oracle(earr, V, tol=1e-10)
    assert np.allclose(state, exp, atol=1e-6)
    # and matches the broadcast engine
    bc = pagerank(edges, V, tol=1e-10)
    assert np.allclose(state, bc.state, atol=1e-9)


def test_csr_cc_matches_oracle(engines):
    edges, V, _, und_eng = engines
    earr = edges.to_pandas()[["src", "dst"]].to_numpy()
    state, iters, converged = und_eng.connected_components()
    assert converged
    assert np.array_equal(state, components_oracle(earr, V))


def test_partitioned_layout_on_disk(engines, tmp_path_factory):
    import glob
    import os

    _, _, dir_eng, _ = engines
    # one directory per hash partition + completion marker (resumable layout)
    roots = glob.glob("/tmp/pytest*/**/edges_dir_p4_c*", recursive=True)
    found = [r for r in roots if os.path.exists(os.path.join(r, "_SUCCESS"))]
    assert found
    parts = {os.path.basename(p) for p in glob.glob(found[0] + "/part=*")}
    assert parts == {f"part={p}" for p in range(4)}


def test_csr_lpa_matches_oracle(engines):
    from citationgraphs_ray.graph.oracle import lpa_oracle

    edges, V, _, und_eng = engines
    earr = edges.to_pandas()[["src", "dst"]].to_numpy()
    state, iters, converged = und_eng.label_propagation(max_rounds=50)
    exp = lpa_oracle(earr, V, max_rounds=50)
    assert np.array_equal(state, exp)


def test_csr_checkpoint_resume(engines, tmp_path):
    edges, V, dir_eng, _ = engines
    ck = str(tmp_path / "csr_ck")
    full, it_full, conv = dir_eng.pagerank(tol=1e-10, checkpoint_dir=ck)
    assert conv
    # resume from the converged checkpoint: bitwise no-op
    again, it2, conv2 = dir_eng.pagerank(
        tol=1e-10, checkpoint_dir=ck, resume=True
    )
    assert conv2 and np.array_equal(again, full)
    # interrupted run resumes and matches
    import shutil

    ck2 = str(tmp_path / "csr_ck2")
    dir_eng.pagerank(tol=1e-10, max_iters=3, checkpoint_dir=ck2)
    resumed, _, conv3 = dir_eng.pagerank(
        tol=1e-10, checkpoint_dir=ck2, resume=True
    )
    assert conv3 and np.array_equal(resumed, full)
    # per-partition shards exist
    import glob
    import os

    shards = glob.glob(os.path.join(ck2, "iter_000000", "state-*.parquet"))
    assert len(shards) == dir_eng.P


def test_csr_resume_judges_convergence_with_current_tol(engines, tmp_path):
    """engine._run's resume stop test on the CSR executor: a tol=1e-4
    checkpoint resumed at tol=1e-12 equals a fresh tol=1e-12 run."""
    _, _, dir_eng, _ = engines
    ck = str(tmp_path / "ck")
    _, it_loose, conv = dir_eng.pagerank(tol=1e-4, checkpoint_dir=ck)
    fresh, it_fresh, _ = dir_eng.pagerank(tol=1e-12)
    assert conv and it_loose < it_fresh
    resumed, it_res, conv_res = dir_eng.pagerank(
        tol=1e-12, checkpoint_dir=ck, resume=True
    )
    assert np.array_equal(resumed, fresh)
    assert (it_res, conv_res) == (it_fresh, True)


def test_csr_resume_reads_no_shard_on_driver(engines, tmp_path, monkeypatch):
    """CSR workers read their own checkpoint shards; the driver reads
    only the manifest."""
    import pyarrow.parquet as pq

    _, _, dir_eng, _ = engines
    ck = str(tmp_path / "ck")
    full, _, _ = dir_eng.pagerank(tol=1e-10)
    dir_eng.pagerank(tol=1e-10, max_iters=3, checkpoint_dir=ck)
    reads = []
    real = pq.read_table

    def spy(source, *a, **k):
        reads.append(str(source))
        return real(source, *a, **k)

    monkeypatch.setattr(pq, "read_table", spy)
    resumed, _, conv = dir_eng.pagerank(tol=1e-10, checkpoint_dir=ck, resume=True)
    assert conv and np.array_equal(resumed, full)
    assert not [r for r in reads if "state-" in r]


def test_csr_checkpoint_worker_count_independent(small_edges, tmp_path):
    """Checkpoint written with W=2 workers resumes under W=4 (shards are
    per partition, not per worker)."""
    edges, vids = small_edges
    V = vids.count()
    wd = str(tmp_path / "wt")
    ck = str(tmp_path / "ck")
    e2 = CsrEngine(edges, V, num_partitions=4, workdir=wd, tag="w", num_workers=2)
    full, _, _ = e2.pagerank(tol=1e-10, checkpoint_dir=ck)
    e2.pagerank(tol=1e-10, max_iters=3, checkpoint_dir=str(tmp_path / "ck2"))
    e2.shutdown()
    e4 = CsrEngine(edges, V, num_partitions=4, workdir=wd, tag="w", num_workers=4)
    resumed, _, conv = e4.pagerank(
        tol=1e-10, checkpoint_dir=str(tmp_path / "ck2"), resume=True
    )
    e4.shutdown()
    assert conv and np.array_equal(resumed, full)


def _perturbed(edges, V):
    """Same (V, E) but one edge endpoint moved — a different graph."""
    import ray.data

    df = edges.to_pandas()
    i = df.index[0]
    for _ in range(2):
        df.loc[i, "dst"] = int(df.loc[i, "dst"] + 1) % V
        if df.loc[i, "src"] != df.loc[i, "dst"]:
            break
    return ray.data.from_pandas(df)


def test_csr_different_graph_same_shape_rejected(small_edges, tmp_path):
    """CSR fingerprint carries the edge checksum: a graph with identical
    (P, V, E) must not resume another graph's checkpoints."""
    edges, vids = small_edges
    V = vids.count()
    ck = str(tmp_path / "ck")
    e1 = CsrEngine(edges, V, num_partitions=4, workdir=str(tmp_path / "w1"))
    e1.pagerank(tol=1e-10, max_iters=1, checkpoint_dir=ck)
    e1.shutdown()
    e2 = CsrEngine(
        _perturbed(edges, V), V, num_partitions=4, workdir=str(tmp_path / "w2")
    )
    try:
        with pytest.raises(ValueError, match="different run"):
            e2.pagerank(tol=1e-10, max_iters=1, checkpoint_dir=ck)
    finally:
        e2.shutdown()


def test_csr_layout_cache_keyed_on_edge_content(small_edges, tmp_path):
    """Same workdir/tag/P but a different edge Dataset must NOT reuse the
    cached partitioned layout (dir key includes the edge checksum)."""
    edges, vids = small_edges
    V = vids.count()
    wd = str(tmp_path / "shared")
    e1 = CsrEngine(edges, V, num_partitions=4, workdir=wd, tag="same")
    r1, _, _ = e1.pagerank(tol=1e-10)
    e1.shutdown()
    other = _perturbed(edges, V)
    e2 = CsrEngine(other, V, num_partitions=4, workdir=wd, tag="same")
    r2, _, _ = e2.pagerank(tol=1e-10)
    e2.shutdown()
    from citationgraphs_ray.graph.oracle import pagerank_oracle

    earr = other.to_pandas()[["src", "dst"]].to_numpy()
    assert np.allclose(r2, pagerank_oracle(earr, V, tol=1e-10), atol=1e-6)
    assert not np.allclose(r1, r2)  # genuinely different graphs


def test_csr_cc_checkpoint_resume(engines, tmp_path):
    edges, V, _, und_eng = engines
    full, _, _ = und_eng.connected_components()
    ck = str(tmp_path / "cc_ck")
    und_eng.connected_components(max_iters=2, checkpoint_dir=ck)
    resumed, _, conv = und_eng.connected_components(
        checkpoint_dir=ck, resume=True
    )
    assert conv and np.array_equal(resumed, full)


def test_csr_bfs_matches_oracle_and_broadcast(engines):
    from citationgraphs_ray.graph.engine import UNREACHED, bfs_hops
    from citationgraphs_ray.graph.oracle import bfs_oracle

    edges, V, dir_eng, und_eng = engines
    earr = edges.to_pandas()[["src", "dst"]].to_numpy()
    state, iters, converged = und_eng.bfs_hops([0])
    assert converged
    exp = bfs_oracle(earr, V, [0], directed=False)
    assert np.array_equal(state, exp)
    # directed variant agrees with the broadcast engine bitwise
    d_state, _, d_conv = dir_eng.bfs_hops([0, 3])
    bc = bfs_hops(
        __import__("ray").data.from_arrow(
            edges.to_pandas().pipe(
                lambda df: __import__("pyarrow").Table.from_pandas(
                    df, preserve_index=False
                )
            )
        ),
        V,
        sources=[0, 3],
    )
    assert d_conv and np.array_equal(d_state, bc.state)
    assert (d_state == UNREACHED).any()  # directed graph: some unreached


def test_csr_bfs_checkpoint_resume(engines, tmp_path):
    _, V, _, und_eng = engines
    full, _, _ = und_eng.bfs_hops([0])
    ck = str(tmp_path / "ck_bfs")
    und_eng.bfs_hops([0], max_iters=1, checkpoint_dir=ck)
    resumed, _, conv = und_eng.bfs_hops(
        [0], checkpoint_dir=ck, resume=True
    )
    assert conv and np.array_equal(resumed, full)
    # a different source set must NOT resume from these checkpoints —
    # the manager rejects the mismatched kernel tag outright
    with pytest.raises(ValueError, match="different run"):
        und_eng.bfs_hops([1], checkpoint_dir=ck, resume=True)


def test_csr_bfs_rejects_bad_sources(engines):
    _, V, _, und_eng = engines
    with pytest.raises(ValueError):
        und_eng.bfs_hops([])
    with pytest.raises(ValueError):
        und_eng.bfs_hops([V])


def test_csr_kcore_matches_oracle_and_broadcast(engines):
    from citationgraphs_ray.graph.engine import k_core
    from citationgraphs_ray.graph.oracle import k_core_oracle

    edges, V, _, und_eng = engines
    earr = edges.to_pandas()[["src", "dst"]].to_numpy()
    for k in (2, 3, 5):
        state, iters, converged = und_eng.k_core(k)
        assert converged
        assert np.array_equal(state, k_core_oracle(earr, V, k=k)), k
    und = symmetrize_edges(edges).materialize()
    bc = k_core(und, V, k=3)
    state, _, _ = und_eng.k_core(3)
    assert np.array_equal(state, bc.state)


def test_csr_kcore_checkpoint_resume(engines, tmp_path):
    _, V, _, und_eng = engines
    full, _, _ = und_eng.k_core(3)
    ck = str(tmp_path / "ck_kcore")
    und_eng.k_core(3, max_iters=1, checkpoint_dir=ck)
    resumed, _, conv = und_eng.k_core(3, checkpoint_dir=ck, resume=True)
    assert conv and np.array_equal(resumed, full)
    with pytest.raises(ValueError, match="different run"):
        und_eng.k_core(4, checkpoint_dir=ck, resume=True)


def test_csr_kcore_rejects_bad_k(engines):
    _, _, _, und_eng = engines
    with pytest.raises(ValueError):
        und_eng.k_core(0)


@pytest.fixture(scope="module")
def weighted_engine(small_edges, tmp_path_factory):
    import ray.data

    from citationgraphs_ray.utils import fast_grouped_agg

    edges, vids = small_edges
    V = vids.count()
    we = fast_grouped_agg(edges, ["src", "dst"], count_as="w").materialize()
    wd = str(tmp_path_factory.mktemp("csr_w"))
    eng = CsrEngine(we, V, num_partitions=4, workdir=wd, tag="w",
                    weight_col="w")
    yield we, V, eng
    eng.shutdown()


def test_csr_sssp_matches_oracle_and_broadcast(weighted_engine):
    from citationgraphs_ray.graph.engine import sssp
    from citationgraphs_ray.graph.oracle import sssp_oracle

    we, V, eng = weighted_engine
    df = we.to_pandas()
    earr = df[["src", "dst"]].to_numpy().astype(np.int64)
    w = df["w"].to_numpy().astype(np.int64)
    state, iters, converged = eng.sssp([0])
    assert converged
    assert np.array_equal(state, sssp_oracle(earr, w, V, [0]))
    bc = sssp(we, V, sources=[0])
    assert np.array_equal(state, bc.state)


def test_csr_sssp_checkpoint_resume(weighted_engine, tmp_path):
    we, V, eng = weighted_engine
    full, _, _ = eng.sssp([0])
    ck = str(tmp_path / "ck_sssp")
    eng.sssp([0], max_iters=1, checkpoint_dir=ck)
    resumed, _, conv = eng.sssp([0], checkpoint_dir=ck, resume=True)
    assert conv and np.array_equal(resumed, full)
    with pytest.raises(ValueError, match="different run"):
        eng.sssp([1], checkpoint_dir=ck, resume=True)


def test_csr_sssp_requires_weighted_layout(engines):
    _, _, dir_eng, _ = engines
    with pytest.raises(Exception, match="weight_col"):
        dir_eng.sssp([0])


def test_csr_personalized_pagerank(engines, tmp_path):
    """CSR PPR matches the oracle and the broadcast engine; a resume
    under a DIFFERENT seed set is rejected by the kernel label."""
    edges, V, dir_eng, _ = engines
    earr = edges.to_pandas()[["src", "dst"]].to_numpy()
    seeds = [0, 3]
    state, iters, converged = dir_eng.pagerank(tol=1e-12, reset_ids=seeds)
    assert converged
    exp = pagerank_oracle(earr, V, tol=1e-12, reset_ids=np.array(seeds))
    assert np.allclose(state, exp, atol=1e-9)
    bc = pagerank(edges, V, tol=1e-12, reset_ids=seeds)
    assert np.allclose(state, bc.state, atol=1e-9)
    # uniform run right after a PPR run must NOT inherit r0
    uni, _, _ = dir_eng.pagerank(tol=1e-10)
    exp_uni = pagerank_oracle(earr, V, tol=1e-10)
    assert np.allclose(uni, exp_uni, atol=1e-6)
    # checkpoint label carries the seed tag → other seeds rejected
    ck = str(tmp_path / "pprck")
    dir_eng.pagerank(tol=1e-12, reset_ids=[0], checkpoint_dir=ck)
    with pytest.raises(ValueError, match="different run"):
        dir_eng.pagerank(
            tol=1e-12, reset_ids=[1], checkpoint_dir=ck, resume=True
        )
