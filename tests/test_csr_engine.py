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

    shards = glob.glob(os.path.join(ck2, "iter_000000", "state-*.arrow"))
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

    from citationgraphs_ray.state import checkpoints

    _, _, dir_eng, _ = engines
    ck = str(tmp_path / "ck")
    full, _, _ = dir_eng.pagerank(tol=1e-10)
    dir_eng.pagerank(tol=1e-10, max_iters=3, checkpoint_dir=ck)
    reads = []

    def spy(real):
        def read(source, *a, **k):
            reads.append(str(source))
            return real(source, *a, **k)

        return read

    monkeypatch.setattr(pq, "read_table", spy(pq.read_table))
    monkeypatch.setattr(checkpoints, "read_shard", spy(checkpoints.read_shard))
    resumed, _, conv = dir_eng.pagerank(tol=1e-10, checkpoint_dir=ck, resume=True)
    assert conv and np.array_equal(resumed, full)
    assert not [r for r in reads if "state-" in r]


def test_csr_undue_converged_superstep_is_checkpointed(engines, tmp_path):
    """With checkpoint_every=3, a run that converges on a superstep that
    was not due still leaves a complete checkpoint of it, and its resume
    is bitwise equal to the uninterrupted run."""
    import os

    from citationgraphs_ray.state.checkpoints import CheckpointManager

    _, _, dir_eng, _ = engines
    for tol in (1e-10, 1e-9, 1e-8):
        full, iters, conv = dir_eng.pagerank(tol=tol)
        if (iters - 1) % 3:
            break
    assert conv and (iters - 1) % 3, "every tol converged on a due superstep"
    ck = str(tmp_path / "ck")
    got, it_ck, _ = dir_eng.pagerank(tol=tol, checkpoint_dir=ck, checkpoint_every=3)
    assert it_ck == iters and np.array_equal(got, full)
    done = sorted(
        d for d in os.listdir(ck)
        if os.path.exists(os.path.join(ck, d, "MANIFEST.json"))
    )
    assert done[-1] == f"iter_{iters - 1:06d}"
    assert [int(d[5:]) for d in done[:-1]] == list(range(0, iters - 1, 3))
    latest = CheckpointManager(ck, "pagerank", dir_eng.fingerprint).latest()
    assert np.array_equal(latest.state["rank"], full)
    resumed, it_res, conv_res = dir_eng.pagerank(
        tol=tol, checkpoint_dir=ck, checkpoint_every=3, resume=True
    )
    assert (it_res, conv_res) == (iters, True)
    assert np.array_equal(resumed, full)


def test_checkpointed_superstep_is_one_worker_round_trip(engines, tmp_path, monkeypatch):
    """A checkpointed single-reduce superstep makes one worker round trip,
    shards included: ``init`` and then exactly one ``_get`` per superstep."""
    _, _, dir_eng, _ = engines
    calls = []
    real = CsrEngine._get

    def counted(self, refs):
        calls.append(len(refs))
        return real(self, refs)

    monkeypatch.setattr(CsrEngine, "_get", counted)
    _, iters, conv = dir_eng.pagerank(
        tol=1e-10, checkpoint_dir=str(tmp_path / "ck"), assemble=False
    )
    assert conv and len(calls) == 1 + iters


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


# -- the session worker pool ---------------------------------------------------


def _actor_ids(eng):
    return {a._actor_id.hex() for a in eng.workers}


def _idle() -> list:
    """The pool's list of idle workers, bound to this session first (the
    first borrow of a session replaces the list)."""
    from citationgraphs_ray.graph import csr_engine

    csr_engine._borrow(0)
    return csr_engine._pool["idle"]


def _kill(actor, timeout=60.0):
    """``ray.kill`` and wait, bounded, until a call on the actor fails."""
    import time

    import ray
    from ray.exceptions import RayActorError

    ray.kill(actor)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            ray.get(actor.__ray_call__.remote(lambda self: None), timeout=timeout)
        except RayActorError:
            return
        time.sleep(0.05)
    raise TimeoutError("killed worker still answers")


def test_pool_lends_same_workers_without_state(small_edges, tmp_path):
    """A second engine starts no actor, and reset leaves nothing of the
    previous engine behind: after a P=4 LPA engine, the same worker runs
    a P=3 graph with more vertices bitwise-equal to a new worker (one
    worker, so it held every partition of both engines)."""
    edges, vids = small_edges
    V = vids.count()
    wd = str(tmp_path)
    idle = _idle()
    held = idle[:]
    idle.clear()  # the first engine starts new workers
    try:
        a = CsrEngine(edges, V, num_partitions=4, workdir=wd, num_workers=1)
        ids = _actor_ids(a)
        a.label_propagation(max_rounds=5)
        a.shutdown()
        b = CsrEngine(edges, V + 7, num_partitions=3, workdir=wd, num_workers=1)
        assert _actor_ids(b) == ids
        got = b.pagerank(tol=1e-10)
        b.shutdown()
        held += idle
        idle.clear()  # the reference run starts new workers
        fresh = CsrEngine(edges, V + 7, num_partitions=3, workdir=wd, num_workers=1)
        assert not _actor_ids(fresh) & ids
        want = fresh.pagerank(tol=1e-10)
        fresh.shutdown()
    finally:
        idle.extend(held)
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_pool_live_engines_get_disjoint_workers(small_edges, tmp_path):
    edges, vids = small_edges
    V = vids.count()
    e1 = CsrEngine(edges, V, num_partitions=4, workdir=str(tmp_path), num_workers=2)
    e2 = CsrEngine(edges, V, num_partitions=4, workdir=str(tmp_path), num_workers=2)
    try:
        assert not _actor_ids(e1) & _actor_ids(e2)
        assert np.array_equal(e1.pagerank(tol=1e-10)[0], e2.pagerank(tol=1e-10)[0])
    finally:
        e1.shutdown()
        e2.shutdown()


def test_pool_failed_construction_returns_workers(tmp_path):
    """A construction that raises in the workers' build gives back every
    worker it borrowed or started, emptied and usable."""
    import pyarrow as pa
    import ray.data

    def idle():
        return {a._actor_id.hex() for a in _idle()}

    before = idle()
    neg = ray.data.from_arrow(pa.table({"src": [0, 1], "dst": [1, 2], "w": [1, -1]}))
    with pytest.raises(Exception, match="non-negative"):
        CsrEngine(neg, 3, num_partitions=2, workdir=str(tmp_path), weight_col="w",
                  num_workers=2)
    after = idle()
    assert before <= after and len(after) == max(len(before), 2)
    ok = ray.data.from_arrow(pa.table({"src": [0, 1], "dst": [1, 2], "w": [1, 1]}))
    eng = CsrEngine(ok, 3, num_partitions=2, workdir=str(tmp_path), weight_col="w",
                    num_workers=2)
    assert _actor_ids(eng) <= after
    dist, _, conv = eng.sssp([0])
    eng.shutdown()
    assert conv and dist.tolist() == [0, 1, 2]


def test_pool_replaces_a_worker_that_died_idle(small_edges, tmp_path):
    edges, vids = small_edges
    V = vids.count()
    eng = CsrEngine(edges, V, num_partitions=4, workdir=str(tmp_path), num_workers=1)
    want, _, _ = eng.pagerank(tol=1e-10)
    eng.shutdown()
    dead = _idle()[-1]  # the next one lent
    _kill(dead)
    eng = CsrEngine(edges, V, num_partitions=4, workdir=str(tmp_path), num_workers=1)
    try:
        assert dead._actor_id.hex() not in _actor_ids(eng)
        got, _, _ = eng.pagerank(tol=1e-10)
    finally:
        eng.shutdown()
    assert np.array_equal(got, want)


def test_pool_keeps_one_idle_worker_per_cpu(small_edges, tmp_path):
    import ray

    edges, vids = small_edges
    cpus = int(ray.cluster_resources()["CPU"])
    eng = CsrEngine(edges, vids.count(), num_partitions=cpus + 1,
                    workdir=str(tmp_path), num_workers=cpus + 1)
    ids = _actor_ids(eng)
    eng.shutdown()
    kept = {a._actor_id.hex() for a in _idle()}
    assert len(kept) == cpus and kept <= ids


def test_pool_borrow_is_thread_safe():
    """Threads borrowing at once never get one worker twice (the pool
    holds placeholders here, enough that no actor starts)."""
    import sys
    import threading

    from citationgraphs_ray.graph import csr_engine

    idle = _idle()
    held = idle[:]
    idle[:] = [object() for _ in range(8 * 40 * 3)]
    got: list = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def borrow():
            for _ in range(40):
                got.extend(csr_engine._borrow(3))

        threads = [threading.Thread(target=borrow) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
        idle[:] = held
    assert len(got) == 8 * 40 * 3 and len({id(x) for x in got}) == len(got)


def test_engine_refuses_use_after_shutdown(small_edges, tmp_path):
    """A shut-down engine's workers may serve another engine: every call
    raises, and a second shutdown returns nothing twice."""
    edges, vids = small_edges
    V = vids.count()
    eng = CsrEngine(edges, V, num_partitions=4, workdir=str(tmp_path), num_workers=2)
    eng.shutdown()
    idle = len(_idle())
    eng.shutdown()
    assert len(_idle()) == idle
    calls = [
        lambda: eng.pagerank(),
        lambda: eng.connected_components(checkpoint_dir=str(tmp_path / "ck")),
        lambda: eng.k_core(2),
        lambda: eng.step(None),
        lambda: eng.write_states(str(tmp_path / "out")),
    ]
    for call in calls:
        with pytest.raises(RuntimeError, match="shut down"):
            call()


@pytest.mark.parametrize("phase", ["step", "save"])
def test_lost_worker_is_named_and_not_pooled(small_edges, tmp_path, monkeypatch, phase):
    """A worker killed before superstep 3 (``step``) or before its manifest
    (``save``) is named in the error with its partitions and the newest
    complete checkpoint: iteration 2, or 3, since superstep 3's shards are
    written by its own gather, so its manifest completes before the next
    superstep finds the dead worker. It never goes back to the pool, and
    the next engine resumes to the uninterrupted ranks."""
    edges, vids = small_edges
    V = vids.count()
    wd = str(tmp_path / "w")
    ck = str(tmp_path / "ck")
    eng = CsrEngine(edges, V, num_partitions=4, workdir=wd, num_workers=2)
    victim = eng.workers[1]
    real = getattr(eng, phase)
    calls = []

    def hooked(*args):
        calls.append(args)
        if len(calls) == 4:
            _kill(victim)
        return real(*args)

    monkeypatch.setattr(eng, phase, hooked)
    with pytest.raises(
        RuntimeError, match=r"worker 1 \(partitions \[1, 3\]\) was lost; "
        rf"resume from checkpoint iteration {2 if phase == 'step' else 3} "
    ):
        eng.pagerank(tol=1e-10, checkpoint_dir=ck)
    eng.shutdown()
    dead = victim._actor_id.hex()
    assert dead not in {a._actor_id.hex() for a in _idle()}
    nxt = CsrEngine(edges, V, num_partitions=4, workdir=wd, num_workers=2)
    try:
        assert dead not in _actor_ids(nxt)
        full, _, _ = nxt.pagerank(tol=1e-10)
        resumed, _, conv = nxt.pagerank(tol=1e-10, checkpoint_dir=ck, resume=True)
    finally:
        nxt.shutdown()
    assert conv and np.array_equal(resumed, full)


_SESSIONS_SCRIPT = """
import os, time
import ray, ray.data
import pyarrow as pa
from citationgraphs_ray.graph import csr_engine

edges = pa.table({"src": [0, 1, 2], "dst": [1, 2, 0]})
seen, pids = [], []
for _ in range(2):
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    eng = csr_engine.CsrEngine(ray.data.from_arrow(edges), 3, num_partitions=2,
                               workdir=os.environ["WD"], num_workers=1)
    (worker,) = eng.workers
    seen.append(worker._actor_id.hex())
    pids.append(ray.get(worker.__ray_call__.remote(lambda self: os.getpid())))
    ranks, _, conv = eng.pagerank(tol=1e-12)
    assert conv and abs(ranks.sum() - 1) < 1e-9 and abs(ranks[0] - 1 / 3) < 1e-9
    eng.shutdown()
    assert len(csr_engine._pool["idle"]) == 1
    ray.shutdown()
assert seen[0] != seen[1], seen


def gone(pid):  # an exited process, or one left unreaped
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


deadline = time.monotonic() + 30
for pid in pids:
    while not gone(pid):
        assert time.monotonic() < deadline, f"worker {pid} outlived ray.shutdown()"
        time.sleep(0.1)
print("OK")
"""


def test_pool_never_lends_a_past_sessions_worker(tmp_path):
    """init → engine → shutdown → init → engine in one process: the second
    session starts its own worker, and no worker outlives its session."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root, "WD": str(tmp_path)}
    out = subprocess.run(
        [sys.executable, "-c", _SESSIONS_SCRIPT], env=env, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("OK"), out.stderr[-3000:]


def test_csr_resume_scatters_once(engines, tmp_path):
    """A resume scatters each worker's first reduce once, from the
    checkpoint, not first from the initial state as well, and ends
    bitwise-equal to the uninterrupted run."""
    import ray

    _, _, dir_eng, _ = engines
    full, iters, _ = dir_eng.pagerank(tol=1e-10)
    ck = str(tmp_path / "ck")
    dir_eng.pagerank(tol=1e-10, max_iters=3, checkpoint_dir=ck)

    def count(worker):
        real = worker._scatter
        worker.scatters = 0

        def counted(i):
            worker.scatters += 1
            return real(i)

        worker._scatter = counted

    def uncount(worker):
        del worker._scatter
        return worker.scatters

    ray.get([a.__ray_call__.remote(count) for a in dir_eng.workers])
    try:
        resumed, it_res, conv = dir_eng.pagerank(
            tol=1e-10, checkpoint_dir=ck, resume=True
        )
    finally:
        scatters = ray.get([a.__ray_call__.remote(uncount) for a in dir_eng.workers])
    assert conv and it_res == iters and np.array_equal(resumed, full)
    # the first reduce from the checkpoint, then one per superstep's gather
    assert scatters == [1 + iters - 3] * len(dir_eng.workers)


def test_held_bundles_independent_of_worker_count(small_edges, tmp_path):
    """P=4 engines at W=1, 2 and 3 (at W=3 worker 0 owns partitions 0 and
    3, so it folds its own bundle with the other workers'): PageRank
    (dense push), LPA (sparse push), HITS (push, pull and norm) and MIS
    (two pushes) give bitwise-equal state, iterations and history. After
    ``init`` no worker's pending bundles are addressed to itself, and at
    W=1 there are none."""
    from citationgraphs_ray.graph import engine

    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    kernels = {
        "dir": {
            "pagerank": lambda: engine._PageRank(V, 0.85, 1e-10, None),
            "hits": lambda: engine._Hits(100, 1e-10),
        },
        "und": {
            "lpa": lambda: engine._LabelPropagation(V),
            "mis": lambda: engine._Mis(41),
        },
    }
    runs = {}
    for W in (1, 2, 3):
        for tag, eds in (("dir", edges), ("und", und)):
            eng = CsrEngine(eds, V, num_partitions=4, workdir=str(tmp_path),
                            tag=tag, num_workers=W)
            try:
                for name, make in kernels[tag].items():
                    eng.init(make(), None, False)
                    pending = [set(bundles) for bundles, _ in eng._pending]
                    assert all(w not in b for w, b in enumerate(pending)), name
                    assert W > 1 or pending == [set()], name
                    done = engine._run(eng, make(), 100, None, False, None)
                    runs[name, W] = eng.assemble(), done
            finally:
                eng.shutdown()
    for (name, W), (cols, done) in runs.items():
        want_cols, want_done = runs[name, 1]
        assert done == want_done, (name, W)
        assert cols.keys() == want_cols.keys()
        for c in cols:
            assert np.array_equal(cols[c], want_cols[c]), (name, W, c)


def _loaded(worker) -> list:
    """Which of Ray Data and pandas a worker process has imported."""
    import sys

    import ray

    return ray.get(worker.__ray_call__.remote(
        lambda self: [m for m in ("ray.data", "pandas") if m in sys.modules]
    ))


def test_csr_engine_module_imports_no_ray_data():
    """Importing the CSR engine (and with it engine.py and utils) loads
    neither Ray Data nor pandas: every worker process imports it."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, ray, citationgraphs_ray.graph.csr_engine\n"
        "print([m for m in ('ray.data', 'pandas') if m in sys.modules])"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr[-3000:]


def test_pooled_worker_imports_no_ray_data(small_edges, tmp_path):
    """A worker the pool starts has loaded neither Ray Data nor pandas,
    and has not after it built an engine, wrote checkpoint shards and
    resumed from them."""
    from citationgraphs_ray.graph import csr_engine

    edges, vids = small_edges
    ck = str(tmp_path / "ck")
    idle = _idle()
    held = idle[:]
    idle.clear()
    try:
        (worker,) = csr_engine._borrow(1)
        assert _loaded(worker) == []
        idle.append(worker)
        eng = CsrEngine(edges, vids.count(), num_partitions=4,
                        workdir=str(tmp_path), num_workers=1)
        assert _actor_ids(eng) == {worker._actor_id.hex()}
        eng.pagerank(tol=1e-10, max_iters=3, checkpoint_dir=ck)
        _, _, conv = eng.pagerank(tol=1e-10, checkpoint_dir=ck, resume=True)
        eng.shutdown()
        assert conv and _loaded(worker) == []
    finally:
        idle.extend(held)
