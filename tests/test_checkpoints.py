"""F5: checkpoint/resume — interrupted run ≡ uninterrupted run, exactly."""

import json
import os
import re
import shutil

import numpy as np
import pytest

from citationgraphs_ray.graph.engine import (
    connected_components,
    label_propagation,
    pagerank,
)
from citationgraphs_ray.stages.edges import symmetrize_edges
from citationgraphs_ray.state.checkpoints import CheckpointManager


@pytest.fixture()
def ckdir(tmp_path):
    return str(tmp_path / "ck")


def test_pagerank_resume_equals_uninterrupted(small_edges, ckdir):
    edges, vids = small_edges
    V = vids.count()
    full = pagerank(edges, V, tol=1e-10)
    # interrupted: run 3 supersteps, "kill", resume to convergence
    pagerank(edges, V, tol=1e-10, max_iters=3, checkpoint_dir=ckdir)
    resumed = pagerank(
        edges, V, tol=1e-10, checkpoint_dir=ckdir, resume=True
    )
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)  # bitwise: same op order


def test_resume_ignores_incomplete_superstep(small_edges, ckdir):
    edges, vids = small_edges
    V = vids.count()
    pagerank(edges, V, tol=1e-10, max_iters=3, checkpoint_dir=ckdir)
    iters = sorted(d for d in os.listdir(ckdir) if d.startswith("iter_"))
    # simulate a crash mid-write: newest superstep has state but no manifest
    os.remove(os.path.join(ckdir, iters[-1], "MANIFEST.json"))
    mgr = CheckpointManager(ckdir, "pagerank", _fp(ckdir))
    ck = mgr.latest()
    assert ck.iteration == int(iters[-2].split("_")[1])


def test_manifest_contents(small_edges, ckdir):
    edges, vids = small_edges
    V = vids.count()
    pagerank(edges, V, tol=1e-10, max_iters=2, checkpoint_dir=ckdir)
    it0 = os.path.join(ckdir, "iter_000000")
    with open(os.path.join(it0, "MANIFEST.json")) as f:
        m = json.load(f)
    assert m["kernel"] == "pagerank"
    assert m["parent"] is None
    assert "linf_residual" in m["metric"]
    assert len(m["parts"]) == m["num_partitions"]
    assert sum(p["rows"] for p in m["parts"]) == V
    # per-partition shard files exist (resumable, partitioned output)
    for p in m["parts"]:
        assert os.path.exists(os.path.join(it0, p["file"]))


def test_fingerprint_mismatch_rejected(small_edges, ckdir):
    edges, vids = small_edges
    V = vids.count()
    pagerank(edges, V, tol=1e-10, max_iters=1, checkpoint_dir=ckdir)
    with pytest.raises(ValueError, match="different run"):
        CheckpointManager(ckdir, "pagerank", "deadbeef00000000")


def test_cc_resume(small_edges, ckdir):
    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    full = connected_components(und, V)
    connected_components(und, V, max_iters=2, checkpoint_dir=ckdir)
    resumed = connected_components(und, V, checkpoint_dir=ckdir, resume=True)
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)


def test_lpa_resume(small_edges, ckdir):
    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    full = label_propagation(und, V)
    assert full.iterations > 2  # the resume really continues mid-run
    label_propagation(und, V, max_rounds=2, checkpoint_dir=ckdir)
    resumed = label_propagation(und, V, checkpoint_dir=ckdir, resume=True)
    assert np.array_equal(resumed.state, full.state)
    assert (resumed.iterations, resumed.converged) == (
        full.iterations,
        full.converged,
    )


@pytest.mark.parametrize("reduce", ["local", "csr"])
def test_checkpoint_dir_of_older_shard_format_refused(small_edges, ckdir, reduce):
    """A checkpoint dir whose run.json records no Arrow shard format (its
    shards are Parquet) is refused by name before any shard is read."""
    edges, vids = small_edges
    V = vids.count()
    pagerank(edges, V, tol=1e-10, max_iters=2, checkpoint_dir=ckdir, reduce=reduce)
    run_path = os.path.join(ckdir, "run.json")
    with open(run_path) as f:
        meta = json.load(f)
    assert meta.pop("shard_format") == "arrow"
    with open(run_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match=f"checkpoint dir {re.escape(ckdir)} .*older"):
        pagerank(edges, V, tol=1e-10, checkpoint_dir=ckdir, resume=True, reduce=reduce)


def test_edge_checksum_independent_of_block_layout():
    """One edge set split into one block or four gets one checksum."""
    import pyarrow as pa
    import ray.data

    from citationgraphs_ray.graph.engine import edge_checksum_and_count

    e = np.random.default_rng(5).integers(0, 1 << 40, size=(100, 2))
    tbl = pa.table({"src": e[:, 0], "dst": e[:, 1]})
    one = ray.data.from_arrow(tbl)
    four = ray.data.from_arrow([tbl.slice(i, 25) for i in range(0, 100, 25)])
    assert four.num_blocks() == 4
    mod, mask = (1 << 61) - 1, (1 << 64) - 1
    want = sum(
        ((s * 0x9E3779B97F4A7C15) & mask ^ (d * 0xC2B2AE3D27D4EB4F) & mask) % mod
        for s, d in e.tolist()
    ) % mod
    assert edge_checksum_and_count(one) == edge_checksum_and_count(four) == (want, 100)


def _fp(ckdir):
    with open(os.path.join(ckdir, "run.json")) as f:
        return json.load(f)["fingerprint"]


def test_resume_after_convergence_is_noop(small_edges, ckdir):
    """Resuming a converged run must not run extra supersteps (bitwise)."""
    edges, vids = small_edges
    V = vids.count()
    full = pagerank(edges, V, tol=1e-10, checkpoint_dir=ckdir)
    assert full.converged
    again = pagerank(edges, V, tol=1e-10, checkpoint_dir=ckdir, resume=True)
    assert np.array_equal(again.state, full.state)
    assert again.iterations == full.iterations


def test_resume_judges_convergence_with_current_tol(small_edges, ckdir):
    """A checkpoint that converged under a looser tol is not converged
    under a tighter one: the resume continues and ends bitwise-equal to
    a fresh tight run, superstep count included."""
    edges, vids = small_edges
    V = vids.count()
    loose = pagerank(edges, V, tol=1e-4, checkpoint_dir=ckdir)
    fresh = pagerank(edges, V, tol=1e-12)
    assert loose.converged and loose.iterations < fresh.iterations
    resumed = pagerank(edges, V, tol=1e-12, checkpoint_dir=ckdir, resume=True)
    assert np.array_equal(resumed.state, fresh.state)
    assert (resumed.iterations, resumed.converged) == (fresh.iterations, True)


def test_different_graph_same_shape_rejected(small_edges, ckdir):
    """A graph with identical (V, E) but different edges must not resume
    from another graph's checkpoint (edge checksum in the fingerprint)."""
    import pyarrow as pa
    import ray.data

    edges, vids = small_edges
    V = vids.count()
    pagerank(edges, V, tol=1e-10, max_iters=1, checkpoint_dir=ckdir)
    df = edges.to_pandas()
    df2 = df.copy()
    # swap one edge endpoint → same row count, different edge set
    df2.loc[df2.index[0], "dst"] = (df2.iloc[0]["dst"] + 1) % V
    if ((df2.iloc[0]["src"] == df2.iloc[0]["dst"])):
        df2.loc[df2.index[0], "dst"] = (df2.iloc[0]["dst"] + 1) % V
    other = ray.data.from_pandas(df2)
    with pytest.raises(ValueError, match="different run"):
        pagerank(other, V, tol=1e-10, max_iters=1, checkpoint_dir=ckdir)


def test_checkpoint_pruning_keeps_resume_point(small_edges, ckdir):
    """keep_last prunes old superstep dirs while resume still works from
    the newest surviving manifest."""
    edges, vids = small_edges
    V = vids.count()
    full = pagerank(edges, V, tol=1e-10)
    pagerank(
        edges,
        V,
        tol=1e-10,
        max_iters=4,
        checkpoint_dir=ckdir,
        checkpoint_keep_last=2,
    )
    iters = sorted(d for d in os.listdir(ckdir) if d.startswith("iter_"))
    assert len(iters) == 2  # only the newest two survive
    resumed = pagerank(
        edges, V, tol=1e-10, checkpoint_dir=ckdir, resume=True
    )
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)


def test_bfs_resume(small_edges, ckdir):
    from citationgraphs_ray.graph.engine import bfs_hops
    from citationgraphs_ray.stages.edges import symmetrize_edges

    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    full = bfs_hops(und, V, sources=[0])
    bfs_hops(und, V, sources=[0], max_iters=1, checkpoint_dir=ckdir)
    resumed = bfs_hops(
        und, V, sources=[0], checkpoint_dir=ckdir, resume=True
    )
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)


def test_kcore_resume(small_edges, ckdir):
    from citationgraphs_ray.graph.engine import k_core
    from citationgraphs_ray.stages.edges import symmetrize_edges

    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    full = k_core(und, V, k=3)
    k_core(und, V, k=3, max_iters=1, checkpoint_dir=ckdir)
    resumed = k_core(und, V, k=3, checkpoint_dir=ckdir, resume=True)
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)


def test_sssp_resume(small_edges, ckdir):
    import pyarrow as pa
    import ray.data

    from citationgraphs_ray.graph.engine import sssp
    from citationgraphs_ray.utils import fast_grouped_agg

    edges, vids = small_edges
    V = vids.count()
    we = fast_grouped_agg(edges, ["src", "dst"], count_as="w").materialize()
    full = sssp(we, V, sources=[0])
    sssp(we, V, sources=[0], max_iters=1, checkpoint_dir=ckdir)
    resumed = sssp(we, V, sources=[0], checkpoint_dir=ckdir, resume=True)
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)


def test_lpa_dirty_recount_resume(small_edges, ckdir, tmp_path, monkeypatch):
    """A resume from a mid-run checkpoint recounts every vertex in its
    first superstep, then only the dirty ones: state, iterations and
    history equal a resume that recounts every vertex every superstep."""
    from citationgraphs_ray.graph import engine

    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    label_propagation(und, V, max_rounds=2, checkpoint_dir=ckdir, reduce="local")
    full_dir = str(tmp_path / "ck_full")
    shutil.copytree(ckdir, full_dir)
    dirty = label_propagation(und, V, checkpoint_dir=ckdir, resume=True, reduce="local")
    with monkeypatch.context() as m:
        m.setattr(engine._LabelPropagation, "recount_dirty", False)
        full = label_propagation(
            und, V, checkpoint_dir=full_dir, resume=True, reduce="local"
        )
    assert np.array_equal(dirty.state, full.state)
    assert (dirty.iterations, dirty.converged, dirty.history) == (
        full.iterations, full.converged, full.history,
    )
    assert np.array_equal(dirty.state, label_propagation(und, V, reduce="local").state)


def test_lpa_rejects_vertex_count_beyond_int64_pair_keys():
    from citationgraphs_ray.graph.engine import _LabelPropagation

    with pytest.raises(ValueError, match=r"V ≲ 3e9, got V=4000000000"):
        _LabelPropagation(4_000_000_000)


@pytest.mark.parametrize("weight_col", [None, "w"])
def test_local_fingerprint_equals_checksum_pass(weight_col):
    """The local executor's fingerprint, from the arrays on the driver,
    equals the one from ``edge_checksum``'s Ray Data pass over a
    multi-block input."""
    import pyarrow as pa
    import ray.data

    from citationgraphs_ray.graph.engine import _Edges, edge_checksum, edge_fingerprint
    from citationgraphs_ray.utils import collect_table

    rng = np.random.default_rng(6)
    e = rng.integers(0, 1000, size=(100, 3))
    tbl = pa.table({"src": e[:, 0], "dst": e[:, 1], "w": e[:, 2]})
    ds = ray.data.from_arrow([tbl.slice(i, 25) for i in range(0, 100, 25)])
    assert ds.num_blocks() == 4
    g = _Edges(collect_table(ds), 1000, weight_col)
    want = edge_fingerprint(1000, 100, str(edge_checksum(ds, weight_col)))
    assert g.fingerprint == want


def test_local_checkpointed_run_reads_no_checksum_pass(small_edges, ckdir, monkeypatch):
    """A checkpointed local run and its resume fingerprint the graph
    without a Ray Data pass over the edges."""
    from citationgraphs_ray.graph import engine

    def no_pass(*a, **k):
        raise AssertionError("edge_checksum_and_count ran")

    edges, vids = small_edges
    V = vids.count()
    full = pagerank(edges, V, tol=1e-10, reduce="local")
    monkeypatch.setattr(engine, "edge_checksum_and_count", no_pass)
    pagerank(edges, V, tol=1e-10, max_iters=3, checkpoint_dir=ckdir, reduce="local")
    resumed = pagerank(
        edges, V, tol=1e-10, checkpoint_dir=ckdir, resume=True, reduce="local"
    )
    assert np.array_equal(resumed.state, full.state)
