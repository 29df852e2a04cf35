"""Both graph engines run one definition per kernel on one superstep loop:
same iteration counts, same resume accounting, same checkpoint identity."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.graph import engine
from citationgraphs_ray.graph.csr_engine import CsrEngine
from citationgraphs_ray.stages.edges import symmetrize_edges
from citationgraphs_ray.state.checkpoints import CheckpointManager


@pytest.fixture(scope="module")
def graphs(small_edges, tmp_path_factory):
    edges, vids = small_edges
    V = vids.count()
    und = symmetrize_edges(edges).materialize()
    df = edges.to_pandas()
    wdf = df[["src", "dst"]].assign(w=(df["src"] * 7 + df["dst"]) % 5)
    weighted = ray.data.from_arrow(
        pa.Table.from_pandas(wdf, preserve_index=False)
    )
    wd = str(tmp_path_factory.mktemp("shared"))
    engines = {
        "dir": CsrEngine(edges, V, num_partitions=4, workdir=wd, tag="d"),
        "und": CsrEngine(und, V, num_partitions=4, workdir=wd, tag="u"),
        "w": CsrEngine(weighted, V, num_partitions=4, workdir=wd, tag="w",
                       weight_col="w"),
    }
    yield edges, und, weighted, V, engines
    for eng in engines.values():
        eng.shutdown()


def test_csr_iterations_equal_broadcast(graphs):
    """Every CSR kernel reports the broadcast engine's superstep count
    (k-core included: its first peel is a superstep on both)."""
    edges, und, weighted, V, eng = graphs
    pairs = {
        "pagerank": (engine.pagerank(edges, V, tol=1e-10),
                     eng["dir"].pagerank(tol=1e-10)),
        "ppr": (engine.pagerank(edges, V, tol=1e-10, reset_ids=[0, 3]),
                eng["dir"].pagerank(tol=1e-10, reset_ids=[0, 3])),
        "cc": (engine.connected_components(und, V),
               eng["und"].connected_components()),
        "lpa": (engine.label_propagation(und, V),
                eng["und"].label_propagation()),
        "bfs": (engine.bfs_hops(edges, V, [0, 3]), eng["dir"].bfs_hops([0, 3])),
        "sssp": (engine.sssp(weighted, V, [0, 3]), eng["w"].sssp([0, 3])),
    }
    for k in (2, 3, 4):
        pairs[f"kcore{k}"] = (engine.k_core(und, V, k), eng["und"].k_core(k))
    for name, (bc, (state, iters, converged)) in pairs.items():
        assert (iters, converged) == (bc.iterations, bc.converged), name
        if state.dtype.kind == "f":
            assert np.allclose(state, bc.state, atol=1e-9), name
        else:
            assert np.array_equal(state, bc.state), name


def test_csr_weighted_layout_runs_unweighted_kernels(graphs):
    """Only SSSP reads the weights: on a weighted layout every other kernel
    gives the unweighted layout's result (BFS counts hops, not weights)."""
    eng = graphs[4]
    runs = {
        "pagerank": lambda e: e.pagerank(tol=1e-10),
        "ppr": lambda e: e.pagerank(tol=1e-10, reset_ids=[0, 3]),
        "cc": lambda e: e.connected_components(),
        "lpa": lambda e: e.label_propagation(),
        "bfs": lambda e: e.bfs_hops([0, 3]),
        "kcore": lambda e: e.k_core(2),
    }
    for name, run in runs.items():
        (w, w_iters, w_conv), (d, d_iters, d_conv) = run(eng["w"]), run(eng["dir"])
        assert (w_iters, w_conv) == (d_iters, d_conv), name
        if d.dtype.kind == "f":
            assert np.allclose(w, d, atol=1e-12), name
        else:
            assert np.array_equal(w, d), name


def test_csr_rejects_negative_weight(tmp_path):
    neg = ray.data.from_arrow(pa.table({"src": [0, 1], "dst": [1, 2], "w": [1, -1]}))
    with pytest.raises(Exception, match="non-negative"):
        CsrEngine(neg, 3, num_partitions=2, workdir=str(tmp_path), weight_col="w")


def test_broadcast_resume_of_capped_run_counts_completed_supersteps(
    small_edges, tmp_path
):
    """Resuming a run whose last checkpoint is superstep max_iters-1 runs
    no superstep and reports the max_iters completed, not one more."""
    edges, vids = small_edges
    V = vids.count()
    ck = str(tmp_path / "ck")
    capped = engine.pagerank(edges, V, tol=1e-10, max_iters=3, checkpoint_dir=ck)
    assert (capped.iterations, capped.converged) == (3, False)
    again = engine.pagerank(
        edges, V, tol=1e-10, max_iters=3, checkpoint_dir=ck, resume=True
    )
    assert (again.iterations, again.converged, again.history) == (3, False, [])
    assert np.array_equal(again.state, capped.state)


def test_csr_resume_of_capped_run_counts_completed_supersteps(graphs, tmp_path):
    eng = graphs[4]["dir"]
    ck = str(tmp_path / "ck")
    state, iters, converged = eng.pagerank(
        tol=1e-10, max_iters=3, checkpoint_dir=ck
    )
    assert (iters, converged) == (3, False)
    again, iters, converged = eng.pagerank(
        tol=1e-10, max_iters=3, checkpoint_dir=ck, resume=True
    )
    assert (iters, converged) == (3, False)
    assert np.array_equal(again, state)


def test_csr_weights_are_part_of_the_edge_identity(graphs, tmp_path):
    """Two weightings of one (src, dst) set get different fingerprints, so
    a re-weighted sssp resume is refused instead of loading the old
    weighting's distances."""
    edges, _, weighted, V, eng = graphs
    df = weighted.to_pandas()
    reweighted = ray.data.from_arrow(
        pa.Table.from_pandas(df.assign(w=df["w"] + 1), preserve_index=False)
    )
    other = CsrEngine(reweighted, V, num_partitions=4,
                      workdir=str(tmp_path / "wd"), tag="w", weight_col="w")
    try:
        assert other.fingerprint != eng["w"].fingerprint
        ck = str(tmp_path / "ck")
        eng["w"].sssp([0], max_iters=1, checkpoint_dir=ck)
        with pytest.raises(ValueError, match="different run"):
            other.sssp([0], checkpoint_dir=ck, resume=True)
    finally:
        other.shutdown()


@pytest.mark.parametrize("kernel", ["kcore", "sssp", "bfs"])
def test_csr_older_checkpoint_formats_refused(graphs, tmp_path, kernel):
    """Checkpoints whose shards hold one encoded column (k-core, SSSP) or
    no frontier column (BFS) are refused, not misread."""
    import hashlib

    tag = hashlib.sha1(np.asarray([0], dtype=np.int64).tobytes()).hexdigest()[:8]
    label, which, run = {
        "kcore": ("kcore3", "und", lambda e, **kw: e.k_core(3, **kw)),
        "sssp": (f"sssp-{tag}", "w", lambda e, **kw: e.sssp([0], **kw)),
        "bfs": (f"bfs-{tag}", "und", lambda e, **kw: e.bfs_hops([0], **kw)),
    }[kernel]
    e = graphs[4][which]
    ck = str(tmp_path / "ck")
    CheckpointManager(ck, kernel=label, fingerprint=e.fingerprint, num_partitions=e.P)
    with pytest.raises(ValueError, match="different run"):
        run(e, checkpoint_dir=ck, resume=True)
