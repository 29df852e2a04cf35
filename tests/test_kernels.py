"""Kernel correctness vs the NumPy oracle on tiny + small fixtures."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from citationgraphs_ray.graph.engine import (
    connected_components,
    label_propagation,
    pagerank,
)
from citationgraphs_ray.graph.oracle import (
    components_oracle,
    lpa_oracle,
    pagerank_oracle,
    triangles_oracle,
)
from citationgraphs_ray.graph.triangles import triangle_counts
from citationgraphs_ray.stages.edges import symmetrize_edges

# FIXTURES.md F2 tiny graphs
TINY = {
    "line5": (np.array([[0, 1], [1, 2], [2, 3], [3, 4]]), 5),
    "tri3": (np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]]), 3),
    "star_hub": (np.array([[i, 0] for i in range(1, 41)]), 41),
    "two_islands": (
        np.array(
            [[a, b] for a in range(5) for b in range(5) if a != b]
            + [[5, 6], [6, 7], [7, 8], [8, 9]]
        ),
        10,
    ),
    "dupes_loops": (
        np.array([[0, 1], [0, 1], [1, 1], [1, 2], [2, 0], [2, 0], [3, 3]]),
        4,
    ),
}


def _edge_ds(edges: np.ndarray) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(edges[:, 0].astype(np.int64)),
                "dst": pa.array(edges[:, 1].astype(np.int64)),
            }
        )
    )


def _clean_directed(edges: np.ndarray) -> np.ndarray:
    e = edges[edges[:, 0] != edges[:, 1]]
    return np.unique(e, axis=0)


@pytest.mark.parametrize("name", list(TINY))
def test_pagerank_tiny(name):
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    res = pagerank(_edge_ds(edges), V, tol=1e-10)
    exp = pagerank_oracle(edges, V, tol=1e-10)
    assert np.allclose(res.state, exp, atol=1e-6)
    assert abs(res.state.sum() - 1.0) < 1e-9  # Σ rank == 1 invariant


@pytest.mark.parametrize("name", list(TINY))
def test_components_tiny(name):
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges))
    res = connected_components(und, V)
    exp = components_oracle(edges, V)
    assert np.array_equal(res.state, exp)
    assert res.converged


def test_components_two_islands_labels():
    raw, V = TINY["two_islands"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw)))
    res = connected_components(und, V)
    assert set(res.state[:5]) == {0} and set(res.state[5:]) == {5}


@pytest.mark.parametrize("name", list(TINY))
def test_lpa_tiny(name):
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges))
    res = label_propagation(und, V, max_rounds=50)
    exp = lpa_oracle(edges, V, max_rounds=50)
    assert np.array_equal(res.state, exp)


@pytest.mark.parametrize("name", list(TINY))
def test_triangles_tiny(name):
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges))
    res = triangle_counts(und, V)
    exp = triangles_oracle(edges, V)
    assert np.array_equal(res.state, exp)


def test_triangles_tri3_exact():
    raw, V = TINY["tri3"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw)))
    assert np.array_equal(triangle_counts(und, V).state, np.array([1, 1, 1]))


# ---- small corpus end-to-end (includes a mega-hub for skew) ---------------


@pytest.fixture(scope="module")
def small_graph(small_edges):
    edges, vids = small_edges
    V = vids.count()
    df = edges.to_pandas()
    earr = df[["src", "dst"]].to_numpy().astype(np.int64)
    und = symmetrize_edges(edges).materialize()
    return edges, und, earr, V


def test_pagerank_small(small_graph):
    edges, _, earr, V = small_graph
    res = pagerank(edges, V, tol=1e-10)
    exp = pagerank_oracle(earr, V, tol=1e-10)
    assert np.allclose(res.state, exp, atol=1e-6)
    assert res.converged


def test_components_small(small_graph):
    _, und, earr, V = small_graph
    res = connected_components(und, V)
    exp = components_oracle(earr, V)
    assert np.array_equal(res.state, exp)


def test_lpa_small(small_graph):
    _, und, earr, V = small_graph
    res = label_propagation(und, V, max_rounds=20)
    exp = lpa_oracle(earr, V, max_rounds=20)
    assert np.array_equal(res.state, exp)


def test_triangles_small(small_graph):
    _, und, earr, V = small_graph
    res = triangle_counts(und, V)
    exp = triangles_oracle(earr, V)
    assert np.array_equal(res.state, exp)


def test_triangle_relabel_invariance():
    raw, V = TINY["two_islands"]
    edges = _clean_directed(raw)
    perm = np.random.default_rng(0).permutation(V)
    rel = perm[edges]
    a = triangles_oracle(edges, V)
    b = triangles_oracle(rel, V)
    assert np.array_equal(np.sort(a), np.sort(b))


def test_local_reduce_agrees(small_graph):
    """The tiny-graph in-process regime (reduce="local", the auto pick
    below LOCAL_KERNEL_MAX_EDGES) matches the CSR actor engine: bitwise
    for the integer kernels, allclose for pagerank (different float
    summation order), same iteration/convergence metadata."""
    edges, und, earr, V = small_graph
    a = pagerank(edges, V, tol=1e-10, reduce="csr")
    l = pagerank(edges, V, tol=1e-10, reduce="local")
    assert np.allclose(a.state, l.state, atol=1e-12)
    assert (a.iterations, a.converged) == (l.iterations, l.converged)
    ca = connected_components(und, V, reduce="csr")
    cl = connected_components(und, V, reduce="local")
    assert np.array_equal(ca.state, cl.state)
    assert (ca.iterations, ca.converged) == (cl.iterations, cl.converged)
    la = label_propagation(und, V, max_rounds=10, reduce="csr")
    ll = label_propagation(und, V, max_rounds=10, reduce="local")
    assert np.array_equal(la.state, ll.state)
    assert (la.iterations, la.converged) == (ll.iterations, ll.converged)


def _all_kernels():
    from citationgraphs_ray.graph import engine

    return {
        "pagerank": lambda e, V, r: engine.pagerank(e, V, reduce=r),
        "cc": lambda e, V, r: engine.connected_components(e, V, reduce=r),
        "lpa": lambda e, V, r: engine.label_propagation(e, V, reduce=r),
        "bfs": lambda e, V, r: engine.bfs_hops(e, V, [0], reduce=r),
        "kcore": lambda e, V, r: engine.k_core(e, V, 2, reduce=r),
        "sssp": lambda e, V, r: engine.sssp(e, V, [0], reduce=r),
        "hits": lambda e, V, r: engine.hits(e, V, reduce=r),
        "katz": lambda e, V, r: engine.katz_centrality(e, V, reduce=r),
        "mis": lambda e, V, r: engine.maximal_independent_set(e, V, reduce=r),
    }


@pytest.mark.parametrize("mode", ["groupby", "tree", "driver"])
@pytest.mark.parametrize("kernel", sorted(_all_kernels()))
def test_unknown_reduce_rejected(kernel, mode):
    """Only auto/local/csr exist; a removed mode or a typo must fail
    loudly instead of silently running another executor."""
    raw, V = TINY["tri3"]
    e = _clean_directed(raw)
    ds = ray.data.from_arrow(
        pa.table({"src": e[:, 0], "dst": e[:, 1], "w": np.ones(len(e), dtype=np.int64)})
    )
    with pytest.raises(ValueError, match="'auto', 'local' or 'csr'"):
        _all_kernels()[kernel](ds, V, mode)


def test_triangle_strategies_agree(small_graph):
    """All three regimes (driver-local, broadcast probe, distributed
    shuffle) are exact and identical."""
    _, und, earr, V = small_graph
    a = triangle_counts(und, V, strategy="broadcast")
    b = triangle_counts(und, V, strategy="shuffle")
    c = triangle_counts(und, V, strategy="local")
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.state, c.state)
    # local as_dataset sparse sink equals dense non-zeros
    sparse = (
        triangle_counts(und, V, strategy="local", as_dataset=True)
        .to_pandas()
        .sort_values("id")
    )
    nz = np.nonzero(c.state)[0]
    assert list(sparse.id) == list(nz)
    assert list(sparse.tri_count) == list(c.state[nz])


def test_triangles_shuffle_no_driver_broadcast(small_graph, monkeypatch):
    """The huge-E path must never ship an edge-sized array through a
    driver-side ray.put (VERDICT r2 #1): every driver put during the run
    is guarded, and results must still be exact."""
    import ray as ray_mod

    _, und, earr, V = small_graph
    real_put = ray_mod.put

    def guarded_put(obj, *args, **kwargs):
        if isinstance(obj, np.ndarray) and obj.size > 2_000:
            raise AssertionError(
                f"driver broadcast of a {obj.size}-element array in the "
                "shuffle triangle path"
            )
        return real_put(obj, *args, **kwargs)

    monkeypatch.setattr(ray_mod, "put", guarded_put)
    res = triangle_counts(und, V, strategy="shuffle")
    assert np.array_equal(res.state, triangles_oracle(earr, V))


def test_triangles_as_dataset(small_graph):
    """Sparse (id, tri_count) sink equals the dense result on non-zero
    vertices — the 10^12-vertex output path."""
    _, und, earr, V = small_graph
    dense = triangle_counts(und, V, strategy="shuffle").state
    sparse = (
        triangle_counts(und, V, strategy="shuffle", as_dataset=True)
        .to_pandas()
        .sort_values("id")
    )
    nz = np.nonzero(dense)[0]
    assert list(sparse.id) == list(nz)
    assert list(sparse.tri_count) == list(dense[nz])


def test_triangles_dense_matmul_exact():
    """Tiny-V dense graphs take the diag(A³)/2 GEMM micro-regime (wedge
    work scales with pairs, not edges — the sf0.1 1000-vertex graph has
    79.5M wedge pairs from 349k edges). On K_n every vertex closes
    C(n-1, 2) triangles — analytic cross-check that the matmul path is
    exact and actually selected."""
    import citationgraphs_ray.graph.triangles as tri_mod

    n = 60  # K_60: 1770 edges, each vertex in C(59, 2) = 1711 triangles
    iu, ju = np.triu_indices(n, k=1)
    edges = np.stack([iu, ju], axis=1).astype(np.int64)
    und = symmetrize_edges(_edge_ds(edges))
    pairs = n * (n - 1) * (n - 2) // 6  # oriented wedge pairs on K_n
    assert pairs * 625 > n**3 and n <= tri_mod.DENSE_MATMUL_MAX_V
    res = triangle_counts(und, n, strategy="local")
    exp = np.full(n, (n - 1) * (n - 2) // 2, dtype=np.int64)
    assert np.array_equal(res.state, exp)
    assert np.array_equal(res.state, triangles_oracle(edges, n))


def test_triangles_local_spills_probe_when_wedge_heavy(monkeypatch):
    """Above LOCAL_TRIANGLE_MAX_PAIRS (and outside the matmul regime) the
    local strategy must NOT run the single-core probe: it keeps the
    driver orientation but distributes the probe. Force the spill with
    tiny thresholds and check exactness + that the local probe never ran."""
    import citationgraphs_ray.graph.triangles as tri_mod

    rng = np.random.default_rng(7)
    edges = rng.integers(0, 500, size=(4000, 2), dtype=np.int64)
    edges = edges[edges[:, 0] != edges[:, 1]]
    und = symmetrize_edges(_edge_ds(edges))
    monkeypatch.setattr(tri_mod, "DENSE_MATMUL_MAX_V", 0)
    monkeypatch.setattr(tri_mod, "LOCAL_TRIANGLE_MAX_PAIRS", 10)
    spilled = []
    real_range_probe = tri_mod._range_probe

    def spy_range_probe(*a, **k):
        spilled.append(True)
        return real_range_probe(*a, **k)

    monkeypatch.setattr(tri_mod, "_range_probe", spy_range_probe)
    res = tri_mod.triangle_counts(und, 500, strategy="local")
    assert spilled, "local strategy ran the single-core probe on a wedge-heavy graph"
    assert np.array_equal(res.state, triangles_oracle(edges, 500))



def _bfs_imports():
    from citationgraphs_ray.graph.engine import UNREACHED, bfs_hops
    from citationgraphs_ray.graph.oracle import bfs_oracle

    return bfs_hops, bfs_oracle, UNREACHED


@pytest.mark.parametrize("name", list(TINY))
def test_bfs_tiny_undirected(name):
    bfs_hops, bfs_oracle, _ = _bfs_imports()
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges))
    res = bfs_hops(und, V, sources=[0])
    exp = bfs_oracle(edges, V, sources=[0], directed=False)
    assert np.array_equal(res.state, exp)
    assert res.converged


def test_bfs_directed_line():
    """Directed line 0→1→2→3→4: hops equal position; reverse unreachable."""
    bfs_hops, _, UNREACHED = _bfs_imports()
    raw, V = TINY["line5"]
    res = bfs_hops(_edge_ds(_clean_directed(raw)), V, sources=[0])
    assert np.array_equal(res.state, np.arange(5))
    res_back = bfs_hops(_edge_ds(_clean_directed(raw)), V, sources=[4])
    assert res_back.state[4] == 0
    assert np.all(res_back.state[:4] == UNREACHED)


def test_bfs_unreachable_island():
    bfs_hops, _, UNREACHED = _bfs_imports()
    raw, V = TINY["two_islands"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw)))
    res = bfs_hops(und, V, sources=[0])
    assert np.all(res.state[:5] <= 1)
    assert np.all(res.state[5:] == UNREACHED)


def test_bfs_multi_source():
    bfs_hops, bfs_oracle, _ = _bfs_imports()
    raw, V = TINY["two_islands"]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges))
    res = bfs_hops(und, V, sources=[0, 9])
    exp = bfs_oracle(edges, V, sources=[0, 9], directed=False)
    assert np.array_equal(res.state, exp)
    assert res.state[9] == 0 and res.state[0] == 0


def test_bfs_reduce_strategies_agree(small_graph):
    bfs_hops, bfs_oracle, _ = _bfs_imports()
    _, und, earr, V = small_graph
    results = {
        mode: bfs_hops(und, V, sources=[0], reduce=mode).state
        for mode in ("local", "csr")
    }
    exp = bfs_oracle(earr, V, sources=[0], directed=False)
    for mode, state in results.items():
        assert np.array_equal(state, exp), mode


def test_bfs_rejects_bad_sources():
    bfs_hops, _, _ = _bfs_imports()
    raw, V = TINY["line5"]
    ds = _edge_ds(_clean_directed(raw))
    with pytest.raises(ValueError):
        bfs_hops(ds, V, sources=[])
    with pytest.raises(ValueError):
        bfs_hops(ds, V, sources=[V])


# ---- k-core decomposition --------------------------------------------------


def _kcore_imports():
    from citationgraphs_ray.graph.engine import k_core
    from citationgraphs_ray.graph.oracle import k_core_oracle

    return k_core, k_core_oracle


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kcore_tiny(name, k):
    k_core, k_core_oracle = _kcore_imports()
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges))
    res = k_core(und, V, k=k)
    exp = k_core_oracle(edges, V, k=k)
    assert np.array_equal(res.state, exp), (name, k)
    assert res.converged


def test_kcore_peels_tail():
    """two_islands: K5 clique survives k=4, the 4-vertex path does not."""
    k_core, _ = _kcore_imports()
    raw, V = TINY["two_islands"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw)))
    res = k_core(und, V, k=4)
    assert np.array_equal(res.state[:5], np.ones(5, dtype=np.int64))
    assert np.array_equal(res.state[5:], np.zeros(5, dtype=np.int64))


def test_kcore_reduce_strategies_agree(small_graph):
    k_core, k_core_oracle = _kcore_imports()
    _, und, earr, V = small_graph
    exp = k_core_oracle(earr, V, k=3)
    for mode in ("local", "csr"):
        res = k_core(und, V, k=3, reduce=mode)
        assert np.array_equal(res.state, exp), mode


def test_kcore_rejects_bad_k():
    k_core, _ = _kcore_imports()
    raw, V = TINY["line5"]
    with pytest.raises(ValueError):
        k_core(_edge_ds(_clean_directed(raw)), V, k=0)


def test_weighted_pagerank_repeated_rows_equals_weighted_oracle():
    """Integer weights as row multiplicity: kernel output == explicit
    weighted power iteration (the identity q_weighted_pagerank uses)."""
    rng = np.random.default_rng(7)
    V = 30
    base = _clean_directed(rng.integers(0, V, size=(120, 2)))
    w = rng.integers(1, 5, size=len(base))
    rep = np.repeat(base, w, axis=0)
    res = pagerank(_edge_ds(rep), V, tol=1e-12)

    strength = np.zeros(V)
    np.add.at(strength, base[:, 0], w.astype(float))
    dangling = strength == 0
    safe = np.where(dangling, 1.0, strength)
    ranks = np.full(V, 1.0 / V)
    for _ in range(500):
        contrib = ranks / safe
        sums = np.zeros(V)
        np.add.at(sums, base[:, 1], contrib[base[:, 0]] * w)
        new = 0.15 / V + 0.85 * (sums + ranks[dangling].sum() / V)
        if np.max(np.abs(new - ranks)) < 1e-12:
            ranks = new
            break
        ranks = new
    assert np.allclose(res.state, ranks, atol=1e-9)


# ---- weighted SSSP ----------------------------------------------------------


def _sssp_imports():
    from citationgraphs_ray.graph.engine import UNREACHED, sssp
    from citationgraphs_ray.graph.oracle import sssp_oracle

    return sssp, sssp_oracle, UNREACHED


def _weighted_ds(edges: np.ndarray, w: np.ndarray) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(edges[:, 0].astype(np.int64)),
                "dst": pa.array(edges[:, 1].astype(np.int64)),
                "w": pa.array(w.astype(np.int64)),
            }
        )
    )


def test_sssp_weighted_shortcut_beats_fewer_hops():
    """0→1→2 (1+1) beats the direct 0→2 edge of weight 5."""
    sssp, _, _ = _sssp_imports()
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    w = np.array([1, 1, 5])
    res = sssp(_weighted_ds(edges, w), 3, sources=[0])
    assert list(res.state) == [0, 1, 2]
    assert res.converged


def test_sssp_random_matches_bellman_ford_all_regimes():
    sssp, sssp_oracle, _ = _sssp_imports()
    rng = np.random.default_rng(23)
    V = 40
    edges = _clean_directed(rng.integers(0, V, size=(200, 2)))
    w = rng.integers(1, 9, size=len(edges))
    exp = sssp_oracle(edges, w, V, [0, 7])
    for mode in ("local", "csr"):
        res = sssp(_weighted_ds(edges, w), V, sources=[0, 7], reduce=mode)
        assert np.array_equal(res.state, exp), mode


def test_sssp_unit_weights_equal_bfs():
    from citationgraphs_ray.graph.engine import bfs_hops

    sssp, _, _ = _sssp_imports()
    raw, V = TINY["two_islands"]
    edges = _clean_directed(raw)
    und = np.vstack([edges, edges[:, ::-1]])
    und = np.unique(und, axis=0)
    res = sssp(_weighted_ds(und, np.ones(len(und))), V, sources=[0])
    bfs = bfs_hops(_edge_ds(und), V, sources=[0])
    assert np.array_equal(res.state, bfs.state)


def test_sssp_rejects_negative_weight():
    sssp, _, _ = _sssp_imports()
    edges = np.array([[0, 1]])
    with pytest.raises(Exception, match="non-negative"):
        sssp(_weighted_ds(edges, np.array([-1])), 2, sources=[0])


def test_sssp_resume_rejects_reweighted_edges(tmp_path):
    """Checkpoint fingerprint must include the WEIGHT column: resuming
    after re-deriving the same (src, dst) set with different weights
    must compute the new weighting's distances, not silently load the
    old ones (ADVICE r4, engine.py sssp fingerprint)."""
    sssp, _, _ = _sssp_imports()
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    ck = str(tmp_path / "ck")
    r1 = sssp(
        _weighted_ds(edges, np.array([1, 1, 5])), 3, sources=[0],
        checkpoint_dir=ck, resume=True,
    )
    assert list(r1.state) == [0, 1, 2]
    # same (src, dst) set, different weights → different fingerprint →
    # the manager refuses the stale dir instead of silently resuming
    with pytest.raises(ValueError, match="different run"):
        sssp(
            _weighted_ds(edges, np.array([4, 4, 5])), 3, sources=[0],
            checkpoint_dir=ck, resume=True,
        )
    # a fresh dir computes the new weighting's distances
    r2 = sssp(
        _weighted_ds(edges, np.array([4, 4, 5])), 3, sources=[0],
        checkpoint_dir=str(tmp_path / "ck2"), resume=True,
    )
    assert list(r2.state) == [0, 4, 5]


def test_broadcast_merge_raises_on_oversized_right_side(monkeypatch):
    import citationgraphs_ray.utils as U

    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3])}))
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3]), "x": pa.array([9, 8, 7])})
    )
    monkeypatch.setattr(U, "BROADCAST_MERGE_MAX_ROWS", 2)
    with pytest.raises(ValueError, match="bucketed_inner_join"):
        U.broadcast_merge(left, right, "k", "k")
    monkeypatch.setattr(U, "BROADCAST_MERGE_MAX_ROWS", 5_000_000)
    monkeypatch.setattr(U, "BROADCAST_MERGE_MAX_BYTES", 1)
    with pytest.raises(ValueError, match="MiB"):
        U.broadcast_merge(left, right, "k", "k")


# ---- HITS ------------------------------------------------------------------


def _import_hits():
    from citationgraphs_ray.graph.engine import hits
    from citationgraphs_ray.graph.oracle import hits_oracle

    return hits, hits_oracle


@pytest.mark.parametrize("name", list(TINY))
def test_hits_tiny(name):
    hits, hits_oracle = _import_hits()
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    res = hits(_edge_ds(edges), V, max_iters=15)
    oh, oa = hits_oracle(edges, V, max_iters=15)
    assert np.allclose(res.hub, oh, atol=1e-12)
    assert np.allclose(res.auth, oa, atol=1e-12)
    assert res.iterations == 15


def test_hits_reduce_strategies_agree(small_graph):
    hits, hits_oracle = _import_hits()
    edges, _, earr, V = small_graph
    a = hits(edges, V, max_iters=10, reduce="csr")
    l = hits(edges, V, max_iters=10, reduce="local")
    oh, oa = hits_oracle(earr, V, max_iters=10)
    for r in (a, l):
        assert np.allclose(r.hub, oh, atol=1e-9)
        assert np.allclose(r.auth, oa, atol=1e-9)


def test_hits_tol_early_stop():
    hits, _ = _import_hits()
    raw, V = TINY["two_islands"]
    edges = _clean_directed(raw)
    res = hits(_edge_ds(edges), V, max_iters=500, tol=1e-12)
    assert res.converged
    assert res.iterations < 500
    # converged point is a fixed point of one more round
    more = hits(_edge_ds(edges), V, max_iters=res.iterations + 5, tol=0.0)
    assert np.allclose(res.hub, more.hub, atol=1e-9)
    assert np.allclose(res.auth, more.auth, atol=1e-9)


def test_hits_resume_equals_uninterrupted(small_graph, tmp_path):
    hits, _ = _import_hits()
    edges, _, _, V = small_graph
    ck = str(tmp_path / "hits_ck")
    full = hits(edges, V, max_iters=12)
    hits(edges, V, max_iters=5, checkpoint_dir=ck)
    resumed = hits(edges, V, max_iters=12, checkpoint_dir=ck, resume=True)
    assert resumed.iterations == 12
    assert np.array_equal(resumed.hub, full.hub)  # bitwise: same op order
    assert np.array_equal(resumed.auth, full.auth)


# ---- Adamic-Adar link prediction --------------------------------------------


def _import_aa():
    from citationgraphs_ray.graph.linkpred import (
        adamic_adar_oracle,
        adamic_adar_topk,
    )

    return adamic_adar_topk, adamic_adar_oracle


def _aa_rows(tbl):
    return list(
        zip(
            tbl["u"].to_pylist(),
            tbl["v"].to_pylist(),
            tbl["n_common"].to_pylist(),
            tbl["score"].to_pylist(),
        )
    )


def test_adamic_adar_line_graph():
    """0-1-2-3-4: each (i, i+2) pair shares one mid; scores by mid degree."""
    adamic_adar_topk, adamic_adar_oracle = _import_aa()
    raw, V = TINY["line5"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw))).materialize()
    earr = und.to_pandas()[["src", "dst"]].to_numpy()
    got = _aa_rows(adamic_adar_topk(und, V, k=10))
    assert got == adamic_adar_oracle(earr, V, k=10)
    # (0,2) via mid 1, (1,3) via mid 2, (2,4) via mid 3 — nothing else
    assert {(u, v) for u, v, *_ in got} == {(0, 2), (1, 3), (2, 4)}


def test_adamic_adar_random_matches_oracle(small_graph):
    adamic_adar_topk, adamic_adar_oracle = _import_aa()
    _, und, _, V = small_graph
    earr = und.to_pandas()[["src", "dst"]].to_numpy()
    got = _aa_rows(adamic_adar_topk(und, V, k=60))
    assert got == adamic_adar_oracle(earr, V, k=60)


def test_adamic_adar_complete_graph_empty():
    adamic_adar_topk, _ = _import_aa()
    V = 6
    raw = np.array([[a, b] for a in range(V) for b in range(V) if a != b])
    und = symmetrize_edges(_edge_ds(raw)).materialize()
    res = adamic_adar_topk(und, V, k=10)
    assert res.num_rows == 0


def test_adamic_adar_hub_cap_drops_hub_mids():
    """max_mid_degree excludes hub MIDS from scoring — equal to the exact
    oracle run on the same graph with hub-mid contributions removed."""
    adamic_adar_topk, adamic_adar_oracle = _import_aa()
    raw, V = TINY["star_hub"]  # vertex 0 has degree 40, leaves degree 1
    und = symmetrize_edges(_edge_ds(_clean_directed(raw))).materialize()
    capped = adamic_adar_topk(und, V, k=10, max_mid_degree=10)
    # every candidate pair goes through the hub → capping kills them all
    assert capped.num_rows == 0
    exact = adamic_adar_topk(und, V, k=10)
    assert exact.num_rows == 10  # leaf pairs via the hub exist uncapped


# ---- Personalized PageRank ---------------------------------------------------


def test_personalized_pagerank_matches_oracle(small_graph):
    edges, _, earr, V = small_graph
    seeds = np.array([0, 3, 7])
    res = pagerank(edges, V, tol=1e-12, reset_ids=seeds)
    exp = pagerank_oracle(earr, V, tol=1e-12, reset_ids=seeds)
    assert np.allclose(res.state, exp, atol=1e-12)
    # mass concentrates near seeds; total mass conserved at 1
    assert abs(res.state.sum() - 1.0) < 1e-9


def test_personalized_pagerank_single_seed_line():
    """On the directed line 0→1→2→3→4 with seed 0, rank decays downstream
    and vertices upstream of the seed get 0 in-flow beyond teleport."""
    raw, V = TINY["line5"]
    res = pagerank(_edge_ds(_clean_directed(raw)), V, tol=1e-14,
                   reset_ids=[0])
    assert res.state[0] > res.state[1] > res.state[2] > res.state[3]
    exp = pagerank_oracle(_clean_directed(raw), V, tol=1e-14,
                          reset_ids=np.array([0]))
    assert np.allclose(res.state, exp, atol=1e-12)


def test_personalized_pagerank_uniform_path_unchanged(small_graph):
    """reset_ids=None must stay bit-identical to the pre-change kernel
    (same float op order) — the uniform oracle hash depends on it."""
    edges, _, earr, V = small_graph
    a = pagerank(edges, V, tol=1e-10)
    o = pagerank_oracle(earr, V, tol=1e-10)
    assert np.allclose(a.state, o, atol=1e-12)


def test_personalized_pagerank_resume_distinct_seeds(small_graph, tmp_path):
    """Checkpoints of different personalizations must not cross-load:
    the seed set is in the fingerprint, so reusing the dir with other
    seeds is rejected outright (same edges, same params otherwise)."""
    edges, _, _, V = small_graph
    ck = str(tmp_path / "ppr")
    pagerank(edges, V, tol=1e-10, reset_ids=[0], checkpoint_dir=ck)
    with pytest.raises(ValueError, match="different run"):
        pagerank(
            edges, V, tol=1e-10, reset_ids=[1],
            checkpoint_dir=ck, resume=True,
        )
    # same seeds → resumes cleanly (returns the converged state)
    again = pagerank(
        edges, V, tol=1e-10, reset_ids=[0], checkpoint_dir=ck, resume=True
    )
    assert again.converged


def test_personalized_pagerank_rejects_bad_seeds(small_graph):
    edges, _, _, V = small_graph
    with pytest.raises(ValueError):
        pagerank(edges, V, reset_ids=[])
    with pytest.raises(ValueError):
        pagerank(edges, V, reset_ids=[V + 5])


def test_adamic_adar_regimes_agree(small_graph):
    from citationgraphs_ray.graph.linkpred import adamic_adar_topk

    _, und, _, V = small_graph
    d = adamic_adar_topk(und, V, k=80, mode="dense")
    j = adamic_adar_topk(und, V, k=80, mode="join")
    assert d.to_pydict() == j.to_pydict()
    dc = adamic_adar_topk(und, V, k=40, mode="dense", max_mid_degree=15)
    jc = adamic_adar_topk(und, V, k=40, mode="join", max_mid_degree=15)
    assert dc.to_pydict() == jc.to_pydict()


def test_edge_jaccard_regimes_and_values(small_graph):
    from citationgraphs_ray.graph.linkpred import edge_jaccard

    _, und, earr, V = small_graph
    d = edge_jaccard(und, V, mode="dense").to_pandas()
    j = edge_jaccard(und, V, mode="join").to_pandas()
    key = ["u", "v"]
    d = d.sort_values(key).reset_index(drop=True)
    j = j.sort_values(key).reset_index(drop=True)
    pd_testing = __import__("pandas").testing
    pd_testing.assert_frame_equal(d, j[d.columns.tolist()])
    # spot-check one row against the set definition
    adj = {}
    for s, t in earr:
        adj.setdefault(int(s), set()).add(int(t))
        adj.setdefault(int(t), set()).add(int(s))
    row = d.iloc[0]
    u, v = int(row.u), int(row.v)
    c = len(adj[u] & adj[v])
    expect = c / len(adj[u] | adj[v])
    assert row.n_common == c
    assert abs(row.jaccard - expect) < 1e-6


def test_edge_jaccard_triangle_is_one_third():
    from citationgraphs_ray.graph.linkpred import edge_jaccard

    raw, V = TINY["tri3"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw))).materialize()
    res = edge_jaccard(und, V).to_pandas().sort_values(["u", "v"])
    # each edge of a triangle: N(u)={v,m}, N(v)={u,m} → c=1, union=3
    assert len(res) == 3
    assert (res.n_common == 1).all()
    assert np.allclose(res.jaccard, 1 / 3, atol=1e-6)


# ---- Maximal independent set -------------------------------------------------


def _import_mis():
    from citationgraphs_ray.graph.engine import maximal_independent_set
    from citationgraphs_ray.graph.oracle import mis_oracle

    return maximal_independent_set, mis_oracle


@pytest.mark.parametrize("name", list(TINY))
def test_mis_tiny(name):
    maximal_independent_set, mis_oracle = _import_mis()
    raw, V = TINY[name]
    edges = _clean_directed(raw)
    und = symmetrize_edges(_edge_ds(edges)).materialize()
    res = maximal_independent_set(und, V)
    exp = mis_oracle(edges, V)
    assert np.array_equal(res.state, exp)
    assert res.converged
    # invariants: independence + maximality over the symmetrized graph
    sym = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    in_mis = set(np.nonzero(res.state == 1)[0].tolist())
    for a, b in sym:
        assert not (a in in_mis and b in in_mis)
    for v in range(V):
        if v not in in_mis:
            assert any((v, u) in sym for u in in_mis), v


def test_mis_reduce_strategies_agree(small_graph):
    maximal_independent_set, mis_oracle = _import_mis()
    _, und, earr, V = small_graph
    a = maximal_independent_set(und, V, reduce="csr")
    l = maximal_independent_set(und, V, reduce="local")
    exp = mis_oracle(earr, V)
    for r in (a, l):
        assert np.array_equal(r.state, exp)
        assert r.converged
    assert (a.iterations, a.converged) == (l.iterations, l.converged)


def test_mis_seed_changes_set_but_keeps_invariants(small_graph):
    maximal_independent_set, _ = _import_mis()
    _, und, earr, V = small_graph
    a = maximal_independent_set(und, V, seed=41)
    b = maximal_independent_set(und, V, seed=99)
    # different hash permutation → (almost surely) different MIS
    assert not np.array_equal(a.state, b.state)
    sym = {(int(s), int(d)) for s, d in earr} | {
        (int(d), int(s)) for s, d in earr
    }
    for r in (a, b):
        in_mis = set(np.nonzero(r.state == 1)[0].tolist())
        for x, y in sym:
            assert not (x in in_mis and y in in_mis)


def test_mis_resume_equals_uninterrupted(small_graph, tmp_path):
    maximal_independent_set, _ = _import_mis()
    _, und, _, V = small_graph
    ck = str(tmp_path / "mis_ck")
    full = maximal_independent_set(und, V)
    maximal_independent_set(und, V, max_iters=1, checkpoint_dir=ck)
    resumed = maximal_independent_set(
        und, V, checkpoint_dir=ck, resume=True
    )
    assert resumed.converged
    assert np.array_equal(resumed.state, full.state)


# ---- k-truss -----------------------------------------------------------------


def _import_truss():
    from citationgraphs_ray.graph.truss import k_truss, k_truss_oracle

    return k_truss, k_truss_oracle


def _truss_rows(tbl):
    return list(zip(tbl["u"].to_pylist(), tbl["v"].to_pylist()))


def test_k_truss_tri3_and_line():
    k_truss, k_truss_oracle = _import_truss()
    raw, V = TINY["tri3"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw))).materialize()
    t3, _ = k_truss(und, V, 3)  # the triangle IS a 3-truss
    assert _truss_rows(t3) == [(0, 1), (0, 2), (1, 2)]
    t4, _ = k_truss(und, V, 4)  # one triangle is not a 4-truss
    assert t4.num_rows == 0
    raw, V = TINY["line5"]
    und = symmetrize_edges(_edge_ds(_clean_directed(raw))).materialize()
    t3, _ = k_truss(und, V, 3)  # path: no triangles at all
    assert t3.num_rows == 0
    t2, rounds = k_truss(und, V, 3 - 1)  # 2-truss keeps every edge
    assert t2.num_rows == 4 and rounds == 0


def test_k_truss_regimes_match_oracle(small_graph):
    k_truss, k_truss_oracle = _import_truss()
    _, und, earr, V = small_graph
    for k in (2, 3, 4, 6):
        exp = [tuple(r) for r in k_truss_oracle(earr, V, k)]
        d, rd = k_truss(und, V, k, mode="dense")
        j, rj = k_truss(und, V, k, mode="join")
        assert _truss_rows(d) == exp, ("dense", k)
        assert _truss_rows(j) == exp, ("join", k)
        assert rd == rj or k == 2, k


def test_k_truss_peel_cascade():
    """Two triangles sharing an edge + a pendant triangle: the 4-truss
    peel must CASCADE (killing the pendant's edges lowers nothing, but
    the bowtie center survives only while both wings do)."""
    k_truss, k_truss_oracle = _import_truss()
    # K4 (4-clique) has every edge in 2 triangles → it IS a 4-truss;
    # hang a pendant triangle off vertex 3: pendant edges die at k=4,
    # the K4 survives
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    pend = [(3, 4), (3, 5), (4, 5)]
    raw = np.array(k4 + pend)
    V = 6
    und = symmetrize_edges(_edge_ds(raw)).materialize()
    t4, _ = k_truss(und, V, 4)
    assert _truss_rows(t4) == k4
    exp = [tuple(r) for r in k_truss_oracle(
        np.vstack([raw, raw[:, ::-1]]), V, 4)]
    assert _truss_rows(t4) == exp


def test_k_truss_rejects_bad_k(small_graph):
    k_truss, _ = _import_truss()
    _, und, _, V = small_graph
    with pytest.raises(ValueError):
        k_truss(und, V, 1)


def test_k_truss_gate_unroll_covers_fixpoint():
    """The SQL twin unrolls TRUSS_SQL_ROUNDS peel rounds; the gate graph
    must reach fixpoint within them (q_k_truss raises loudly otherwise —
    this pins the contract at the gate scale)."""
    from citationgraphs_ray.pipelines.queries import (
        GRAPH_MOD,
        TRUSS_K,
        TRUSS_SQL_ROUNDS,
        derive_edges,
    )
    from citationgraphs_ray.graph.truss import k_truss as kt

    sym = symmetrize_edges(
        derive_edges("/root/testdata/sf0.001")
    ).materialize()
    _, rounds = kt(sym, GRAPH_MOD, TRUSS_K)
    assert rounds <= TRUSS_SQL_ROUNDS


def _katz_numpy(earr, V, alpha, beta, iters):
    x = np.full(V, beta)
    for _ in range(iters):
        nx = np.full(V, beta)
        np.add.at(nx, earr[:, 1], alpha * x[earr[:, 0]])
        x = nx
    return x


def test_katz_reduce_strategies_agree(small_graph):
    from citationgraphs_ray.graph.engine import katz_centrality

    edges, _, earr, V = small_graph
    exp = _katz_numpy(earr, V, 0.01, 1.0, 12)
    for mode in ("local", "csr"):
        r = katz_centrality(
            edges, V, alpha=0.01, beta=1.0, max_iters=12, reduce=mode
        )
        assert np.allclose(r.state, exp, atol=1e-9), mode
        assert r.iterations == 12


def test_katz_converges_to_linear_solve():
    from citationgraphs_ray.graph.engine import katz_centrality

    # path graph 0→1→2→3: closed form x = (I - a·A^T)^-1 · b·1
    earr = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
    V, a, b = 4, 0.3, 1.0
    A = np.zeros((V, V))
    A[earr[:, 0], earr[:, 1]] = 1.0
    exp = np.linalg.solve(np.eye(V) - a * A.T, np.full(V, b))
    r = katz_centrality(_edge_ds(earr), V, alpha=a, beta=b, tol=1e-13, max_iters=500)
    assert r.converged
    assert np.allclose(r.state, exp, atol=1e-10)


def test_katz_resume_equals_uninterrupted(small_graph, tmp_path):
    from citationgraphs_ray.graph.engine import katz_centrality

    edges, _, earr, V = small_graph
    full = katz_centrality(edges, V, alpha=0.01, max_iters=12)
    d = str(tmp_path / "katz_ck")
    katz_centrality(edges, V, alpha=0.01, max_iters=6, checkpoint_dir=d)
    resumed = katz_centrality(
        edges, V, alpha=0.01, max_iters=12, checkpoint_dir=d, resume=True
    )
    assert np.array_equal(full.state, resumed.state)


# ---- the local executor's dirty recount (LPA) -----------------------------


def _lpa_dirty_and_full(monkeypatch, ds, V, **kw):
    """LPA on the local executor with its dirty recount and with a full
    recount every superstep."""
    from citationgraphs_ray.graph import engine

    dirty = label_propagation(ds, V, reduce="local", **kw)
    with monkeypatch.context() as m:
        m.setattr(engine._LabelPropagation, "recount_dirty", False)
        full = label_propagation(ds, V, reduce="local", **kw)
    return dirty, full


def _assert_same_run(a, b):
    assert a.state.dtype == b.state.dtype
    assert np.array_equal(a.state, b.state)
    assert (a.iterations, a.converged, a.history) == (
        b.iterations, b.converged, b.history,
    )


def _hub_graph(seed: int, V: int = 400) -> np.ndarray:
    """Random edges plus four hubs of 40 out-edges each: sparse, so some
    small components swap labels forever and LPA never converges."""
    rng = np.random.default_rng(seed)
    e = rng.integers(0, V, size=(V, 2))
    hubs = np.repeat(rng.integers(0, V, size=4), 40)
    e = np.vstack([e, np.stack([hubs, rng.integers(0, V, size=len(hubs))], 1)])
    return _clean_directed(e)


def test_lpa_dirty_recount_complete_bipartite(monkeypatch):
    """K_{5,7}: each side takes the other's minimum label, so the labels
    swap every round, every vertex stays dirty and LPA never converges."""
    a, b = 5, 7
    e = np.array([[i, a + j] for i in range(a) for j in range(b)])
    und = symmetrize_edges(_edge_ds(e)).materialize()
    dirty, full = _lpa_dirty_and_full(monkeypatch, und, a + b, max_rounds=9)
    _assert_same_run(dirty, full)
    assert not dirty.converged and dirty.iterations == 9
    assert {h["changed"] for h in dirty.history} == {a + b}


def test_lpa_dirty_recount_hub_graph_to_max_rounds(monkeypatch):
    V = 400
    und = symmetrize_edges(_edge_ds(_hub_graph(13, V))).materialize()
    dirty, full = _lpa_dirty_and_full(monkeypatch, und, V, max_rounds=25)
    _assert_same_run(dirty, full)
    assert not dirty.converged and dirty.iterations == 25


def test_lpa_dirty_recount_directed_input(monkeypatch):
    """A non-symmetric input: a vertex recounts when an IN-neighbour
    changed, so marking in-neighbours instead of out-neighbours differs."""
    V = 400
    e = _hub_graph(12, V)
    assert len(np.intersect1d(e[:, 0] * V + e[:, 1], e[:, 1] * V + e[:, 0])) < len(e)
    dirty, full = _lpa_dirty_and_full(monkeypatch, _edge_ds(e), V, max_rounds=30)
    _assert_same_run(dirty, full)
    assert dirty.iterations > 3


def test_lpa_dirty_recount_sends_only_dirty_in_edges(monkeypatch):
    """Superstep t > 0 sends exactly the in-edges of the out-neighbours of
    the vertices that changed in superstep t-1 (labels from the oracle),
    and later supersteps send fewer edges than the first."""
    from citationgraphs_ray.graph import engine
    from citationgraphs_ray.utils import collect_table

    V = 400
    und = symmetrize_edges(_edge_ds(_hub_graph(13, V))).materialize()
    t = collect_table(und)
    src, dst = (t[c].to_numpy().astype(np.int64) for c in ("src", "dst"))
    sent = []
    real_msg = engine._LabelPropagation.msg

    def spy_msg(self, st, s, d, *w):
        sent.append(len(s))
        return real_msg(self, st, s, d, *w)

    monkeypatch.setattr(engine._LabelPropagation, "msg", spy_msg)
    res = label_propagation(und, V, max_rounds=12, reduce="local")
    assert len(sent) == res.iterations > 3
    und_edges = np.stack([src, dst], 1)
    labels = [np.arange(V)] + [
        lpa_oracle(und_edges, V, max_rounds=r) for r in range(1, res.iterations)
    ]
    want = [len(src)]
    for before, after in zip(labels, labels[1:]):
        dirty = np.zeros(V, dtype=bool)
        dirty[dst[(after != before)[src]]] = True
        want.append(int(np.count_nonzero(dirty[dst])))
    assert sent == want
    assert sent[-1] < sent[0]


# ---- no Ray Data job on an already-materialized edge table ----------------


def _spy(monkeypatch, owner, name: str) -> list:
    calls = []
    real = getattr(owner, name)

    def spy(*a, **k):
        calls.append(name)
        return real(*a, **k)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_materialized_input_starts_no_ray_data_job(small_graph, monkeypatch):
    """On a MaterializedDataset the local kernels and the local triangle
    regime neither project (``select_columns``) nor canonicalize through
    Ray Data (``_canon_undirected``); a lazy input still projects."""
    import citationgraphs_ray.graph.triangles as tri_mod
    from ray.data import Dataset

    edges, und, earr, V = small_graph
    calls = _spy(monkeypatch, Dataset, "select_columns")
    calls += _spy(monkeypatch, tri_mod, "_canon_undirected")
    pagerank(edges, V, tol=1e-10, reduce="auto")
    lpa = label_propagation(und, V, max_rounds=5, reduce="local")
    tri = [tri_mod.triangle_counts(und, V, strategy=s) for s in ("auto", "local")]
    assert calls == []
    assert np.array_equal(lpa.state, lpa_oracle(earr, V, max_rounds=5))
    for r in tri:
        assert np.array_equal(r.state, triangles_oracle(earr, V))
    lazy = und.map_batches(lambda b: b, batch_format="pyarrow")
    label_propagation(lazy, V, max_rounds=1, reduce="local")
    assert calls == ["select_columns"]


@pytest.mark.parametrize("mode", ["dense", "join"])
def test_linkpred_and_truss_take_a_materialized_input_as_is(
    small_graph, monkeypatch, mode
):
    """adamic_adar_topk, edge_jaccard and k_truss use a MaterializedDataset
    as it is (``utils.pinned``): no ``select_columns`` projection."""
    from ray.data import Dataset

    from citationgraphs_ray.graph.linkpred import adamic_adar_topk, edge_jaccard
    from citationgraphs_ray.graph.truss import k_truss

    _, und, _, V = small_graph
    calls = _spy(monkeypatch, Dataset, "select_columns")
    adamic_adar_topk(und, V, k=10, mode=mode)
    edge_jaccard(und, V, mode=mode).materialize()
    k_truss(und, V, 3, mode=mode)
    assert calls == []


@pytest.mark.parametrize("strategy", ["auto", "local"])
@pytest.mark.parametrize("lazy", [False, True])
def test_triangles_raw_dupes_and_loops(strategy, lazy):
    """Raw, non-symmetrized input with duplicate edges and self-loops."""
    from ray.data.dataset import MaterializedDataset

    raw, V = TINY["dupes_loops"]
    ds = _edge_ds(raw)
    if lazy:
        ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
    assert isinstance(ds, MaterializedDataset) is not lazy
    res = triangle_counts(ds, V, strategy=strategy)
    assert np.array_equal(res.state, triangles_oracle(raw, V))


def test_triangles_auto_regime_unchanged_by_raw_count(small_graph, monkeypatch):
    """Under auto, local is picked exactly when the CANONICAL edge count
    fits LOCAL_KERNEL_MAX_EDGES, as before the raw count was read: a bound
    below the canonical count runs broadcast, one between the canonical
    and raw counts runs local after a distributed canonicalization, and
    one at the raw count canonicalizes on the driver."""
    import citationgraphs_ray.graph.triangles as tri_mod

    _, und, earr, V = small_graph
    raw = und.count()
    canon = len(np.unique(np.sort(earr[earr[:, 0] != earr[:, 1]], axis=1), axis=0))
    assert canon < raw
    want = triangles_oracle(earr, V)
    for bound, regime, distributed_canon in [
        (canon - 1, "broadcast", True),
        (canon, "local", True),
        (raw - 1, "local", True),
        (raw, "local", False),
    ]:
        with monkeypatch.context() as m:
            m.setattr(tri_mod, "LOCAL_KERNEL_MAX_EDGES", bound)
            degree_tables = _spy(m, tri_mod, "_degree_table")
            canons = _spy(m, tri_mod, "_canon_undirected")
            res = tri_mod.triangle_counts(und, V, strategy="auto")
        ran = "broadcast" if degree_tables else "local"
        assert (ran, bool(canons)) == (regime, distributed_canon), bound
        assert np.array_equal(res.state, want)
