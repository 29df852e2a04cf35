"""Single-process NumPy oracle for the four kernels (FIXTURES.md F3).

Plays the role the reference's in-memory code plays: a trivially-correct
implementation the distributed engine must match — PageRank allclose(1e-6),
components / labels / triangle counts exactly. Semantics pinned here ARE the
spec (the reference is nondeterministic — wall-clock RNG seed at
CitationGraphs.go:35, map-order iteration — so SURVEY.md §7.4 fixes
deterministic rules and both engine and oracle implement them):

- PageRank: damping 0.85, dangling mass redistributed uniformly, uniform
  init 1/V, stop at L-inf residual < tol.
- Connected components: min-id label propagation over undirected edges;
  component id = min member id.
- LPA: synchronous, undirected; new label = most frequent neighbor label,
  ties broken by min label; isolated vertices keep their label; fixed
  max_rounds; stop early when no label changes.
- Triangles: undirected, deduped, self-loops removed; per-vertex count.
"""

from __future__ import annotations

import numpy as np


def _clean_edges(edges: np.ndarray) -> np.ndarray:
    """(E,2) int64 → dedup + drop self-loops (directed)."""
    edges = edges[edges[:, 0] != edges[:, 1]]
    return np.unique(edges, axis=0)


def _undirected(edges: np.ndarray) -> np.ndarray:
    both = np.vstack([edges, edges[:, ::-1]])
    return _clean_edges(both)


def pagerank_oracle(
    edges: np.ndarray,
    num_vertices: int,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iters: int = 200,
    reset_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform PageRank, or — with ``reset_ids`` — personalized PageRank:
    the teleport vector r0 is uniform over the seed set (0 elsewhere),
    init = r0, and dangling mass also restarts at the seeds."""
    edges = _clean_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    src, dst = edges[:, 0], edges[:, 1]
    out_deg = np.bincount(src, minlength=num_vertices).astype(np.float64)
    if reset_ids is None:
        r0 = np.full(num_vertices, 1.0 / num_vertices)
    else:
        seeds = np.unique(np.asarray(reset_ids, dtype=np.int64))
        r0 = np.zeros(num_vertices)
        r0[seeds] = 1.0 / len(seeds)
    ranks = r0.copy()
    dangling = out_deg == 0
    safe_deg = np.where(dangling, 1.0, out_deg)
    for _ in range(max_iters):
        contrib = ranks / safe_deg
        sums = np.bincount(dst, weights=contrib[src], minlength=num_vertices)
        dangling_mass = ranks[dangling].sum()
        if reset_ids is None:
            # keep the uniform path's float op order bit-identical to the
            # engine (round6 oracle hashing sits at the ulp boundary)
            new_ranks = (1.0 - damping) / num_vertices + damping * (
                sums + dangling_mass / num_vertices
            )
        else:
            new_ranks = (1.0 - damping) * r0 + damping * (
                sums + dangling_mass * r0
            )
        if np.max(np.abs(new_ranks - ranks)) < tol:
            ranks = new_ranks
            break
        ranks = new_ranks
    return ranks


def components_oracle(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    und = _undirected(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    src, dst = und[:, 0], und[:, 1]
    labels = np.arange(num_vertices, dtype=np.int64)
    while True:
        incoming = np.full(num_vertices, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(incoming, dst, labels[src])
        new_labels = np.minimum(labels, incoming)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def lpa_oracle(
    edges: np.ndarray, num_vertices: int, max_rounds: int = 50
) -> np.ndarray:
    und = _undirected(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    src, dst = und[:, 0], und[:, 1]
    labels = np.arange(num_vertices, dtype=np.int64)
    for _ in range(max_rounds):
        new_labels = labels.copy()
        # per dst: mode of neighbor labels, min label on ties
        nbr_lab = labels[src]
        order = np.lexsort((nbr_lab, dst))
        d_s, l_s = dst[order], nbr_lab[order]
        # run-length encode (dst, label) pairs
        boundary = np.ones(len(d_s), dtype=bool)
        boundary[1:] = (d_s[1:] != d_s[:-1]) | (l_s[1:] != l_s[:-1])
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, len(d_s)))
        g_dst, g_lab = d_s[starts], l_s[starts]
        # per dst group pick max count, tie -> min label (labels sorted asc
        # within dst, so the FIRST max wins)
        dst_boundary = np.ones(len(g_dst), dtype=bool)
        dst_boundary[1:] = g_dst[1:] != g_dst[:-1]
        grp_idx = np.cumsum(dst_boundary) - 1
        best = {}
        for gi, d, l, c in zip(grp_idx, g_dst, g_lab, counts):
            cur = best.get(d)
            if cur is None or c > cur[0]:
                best[d] = (c, l)
        for d, (_, l) in best.items():
            new_labels[d] = l
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def triangles_oracle(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    und = _undirected(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    # unique undirected edges u < v
    u = np.minimum(und[:, 0], und[:, 1])
    v = np.maximum(und[:, 0], und[:, 1])
    uv = np.unique(np.stack([u, v], axis=1), axis=0)
    adj: list[set[int]] = [set() for _ in range(num_vertices)]
    for a, b in uv:
        adj[a].add(int(b))
        adj[b].add(int(a))
    counts = np.zeros(num_vertices, dtype=np.int64)
    for a, b in uv:
        common = adj[int(a)] & adj[int(b)]
        for c in common:
            if c > b:  # count each triangle once via its sorted form
                counts[int(a)] += 1
                counts[int(b)] += 1
                counts[c] += 1
    return counts


def bfs_oracle(
    edges: np.ndarray,
    num_vertices: int,
    sources: list[int],
    directed: bool = True,
) -> np.ndarray:
    """Hop distances via repeated edge relaxation (Bellman-Ford with unit
    weights — O(V·E) but trivially correct). Unreached = int64 max."""
    edges = _clean_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    if not directed:
        edges = _undirected(edges)
    src, dst = edges[:, 0], edges[:, 1]
    INF = np.iinfo(np.int64).max
    dist = np.full(num_vertices, INF, dtype=np.int64)
    dist[np.asarray(sources, dtype=np.int64)] = 0
    while True:
        finite = dist[src] != INF
        incoming = np.full(num_vertices, INF, dtype=np.int64)
        if finite.any():
            np.minimum.at(incoming, dst[finite], dist[src[finite]] + 1)
        new = np.minimum(dist, incoming)
        if np.array_equal(new, dist):
            return dist
        dist = new


def k_core_oracle(
    edges: np.ndarray, num_vertices: int, k: int
) -> np.ndarray:
    """1/0 core membership via naive full-degree recompute each round."""
    und = _undirected(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    src, dst = und[:, 0], und[:, 1]
    alive = np.ones(num_vertices, dtype=bool)
    while True:
        m = alive[src] & alive[dst]
        deg = np.bincount(src[m], minlength=num_vertices)
        new = alive & (deg >= k)
        if np.array_equal(new, alive):
            return alive.astype(np.int64)
        alive = new


def sssp_oracle(
    edges: np.ndarray,
    weights: np.ndarray,
    num_vertices: int,
    sources: list[int],
) -> np.ndarray:
    """Weighted Bellman-Ford (unit of weight = int); unreached = max."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.asarray(weights, dtype=np.int64)
    INF = np.iinfo(np.int64).max
    dist = np.full(num_vertices, INF, dtype=np.int64)
    dist[np.asarray(sources, dtype=np.int64)] = 0
    while True:
        finite = dist[e[:, 0]] != INF
        incoming = np.full(num_vertices, INF, dtype=np.int64)
        if finite.any():
            np.minimum.at(
                incoming, e[finite, 1], dist[e[finite, 0]] + w[finite]
            )
        new = np.minimum(dist, incoming)
        if np.array_equal(new, dist):
            return dist
        dist = new


def hits_oracle(
    edges: np.ndarray,
    num_vertices: int,
    max_iters: int = 20,
    tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """HITS (Kleinberg hubs/authorities), L2-normalized each half-step.

    Semantics pinned for the distributed kernel: init hub = 1 (all
    vertices); per iteration auth_raw[d] = Σ hub[s] over directed edges
    then auth = auth_raw / ||auth_raw||₂, hub_raw[s] = Σ auth[d] then
    hub = hub_raw / ||hub_raw||₂; run ``max_iters`` rounds or stop when
    the L-inf change of both vectors < ``tol``. Returns (hub, auth)."""
    edges = _clean_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    src, dst = edges[:, 0], edges[:, 1]
    hub = np.ones(num_vertices, dtype=np.float64)
    auth = np.zeros(num_vertices, dtype=np.float64)
    for _ in range(max_iters):
        auth_raw = np.bincount(dst, weights=hub[src], minlength=num_vertices)
        n = np.sqrt(np.sum(auth_raw * auth_raw))
        new_auth = auth_raw / n if n > 0 else auth_raw
        hub_raw = np.bincount(src, weights=new_auth[dst], minlength=num_vertices)
        n = np.sqrt(np.sum(hub_raw * hub_raw))
        new_hub = hub_raw / n if n > 0 else hub_raw
        done = tol > 0 and (
            np.max(np.abs(new_auth - auth)) < tol
            and np.max(np.abs(new_hub - hub)) < tol
        )
        auth, hub = new_auth, new_hub
        if done:
            break
    return hub, auth


MIS_MULT = 11400714819323198485  # odd → bijection on 64-bit ids


def mis_priority(ids: np.ndarray, seed: int = 41) -> np.ndarray:
    """Fixed per-vertex priority: ((id + seed) · golden-odd) mod 2^64,
    shifted to int64 by −2^63 (order-preserving, so the permutation is
    unchanged) — a BIJECTION, so priorities are distinct and no
    tie-break is needed. int64 because the driver reduce carries the
    values through Arrow tables; the SQL twin does
    the identical HUGEINT arithmetic minus 9223372036854775808."""
    with np.errstate(over="ignore"):
        raw = (ids.astype(np.uint64) + np.uint64(seed)) * np.uint64(MIS_MULT)
    p = (raw ^ np.uint64(1 << 63)).view(np.int64)
    if len(p) and p.max() == np.iinfo(np.int64).max:
        # one id in 2^64 collides with the no-neighbor sentinel; the SQL
        # twin handles it, the engine's dense reduce cannot distinguish
        # it from "no message" — refuse loudly rather than diverge
        raise ValueError("mis_priority: a priority hit the sentinel; "
                         "use a different seed")
    return p


def mis_oracle(
    edges: np.ndarray, num_vertices: int, seed: int = 41
) -> np.ndarray:
    """Deterministic parallel MIS (Luby with FIXED hash priorities — the
    lexicographically-first MIS under the hash permutation): per round,
    an undecided vertex joins when its priority beats every undecided
    neighbor's; undecided neighbors of joiners drop out. int64 states:
    0 = undecided, 1 = in MIS, 2 = dominated. Isolated vertices join in
    round one."""
    und = _undirected(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    src, dst = und[:, 0], und[:, 1]
    p = mis_priority(np.arange(num_vertices, dtype=np.int64), seed)
    state = np.zeros(num_vertices, dtype=np.int64)
    for _ in range(num_vertices + 1):
        undec = state == 0
        if not undec.any():
            break
        live = undec[src] & undec[dst]
        nbr_min = np.full(
            num_vertices, np.iinfo(np.int64).max, dtype=np.int64
        )
        if live.any():
            np.minimum.at(nbr_min, dst[live], p[src[live]])
        join = undec & (p < nbr_min)
        state[join] = 1
        # dominated: undecided with a joined neighbor
        hit = join[src]
        dom = np.zeros(num_vertices, dtype=bool)
        dom[dst[hit]] = True
        state[dom & (state == 0)] = 2
    return state
