"""Seeded benchmark inputs and their reference answers, cached per seed.

Everything here runs in the benchmark's parent process, outside every timed
region and outside set-up: the measured process only reads the Parquet this
module writes and the reference arrays saved beside it. The same seed always
yields byte-identical Parquet (``digest`` in ``meta.json`` proves it), so a
cached input directory is reused by every later run with that seed.

Two input kinds:

- ``corpus`` (``import_analytics``): a source-code corpus from
  ``corpus.generate_corpus``. Its size is pinned by choosing the repository
  count whose seeded files-per-repo draws first reach a target file count, so
  the job's work barely moves between seeds.
- ``graph`` (``import_analytics`` and ``resumable_csr``): a directed edge
  table with planted communities (label propagation has structure to find),
  Zipf-skewed hub in-degrees (hub skew, as in Scarlett, EuroSys 2011) and
  long chains, some hanging off the core and some standing alone (connected
  components needs about one superstep per chain link, as in "Finding
  connected components in map-reduce in logarithmic rounds", ICDE 2013).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1

CORPUS_TARGET_FILES = 30_000
CORPUS_MEGA_REPO_FILES = 1_000
CORPUS_OUT_DEG_BASE = 8
CORPUS_SHARDS = 8

GRAPH_V = 24_000
GRAPH_AVG_OUT_DEG = 5
GRAPH_COMMUNITIES = 200
GRAPH_P_INTRA = 0.8
GRAPH_HUB_FRAC = 0.05
GRAPH_HUBS = 64
GRAPH_CHAINS = 8
# Connected components takes about chain length + core depth supersteps; the
# oracle iterates to a fixpoint while the kernel stops at max_iters=100, so the
# chains must stay well short of 100.
GRAPH_CHAIN_LEN = 60
GRAPH_SHARDS = 4

# the inputs each workload reads, in order, with the reference answers it
# checks against each (computed on first use)
WORKLOAD_INPUTS = {
    "import_analytics": {
        "corpus": ("edges", "pagerank"),
        "graph": ("sym_edges", "pagerank", "cc", "lpa", "triangles"),
    },
    "resumable_csr": {"graph": ("sym_edges", "pagerank", "cc")},
}


def edge_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sorted distinct ``src * V + dst`` keys: an edge set as one int64 array."""
    return np.unique(
        np.asarray(src, dtype=np.int64) * num_vertices
        + np.asarray(dst, dtype=np.int64)
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def corpus_repo_count(seed: int, target_files: int, mega_files: int) -> int:
    """Smallest repository count whose files reach ``target_files``.

    ``generate_corpus`` draws files-per-repo as its first
    ``rng.zipf(1.5, size=n_repos)`` call; Generator draws are sequential, so
    the first k draws are the same for every ``n_repos`` >= k and the total
    file count can be predicted before generating.
    """
    draws = np.clip(
        np.random.default_rng(seed).zipf(1.5, size=target_files), 1, 200
    )
    draws[0] = mega_files
    return int(np.searchsorted(np.cumsum(draws), target_files) + 1)


def generate_graph(seed: int, num_vertices: int = GRAPH_V) -> np.ndarray:
    """(E, 2) int64 distinct directed edges, no self-loops, shuffled."""
    rng = np.random.default_rng(seed)
    chains, chain_len = GRAPH_CHAINS, GRAPH_CHAIN_LEN
    core = num_vertices - chains * chain_len
    comm = rng.permutation(core) % GRAPH_COMMUNITIES
    members = np.argsort(comm, kind="stable")
    sizes = np.bincount(comm, minlength=GRAPH_COMMUNITIES)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    n = core * GRAPH_AVG_OUT_DEG
    src = rng.integers(0, core, size=n)
    dst = rng.integers(0, core, size=n)
    own = comm[src]
    pick = (rng.random(n) * sizes[own]).astype(np.int64)
    dst = np.where(rng.random(n) < GRAPH_P_INTRA, members[offsets[own] + pick], dst)
    hubs = rng.choice(core, size=GRAPH_HUBS, replace=False)
    rank = np.minimum(rng.zipf(1.5, size=n) - 1, GRAPH_HUBS - 1)
    dst = np.where(rng.random(n) < GRAPH_HUB_FRAC, hubs[rank], dst)

    # even chains hang off a core vertex, odd ones are components of their
    # own whose minimum id sits at one end
    parts = [np.stack([src, dst], axis=1)]
    for c in range(chains):
        first = core + c * chain_len
        path = np.arange(first, first + chain_len)
        if c % 2 == 0:
            path = np.concatenate(([rng.integers(0, core)], path))
        parts.append(np.stack([path[:-1], path[1:]], axis=1))
    edges = np.concatenate(parts).astype(np.int64)
    edges = edges[edges[:, 0] != edges[:, 1]]
    keys = edge_keys(edges[:, 0], edges[:, 1], num_vertices)
    keys = keys[rng.permutation(len(keys))]
    return np.stack([keys // num_vertices, keys % num_vertices], axis=1)


def _write_shards(table: pa.Table, out_dir: str, shards: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // shards)
    for s in range(shards):
        pq.write_table(
            table.slice(s * per, per), os.path.join(out_dir, f"part-{s:05d}.parquet")
        )


def _import_lines(content: list[str]) -> int:
    """Import statements written into the corpus, resolvable or not."""
    return sum(
        1
        for text in content
        for line in text.splitlines()
        if line.startswith("import ")
        or (line.startswith("from ") and " import " in line)
    )


def build_corpus(seed: int, out: str, target_files: int = CORPUS_TARGET_FILES) -> dict:
    from citationgraphs_ray.corpus import generate_corpus, write_corpus_parquet

    mega = min(CORPUS_MEGA_REPO_FILES, target_files // 4)
    corp = generate_corpus(
        n_repos=corpus_repo_count(seed, target_files, mega),
        seed=seed,
        mega_repo_files=mega,
        out_deg_base=CORPUS_OUT_DEG_BASE,
    )
    write_corpus_parquet(corp, os.path.join(out, "data"), shards=CORPUS_SHARDS)
    # vertex ids are ranks over the pyarrow sort of (repo, path)
    verts = corp.table.select(["repo", "path"]).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    pq.write_table(verts, os.path.join(out, "vertices.parquet"))
    rank = {
        key: i
        for i, key in enumerate(
            zip(verts["repo"].to_pylist(), verts["path"].to_pylist())
        )
    }
    pairs = np.array(
        [(rank[(sr, sp)], rank[(dr, dp)]) for sr, sp, dr, dp in corp.expected_edges],
        dtype=np.int64,
    ).reshape(-1, 2)
    np.save(os.path.join(out, "edges.npy"), pairs)
    return {
        "num_vertices": verts.num_rows,
        "num_edges": len(pairs),
        "import_lines": _import_lines(corp.table["content"].to_pylist()),
    }


def build_graph(seed: int, out: str, num_vertices: int = GRAPH_V) -> dict:
    edges = generate_graph(seed, num_vertices=num_vertices)
    _write_shards(
        pa.table({"src": edges[:, 0], "dst": edges[:, 1]}),
        os.path.join(out, "data"),
        GRAPH_SHARDS,
    )
    np.save(os.path.join(out, "edges.npy"), edges)
    return {"num_vertices": num_vertices, "num_edges": len(edges)}


_BUILDERS = {"corpus": build_corpus, "graph": build_graph}


# ---------------------------------------------------------------------------
# reference answers (graph/oracle.py semantics)
# ---------------------------------------------------------------------------


def _compute_ref(name: str, edges: np.ndarray, num_vertices: int) -> np.ndarray:
    from citationgraphs_ray.graph import oracle

    if name == "edges":
        return edge_keys(edges[:, 0], edges[:, 1], num_vertices)
    if name == "sym_edges":
        return edge_keys(
            np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]),
            num_vertices,
        )
    if name == "pagerank":
        return oracle.pagerank_oracle(edges, num_vertices, tol=1e-9)
    if name == "cc":
        return oracle.components_oracle(edges, num_vertices)
    if name == "lpa":
        return oracle.lpa_oracle(edges, num_vertices)
    if name == "triangles":
        return oracle.triangles_oracle(edges, num_vertices)
    raise ValueError(f"unknown reference {name!r}")


def input_digest(data_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(data_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(data_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build_inputs(kind: str, seed: int, out: str, **sizes) -> dict:
    """Generate one input directory from scratch (no cache) and its meta."""
    os.makedirs(out)
    meta = _BUILDERS[kind](seed, out, **sizes)
    meta.update(
        kind=kind,
        seed=seed,
        gen_version=GEN_VERSION,
        digest=input_digest(os.path.join(out, "data")),
    )
    with open(os.path.join(out, "meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True)
    return meta


def prepare(kind: str, refs: tuple[str, ...], seed: int, cache_root: str) -> tuple[str, dict]:
    """Return ``(input_dir, meta)`` of one input with the named reference
    answers beside it, building what is missing.

    Inputs and each reference answer are written under a temporary name and
    renamed into place, so an interrupted run never leaves a half-written
    entry that a later run would trust.
    """
    d = os.path.join(cache_root, f"{kind}-v{GEN_VERSION}-s{seed}")
    if not os.path.exists(os.path.join(d, "meta.json")):
        tmp = f"{d}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build_inputs(kind, seed, tmp)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    with open(os.path.join(d, "meta.json")) as f:
        meta = json.load(f)
    edges = None
    for name in refs:
        path = os.path.join(d, f"ref_{name}.npy")
        if os.path.exists(path):
            continue
        if edges is None:
            edges = np.load(os.path.join(d, "edges.npy"))
        tmp = f"{path}.tmp{os.getpid()}.npy"
        np.save(tmp, _compute_ref(name, edges, meta["num_vertices"]))
        os.rename(tmp, path)
    return d, meta


def load_ref(input_dir: str, name: str) -> np.ndarray:
    return np.load(os.path.join(input_dir, f"ref_{name}.npy"))
