"""``ray job submit``-able entry point (BASELINE.json north_star).

Runs the flagship pipeline — corpus parquet → edge extraction → graph
kernel — with checkpoint/resume flags, writing partitioned parquet
results. Submit against a cluster exactly as the north rule describes::

    ray job submit --working-dir . -- \
        python -m citationgraphs_ray.cli \
        --corpus /data/corpus --output /data/out --kernel pagerank \
        --checkpoint-dir /data/ck --resume

or run locally (``ray.init`` is guarded, so an existing session — e.g.
the driver's or pytest's — is reused; standalone runs auto-init).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .graph.csr_engine import CsrEngine
from .graph.engine import (
    _Edges,
    _Frontier,
    _Hits,
    _Katz,
    _KCore,
    _LabelPropagation,
    _MinLabel,
    _Mis,
    _PageRank,
    _run,
)
from .graph.triangles import triangle_counts
from .stages.edges import extract_edge_table, symmetrize_edges
from .utils import collect_table


def _seeds(args) -> list[int]:
    return [int(s) for s in args.seeds.split(",") if s.strip() != ""]


# --kernel → (edge view, vertex program of graph/engine.py); "und" is the
# symmetrized edge table. Each program names its output columns.
KERNELS = {
    "pagerank": ("dir", lambda a, V: _PageRank(V, a.damping, a.tol)),
    "ppr": ("dir", lambda a, V: _PageRank(V, a.damping, a.tol, _seeds(a))),
    "cc": ("und", lambda a, V: _MinLabel()),
    "lpa": ("und", lambda a, V: _LabelPropagation(V)),
    "bfs": ("und", lambda a, V: _Frontier("bfs", "hops", V, [a.bfs_source])),
    "kcore": ("und", lambda a, V: _KCore(a.kcore_k)),
    "hits": ("dir", lambda a, V: _Hits(a.max_iters, a.tol)),
    "mis": ("und", lambda a, V: _Mis(41)),
    "katz": ("dir", lambda a, V: _Katz(a.katz_alpha, 1.0, a.tol)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="citationgraphs_ray",
        description="Ray-Data-native citation/link-graph analytics engine",
    )
    p.add_argument("--corpus", required=True, help="corpus parquet dir/file")
    p.add_argument("--output", required=True, help="output parquet dir")
    p.add_argument(
        "--kernel",
        default="pagerank",
        choices=[*KERNELS, "triangles", "edges"],
        help="analysis to run over the extracted edge table; every kernel "
        "but triangles and edges runs on the executor --engine names",
    )
    p.add_argument(
        "--katz-alpha",
        type=float,
        default=0.001,
        help="attenuation for --kernel katz (must be < 1/lambda_max)",
    )
    p.add_argument(
        "--engine",
        default="csr",
        choices=["csr", "broadcast"],
        help="csr = partition-actor BSP (scale path); broadcast = the local "
        "executor, a dense driver vector (small graphs); triangles/edges "
        "ignore this",
    )
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest complete checkpoint in --checkpoint-dir",
    )
    p.add_argument("--num-partitions", type=int, default=32)
    p.add_argument(
        "--output-mode",
        default="table",
        choices=["table", "shards"],
        help="table = assembled (id, value) parquet via Ray Data (small-V "
        "convenience); shards = per-partition parquet written directly by "
        "the CSR workers, no V-sized driver array (--engine csr, every "
        "kernel but triangles and edges)",
    )
    p.add_argument("--workdir", default="/tmp/citationgraphs_ray")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument(
        "--bfs-source",
        type=int,
        default=0,
        help="source vertex id for --kernel bfs",
    )
    p.add_argument(
        "--kcore-k", type=int, default=3, help="k for --kernel kcore"
    )
    p.add_argument(
        "--seeds",
        default="0",
        help="comma-separated seed vertex ids for --kernel ppr",
    )
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=200)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output_mode == "shards" and (
        args.engine != "csr" or args.kernel not in KERNELS
    ):
        parser.error("--output-mode shards needs --engine csr and a kernel")
    if not ray.is_initialized():  # reuse the submitting session if any
        # plain ray.init(): respects RAY_ADDRESS (ray job submit sets it),
        # starts a local session otherwise
        ray.init()

    # Ray's default hive partitioning stays on here, unlike the package's
    # own reads: a user's corpus may really be laid out as ``lang=py/``.
    corpus = ray.data.read_parquet(args.corpus)
    edges, vids = extract_edge_table(corpus)
    edges = edges.materialize()
    V = vids.count()
    info = {"kernel": args.kernel, "V": V, "output": args.output}

    if args.kernel == "edges":
        edges.write_parquet(args.output)
        print(json.dumps({"kernel": "edges", "rows": edges.count(), "V": V}))
        return 0
    if args.kernel == "triangles":
        cols = {"tri_count": triangle_counts(symmetrize_edges(edges), V).state}
        _write_table(args.output, V, cols)
        print(json.dumps(info))
        return 0

    view, program = KERNELS[args.kernel]
    kernel = program(args, V)
    eds = edges if view == "dir" else symmetrize_edges(edges).materialize()
    if args.engine == "csr":
        ex = CsrEngine(
            eds, V, num_partitions=args.num_partitions, workdir=args.workdir
        )
    else:
        ex = _Edges(collect_table(eds), V)
    try:
        iters, converged, _ = _run(
            ex, kernel, args.max_iters, args.checkpoint_dir, args.resume, None
        )
        info.update(engine=args.engine, iterations=iters, converged=bool(converged))
        if args.output_mode == "shards":
            info.update(output_mode="shards", rows=ex.write_states(args.output))
        else:
            _write_table(args.output, V, ex.assemble())
    finally:
        if args.engine == "csr":
            ex.shutdown()
    print(json.dumps(info))
    return 0


def _write_table(out_dir: str, V: int, cols: dict[str, np.ndarray]) -> None:
    ids = np.arange(V, dtype=np.int64)
    table = pa.table({"id": ids, **cols})
    ray.data.from_arrow(table).write_parquet(out_dir)


if __name__ == "__main__":
    sys.exit(main())
