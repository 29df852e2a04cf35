"""The measured process: set-up, timed passes, output checks, metrics.

Started by ``run.py`` in a fresh process with the repository root on
``PYTHONPATH`` (Ray workers import the package by name; without it every
actor stage hangs with no error)::

    python -m perfbench.measure --workload W --inputs DIR [DIR ...] \
        --work DIR --seconds S --trace 0|1 --run-id ID --out FILE [--temp-dir DIR]

A run is ``SESSIONS`` Ray sessions in a row. Each one is set up (``ray.init``
plus loading the inputs; the median over the sessions is ``setup_s``), runs
the workload's untimed warm-up, then passes back to back for its share of
``--seconds`` (at least one), and is shut down. Each pass is one whole job,
timed, and every output is checked against its reference answer after the
clock stops. ``job_s`` is the median over the passes, which are spread over
the whole run and its sessions, so a short burst of load on the host moves
few of them. The program's modules are
imported before the first session, so no pass pays for importing them.

Every pass writes its checkpoints and CSR layouts into a fresh directory,
because a reused one changes the work (``CsrEngine`` silently reuses a cached
layout) or fails (``CheckpointManager`` refuses a foreign fingerprint).

With ``--trace 1`` the passes alternate traced and untraced. The traced ones
give per-layer self times, and the difference of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import time

import pyarrow.parquet as pq

from .checks import Ledger, check_close, check_edges, check_equal, check_vertices
from .inputs import WORKLOAD_INPUTS, load_ref
from .trace import NULL_TRACER, Tracer, coverage, self_times

SESSIONS = 3
RAY_CPUS = 1
OBJECT_STORE_BYTES = 512 << 20
CSR_PARTITIONS = 4
# PageRank is stopped after this many supersteps and resumed in a new engine
CSR_STOP_SUPERSTEP = 20
MIN_COVERAGE = 0.95

LAYER_SPANS = (
    "edges.extract",
    "edges.symmetrize",
    "engine.pagerank",
    "engine.cc",
    "engine.lpa",
    "triangles.count",
    "csr.build",
    "csr.rebuild",
    "csr.pagerank",
    "csr.resume",
    "csr.cc",
    "checkpoints.latest",
)


def init_ray(temp_dir: str | None) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=temp_dir,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _dir_usage(root: str) -> tuple[int, int]:
    nbytes = nfiles = 0
    for dirpath, _, files in os.walk(root):
        for f in files:
            nbytes += os.path.getsize(os.path.join(dirpath, f))
            nfiles += 1
    return nbytes, nfiles


# ---------------------------------------------------------------------------
# workloads: load() is set-up, run() is the timed pass, check() is untimed
# ---------------------------------------------------------------------------


class _Workload:
    """One job over one input."""

    def warm_up(self, ledger: Ledger, pass_dir: str) -> None:
        """Untimed work after set-up that the first pass would otherwise pay."""

    def __init__(self, input_dir: str, meta: dict, refs: tuple[str, ...]) -> None:
        self.data = os.path.join(input_dir, "data")
        self.meta = meta
        self.V = meta["num_vertices"]
        self.num_edges = meta["num_edges"]
        self.ref = {n: load_ref(input_dir, n) for n in refs}

    def load(self) -> None:
        """Set-up: open the input (graph tables are also pinned in the store)."""
        import ray.data

        self.input = ray.data.read_parquet(self.data)


class ImportRank(_Workload):
    """Corpus → ``extract_edge_table`` → ``engine.pagerank`` (tol 1e-9)."""

    def __init__(self, input_dir: str, meta: dict, refs: tuple[str, ...]) -> None:
        super().__init__(input_dir, meta, refs)
        self.ref_vertices = pq.read_table(os.path.join(input_dir, "vertices.parquet"))

    def run(self, tr, ledger: Ledger, pass_dir: str) -> dict:
        from citationgraphs_ray.graph.engine import pagerank
        from citationgraphs_ray.stages.edges import extract_edge_table

        with ledger.op("edges.extract"), tr.span("edges.extract"):
            edges, vids = extract_edge_table(self.input)
            edges, vids = edges.materialize(), vids.materialize()
            num_vertices = vids.count()
        with ledger.op("engine.pagerank"), tr.span("engine.pagerank"):
            pr = pagerank(edges, num_vertices, tol=1e-9, reduce="auto")
        return {"edges": edges, "vids": vids, "pr": pr}

    def check(self, out: dict, ledger: Ledger, pass_dir: str) -> dict:
        from citationgraphs_ray.utils import collect_table

        ledger.check(
            "edges.extract",
            check_vertices(collect_table(out["vids"]), self.ref_vertices)
            or check_edges(collect_table(out["edges"]), self.V, self.ref["edges"]),
        )
        ledger.check("engine.pagerank", check_close(out["pr"].state, self.ref["pagerank"]))
        edges_out = out["edges"].count()
        return {
            "edges.edges_out": edges_out,
            "edges.vertices_out": out["vids"].count(),
            "edges.resolved_ratio": edges_out / self.meta["import_lines"],
            "engine.pagerank_supersteps": out["pr"].iterations,
            "engine.pagerank_edge_steps": edges_out * out["pr"].iterations,
        }


class _GraphWorkload(_Workload):
    def load(self) -> None:
        super().load()
        self.input = self.input.materialize()

    def _check_sym(self, und, ledger: Ledger) -> None:
        from citationgraphs_ray.utils import collect_table

        ledger.check(
            "edges.symmetrize",
            check_edges(collect_table(und), self.V, self.ref["sym_edges"]),
        )


class GraphAnalytics(_GraphWorkload):
    """Local-executor kernels through ``reduce``/``strategy="auto"``."""

    def run(self, tr, ledger: Ledger, pass_dir: str) -> dict:
        from citationgraphs_ray.graph.engine import (
            connected_components,
            label_propagation,
            pagerank,
        )
        from citationgraphs_ray.graph.triangles import triangle_counts
        from citationgraphs_ray.stages.edges import symmetrize_edges

        out = {}
        with ledger.op("edges.symmetrize"), tr.span("edges.symmetrize"):
            und = out["und"] = symmetrize_edges(self.input).materialize()
        with ledger.op("engine.pagerank"), tr.span("engine.pagerank"):
            out["pr"] = pagerank(self.input, self.V, tol=1e-9, reduce="auto")
        with ledger.op("engine.cc"), tr.span("engine.cc"):
            out["cc"] = connected_components(und, self.V, reduce="auto")
        with ledger.op("engine.lpa"), tr.span("engine.lpa"):
            out["lpa"] = label_propagation(und, self.V, reduce="auto")
        with ledger.op("triangles.count"), tr.span("triangles.count"):
            out["tri"] = triangle_counts(und, self.V, strategy="auto")
        return out

    def check(self, out: dict, ledger: Ledger, pass_dir: str) -> dict:
        self._check_sym(out["und"], ledger)
        ledger.check("engine.pagerank", check_close(out["pr"].state, self.ref["pagerank"]))
        ledger.check("engine.cc", check_equal(out["cc"].state, self.ref["cc"]))
        ledger.check("engine.lpa", check_equal(out["lpa"].state, self.ref["lpa"]))
        ledger.check(
            "triangles.count", check_equal(out["tri"].state, self.ref["triangles"])
        )
        lpa = out["lpa"]
        return {
            "engine.pagerank_supersteps": out["pr"].iterations,
            "engine.pagerank_edge_steps": self.num_edges * out["pr"].iterations,
            "engine.cc_supersteps": out["cc"].iterations,
            "engine.lpa_rounds": lpa.iterations,
            "engine.lpa_last_changed": lpa.history[-1]["changed"] if lpa.history else 0,
            "triangles.total": int(out["tri"].state.sum()) // 3,
        }


class ResumableCsr(_GraphWorkload):
    """``CsrEngine`` PageRank stopped, rebuilt and resumed from per-superstep
    checkpoints, then checkpointed CC on the symmetrized table."""

    def run(self, tr, ledger: Ledger, pass_dir: str) -> dict:
        from citationgraphs_ray.graph.csr_engine import CsrEngine
        from citationgraphs_ray.stages.edges import symmetrize_edges
        from citationgraphs_ray.state.checkpoints import CheckpointManager

        layout = os.path.join(pass_dir, "csr")
        ck_pr = os.path.join(pass_dir, "ck_pagerank")
        ck_cc = os.path.join(pass_dir, "ck_cc")

        def engine(edges, tag):
            return CsrEngine(
                edges, self.V, num_partitions=CSR_PARTITIONS, workdir=layout, tag=tag
            )

        out = {}
        with ledger.op("csr.build"), tr.span("csr.build"):
            eng = engine(self.input, "pagerank")
        try:
            out["pr_build_E"] = eng.E
            with ledger.op("csr.pagerank"), tr.span("csr.pagerank"):
                out["stop"] = eng.pagerank(
                    tol=1e-9, max_iters=CSR_STOP_SUPERSTEP, checkpoint_dir=ck_pr
                )
            # a new engine over the same layout directory, as after a restart
            with ledger.op("csr.rebuild"), tr.span("csr.rebuild"):
                eng.shutdown()
                eng = engine(self.input, "pagerank")
            with ledger.op("checkpoints.latest"), tr.span("checkpoints.latest"):
                out["latest"] = CheckpointManager(
                    ck_pr, kernel="pagerank", fingerprint=eng.fingerprint,
                    num_partitions=CSR_PARTITIONS,
                ).latest()
            with ledger.op("csr.resume"), tr.span("csr.resume"):
                out["pr"] = eng.pagerank(tol=1e-9, checkpoint_dir=ck_pr, resume=True)
                eng.shutdown()
        finally:
            eng.shutdown()
        with ledger.op("edges.symmetrize"), tr.span("edges.symmetrize"):
            und = out["und"] = symmetrize_edges(self.input).materialize()
        with ledger.op("csr.build"), tr.span("csr.build"):
            eng = engine(und, "cc")
        try:
            out["cc_build_E"] = eng.E
            with ledger.op("csr.cc"), tr.span("csr.cc"):
                out["cc"] = eng.connected_components(checkpoint_dir=ck_cc)
                eng.shutdown()
        finally:
            eng.shutdown()
        return out

    def check(self, out: dict, ledger: Ledger, pass_dir: str) -> dict:
        E, sym_E = self.meta["num_edges"], len(self.ref["sym_edges"])
        for key, want in (("pr_build_E", E), ("cc_build_E", sym_E)):
            ledger.check(
                "csr.build",
                None if out[key] == want else f"engine saw {out[key]} edges, not {want}",
            )
        stop_state, stop_iters, stop_conv = out["stop"]
        ledger.check(
            "csr.pagerank",
            None if (stop_iters, stop_conv) == (CSR_STOP_SUPERSTEP, False)
            else f"stopped after {stop_iters} supersteps, converged={stop_conv}",
        )
        ck = out["latest"]
        if ck is None:
            ledger.fail("checkpoints.latest", "no complete checkpoint")
            redo = CSR_STOP_SUPERSTEP
        else:
            redo = CSR_STOP_SUPERSTEP - (ck.iteration + 1)
            ledger.check(
                "checkpoints.latest",
                check_equal(ck.state["rank"], stop_state[ck.state["id"]]),
            )
        pr_state, pr_iters, pr_conv = out["pr"]
        ledger.check(
            "csr.resume",
            check_close(pr_state, self.ref["pagerank"])
            or (None if pr_conv else f"not converged after {pr_iters} supersteps"),
        )
        self._check_sym(out["und"], ledger)
        cc_state, cc_iters, cc_conv = out["cc"]
        ledger.check(
            "csr.cc",
            check_equal(cc_state, self.ref["cc"])
            or (None if cc_conv else f"not converged after {cc_iters} supersteps"),
        )
        saved = nbytes = nfiles = 0
        for d in (os.path.join(pass_dir, "ck_pagerank"), os.path.join(pass_dir, "ck_cc")):
            b, f = _dir_usage(d)
            nbytes, nfiles = nbytes + b, nfiles + f
            saved += sum(
                os.path.exists(os.path.join(d, n, "MANIFEST.json")) for n in os.listdir(d)
            )
        return {
            "csr.supersteps": pr_iters + cc_iters,
            "csr.edge_steps": E * pr_iters + sym_E * cc_iters,
            "checkpoints.bytes_written": nbytes,
            "checkpoints.files_written": nfiles,
            "checkpoints.supersteps_saved": saved,
            "checkpoints.resume_redo_supersteps": redo,
        }


class ImportAnalytics:
    """The import job on the corpus, then the local kernels on the graph."""

    def warm_up(self, ledger: Ledger, pass_dir: str) -> None:
        # the first extraction after ray.init also pays for its workers'
        # imports; the local kernels show no such first-pass cost
        corpus = self.parts[0]
        corpus.check(corpus.run(NULL_TRACER, ledger, pass_dir), ledger, pass_dir)

    def __init__(self, corpus: ImportRank, graph: GraphAnalytics) -> None:
        self.parts = (corpus, graph)
        self.num_edges = corpus.num_edges + graph.num_edges

    def load(self) -> None:
        for part in self.parts:
            part.load()

    def run(self, tr, ledger: Ledger, pass_dir: str) -> list:
        return [part.run(tr, ledger, pass_dir) for part in self.parts]

    def check(self, outs: list, ledger: Ledger, pass_dir: str) -> dict:
        counts: dict = {}
        for part, out in zip(self.parts, outs):
            for name, value in part.check(out, ledger, pass_dir).items():
                counts[name] = counts.get(name, 0) + value
        return counts


def make_workload(name: str, inputs: list[tuple[str, dict]]):
    """The workload ``name`` over its inputs, in ``WORKLOAD_INPUTS`` order."""
    refs = list(WORKLOAD_INPUTS[name].values())
    if name == "import_analytics":
        return ImportAnalytics(
            ImportRank(*inputs[0], refs[0]), GraphAnalytics(*inputs[1], refs[1])
        )
    return ResumableCsr(*inputs[0], refs[0])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(times: dict[str, float], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self times and derived rates.

    Layers a workload does not run read 0.
    """
    m = {f"{name}_s": times.get(name, 0.0) for name in LAYER_SPANS}
    for name in (
        "edges.edges_out",
        "edges.vertices_out",
        "edges.resolved_ratio",
        "engine.pagerank_supersteps",
        "engine.cc_supersteps",
        "engine.lpa_rounds",
        "engine.lpa_last_changed",
        "triangles.total",
        "csr.supersteps",
        "checkpoints.bytes_written",
        "checkpoints.files_written",
        "checkpoints.supersteps_saved",
        "checkpoints.resume_redo_supersteps",
    ):
        m[name] = counts.get(name, 0)
    m["edges.extract_edges_per_s"] = _rate(
        counts.get("edges.edges_out", 0), m["edges.extract_s"]
    )
    m["engine.pagerank_edge_steps_per_s"] = _rate(
        counts.get("engine.pagerank_edge_steps", 0), m["engine.pagerank_s"]
    )
    m["csr.edge_steps_per_s"] = _rate(
        counts.get("csr.edge_steps", 0),
        m["csr.pagerank_s"] + m["csr.resume_s"] + m["csr.cc_s"],
    )
    return m


class _PassFailed(Exception):
    pass


def _pass(wl, k: int, traced: bool, args, tracer: Tracer, ledger: Ledger) -> dict:
    """Run, time and check pass ``k``; raise ``_PassFailed`` if it raises."""
    tr = tracer if traced else NULL_TRACER
    tracer.run = f"{args.run_id}-pass{k}"
    pass_dir = os.path.join(args.work, f"pass{k}")
    os.makedirs(pass_dir)
    n_spans = len(tracer.spans)
    t0 = time.perf_counter()
    try:
        with tr.span("job"):
            out = wl.run(tr, ledger, pass_dir)
        job_s = time.perf_counter() - t0
        counts = wl.check(out, ledger, pass_dir)
    except Exception as e:  # a raising kernel is in the ledger; stop
        raise _PassFailed(f"pass {k} raised {type(e).__name__}: {e}") from e
    del out
    shutil.rmtree(pass_dir)
    rec = {"job_s": job_s, "traced": traced}
    if traced:
        spans = tracer.spans[n_spans:]
        rec["coverage"] = coverage(spans, spans[0])
        rec["layers"] = layer_metrics(self_times(spans), counts)
    return rec


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    ap.add_argument("--inputs", required=True, nargs="+")
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--temp-dir")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import ray

    import citationgraphs_ray.graph.csr_engine  # noqa: F401
    import citationgraphs_ray.graph.engine  # noqa: F401
    import citationgraphs_ray.graph.triangles  # noqa: F401
    import citationgraphs_ray.stages.edges  # noqa: F401
    import citationgraphs_ray.state.checkpoints  # noqa: F401

    inputs = []
    for d in args.inputs:
        with open(os.path.join(d, "meta.json")) as f:
            inputs.append((d, json.load(f)))
    wl = make_workload(args.workload, inputs)
    ledger = Ledger(os.path.join(args.work, "progress.json"))
    tracer = Tracer()
    passes: list[dict] = []
    problems: list[str] = []
    setup: list[tuple[float, float, float]] = []  # (total, ray_init, load)
    try:
        for i in range(SESSIONS):
            if i:
                ray.shutdown()
            tracer.run = f"{args.run_id}-setup{i}"
            t0 = time.perf_counter()
            with tracer.span("session.ray_init"):
                init_ray(args.temp_dir)
            t1 = time.perf_counter()
            with tracer.span("session.load"):
                wl.load()
            t2 = time.perf_counter()
            setup.append((t2 - t0, t1 - t0, t2 - t1))

            warm_dir = os.path.join(args.work, f"warmup{i}")
            os.makedirs(warm_dir)
            try:
                wl.warm_up(ledger, warm_dir)
            except Exception as e:  # as for a pass: in the ledger; stop
                raise _PassFailed(f"warm-up raised {type(e).__name__}: {e}") from e
            shutil.rmtree(warm_dir)
            # this session's share of the run, at least one pass
            start = time.perf_counter()
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 0
                passes.append(_pass(wl, len(passes), traced, args, tracer, ledger))
                if time.perf_counter() - start >= args.seconds / SESSIONS:
                    break
    except _PassFailed as e:  # the run stops at a pass that raised
        problems.append(str(e))
    finally:
        ray.shutdown()

    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "problems": problems,
        "passes": passes,
        "setup": setup,
        "metrics": {},
    }
    untraced = [p["job_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if untraced and (traced or not args.trace):
        med = statistics.median
        m = result["metrics"]
        if args.trace:
            low = min(p["coverage"] for p in traced)
            if low < MIN_COVERAGE:
                problems.append(f"top-level spans cover {low:.3f} of a pass")
            for name in traced[0]["layers"]:
                m[name] = med(p["layers"][name] for p in traced)
            m["session.ray_init_s"] = med(s[1] for s in setup)
            m["session.load_s"] = med(s[2] for s in setup)
            m["trace.coverage"] = low
            m["trace.overhead_s"] = med(p["job_s"] for p in traced) - med(untraced)
            m["ops_failed_frac"] = ledger.failed_frac
        else:
            job_s = med(untraced)
            m["job_s"] = job_s
            m["edges_per_s"] = wl.num_edges / job_s
            m["setup_s"] = med(s[0] for s in setup)
            m["ops_ok_frac"] = 1.0 - ledger.failed_frac
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.write(os.path.join(args.work, "spans.jsonl"))
    with open(args.out, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
