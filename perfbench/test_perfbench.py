"""Tests of the benchmark itself (no Ray session needed).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import pytest

from perfbench import inputs
from perfbench.checks import Ledger, check_close, check_edges, check_equal, check_vertices
from perfbench.measure import ImportAnalytics, layer_metrics
from perfbench.trace import Span, coverage, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _files(d: str) -> dict[str, bytes]:
    data = os.path.join(d, "data")
    out = {}
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize(
    "kind, sizes",
    [("graph", {"num_vertices": 3000}), ("corpus", {"target_files": 800})],
)
def test_same_seed_regenerates_byte_identical_inputs(tmp_path, kind, sizes):
    a = inputs.build_inputs(kind, 5, str(tmp_path / "a"), **sizes)
    b = inputs.build_inputs(kind, 5, str(tmp_path / "b"), **sizes)
    c = inputs.build_inputs(kind, 6, str(tmp_path / "c"), **sizes)
    assert _files(str(tmp_path / "a")) == _files(str(tmp_path / "b"))
    assert a == b
    assert c["digest"] != a["digest"]


def test_corpus_size_is_pinned_across_seeds(tmp_path):
    for seed in (1, 2):
        meta = inputs.build_inputs("corpus", seed, str(tmp_path / str(seed)), target_files=800)
        assert 800 <= meta["num_vertices"] < 800 + 200


def test_graph_input_shape():
    edges = inputs.generate_graph(3, num_vertices=3000)
    assert edges.dtype == np.int64
    assert not np.any(edges[:, 0] == edges[:, 1])
    assert len(inputs.edge_keys(edges[:, 0], edges[:, 1], 3000)) == len(edges)


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            names.append(m["name"])
            assert UNIT.fullmatch(m["unit"]), m
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(inputs.WORKLOAD_INPUTS)


def test_traced_run_emits_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    emitted = set(layer_metrics({}, {})) | {
        "session.ray_init_s",
        "session.load_s",
        "trace.coverage",
        "trace.overhead_s",
        "ops_failed_frac",
        "host.canary_s",
        "host.cpus",
    }
    assert emitted == {m["name"] for m in bench["per_layer"]}


def test_corrupted_results_fail_and_are_counted():
    ref = np.full(100, 0.01)
    ledger = Ledger()
    for _ in range(4):
        with ledger.op("engine.pagerank"):
            pass
    ledger.check("engine.pagerank", check_close(ref.copy(), ref))
    bad = ref.copy()
    bad[7] += 1e-4
    ledger.check("engine.pagerank", check_close(bad, ref))
    labels = np.arange(100)
    swapped = labels.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    ledger.check("engine.cc", check_equal(swapped, labels))
    with pytest.raises(RuntimeError):
        with ledger.op("engine.lpa"):
            raise RuntimeError("worker died")
    assert (ledger.attempted, ledger.failed) == (5, 3)
    assert ledger.failed_frac == pytest.approx(3 / 5)


def test_edge_and_vertex_checks_are_exact():
    V = 10
    ref = inputs.edge_keys(np.array([0, 1, 2]), np.array([1, 2, 3]), V)
    good = pa.table({"src": [2, 0, 1], "dst": [3, 1, 2]})
    assert check_edges(good, V, ref) is None
    dup = pa.table({"src": [0, 0, 1], "dst": [1, 1, 2]})
    assert check_edges(dup, V, ref) is not None
    verts = pa.table({"repo": ["a", "a", "b"], "path": ["x", "y", "x"]})
    ok = verts.append_column("id", pa.array([0, 1, 2]))
    assert check_vertices(ok, verts) is None
    wrong = verts.append_column("id", pa.array([1, 0, 2]))
    assert check_vertices(wrong, verts) is not None


def test_self_time_and_coverage():
    spans = [
        Span(0, "job", 0.0, 10.0, None, "r"),
        Span(1, "engine.cc", 0.0, 4.0, 0, "r"),
        Span(2, "csr.build", 1.0, 2.0, 1, "r"),
        Span(3, "engine.lpa", 4.5, 10.0, 0, "r"),
    ]
    times = self_times(spans)
    assert times["engine.cc"] == pytest.approx(3.0)
    assert times["job"] == pytest.approx(0.5)
    assert coverage(spans, spans[0]) == pytest.approx(0.95)


def test_merged_workload_sums_the_counts_of_its_parts():
    class Part:
        def __init__(self, counts: dict, num_edges: int) -> None:
            self.counts, self.num_edges = counts, num_edges

        def check(self, out, ledger, pass_dir):
            return self.counts

    corpus = Part({"engine.pagerank_edge_steps": 10, "edges.edges_out": 3}, 5)
    graph = Part({"engine.pagerank_edge_steps": 4, "triangles.total": 2}, 7)
    wl = ImportAnalytics(corpus, graph)
    assert wl.num_edges == 12
    assert wl.check([None, None], Ledger(), "") == {
        "engine.pagerank_edge_steps": 14,
        "edges.edges_out": 3,
        "triangles.total": 2,
    }
