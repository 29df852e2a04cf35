"""Reference citation-graph 3-CSV conformance I/O (S1/S2) + memberships (S3/S4).

Byte-format parity with the Go reference:

- files ``<prefix>-citation-graph-{nodes,edges,labels}.csv``
  (CitationGraphs.go:1451-1453)
- nodes header ``#id, in-<prefix>, year, title`` — 4 columns, validated
  exactly after TrimSpace, error on mismatch (1469-1479; reference
  log.Fatal → here ValueError); rows ``id, bool, year, title`` with commas
  in titles escaped as the literal ``[comma]`` (1488-1491) and unescaped +
  TidyTitle'd on load
- edges header ``#id, ref-id`` (1517-1525); save dedups + symmetrizes via
  the nested set (2003-2026) → here ``groupby(src,dst)`` after the
  undirected union
- labels header ``#id, label`` (1556-1564); one row per (id, label)
- memberships: the reference JSON-marshals ``map[int64][]float64``
  (3612-3658); kept as JSON for parity plus a Parquet variant (the
  at-scale layout per SURVEY S3)

The graph is represented as three Datasets (nodes/edges/labels) — never a
pointer graph. Loading uses ``ray.data.read_csv``-compatible parsing but
hand-splits rows because the reference's format is NOT RFC-CSV (no quoting;
``[comma]`` escape instead).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..stages.edges import dedup_edges
from ..stages.text import tidy_title


class CitationGraphTables:
    """nodes(id, is_main, year, title), edges(src, dst), labels(id, label)."""

    def __init__(
        self,
        nodes: ray.data.Dataset,
        edges: ray.data.Dataset,
        labels: ray.data.Dataset,
    ) -> None:
        self.nodes = nodes
        self.edges = edges
        self.labels = labels


def _read_lines(fname: str) -> list[str]:
    with open(fname, encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f]


def _check_header(line: str, expected: list[str], fname: str) -> None:
    cols = [c.strip() for c in line.split(",")]
    if cols != expected:
        raise ValueError(f"Incorrect file format of {fname}: header {cols!r}")


def load_citation_graph(path: str, prefix: str) -> CitationGraphTables:
    """S1 (LoadCitationGraph, 1442-1582) as three Datasets."""
    f_nodes = os.path.join(path, f"{prefix}-citation-graph-nodes.csv")
    f_edges = os.path.join(path, f"{prefix}-citation-graph-edges.csv")
    f_labels = os.path.join(path, f"{prefix}-citation-graph-labels.csv")

    node_lines = _read_lines(f_nodes)
    if not node_lines:
        raise ValueError(f"Cannot read {f_nodes}")
    _check_header(node_lines[0], ["#id", f"in-{prefix}", "year", "title"], f_nodes)
    ids: list[int] = []
    mains: list[bool] = []
    years: list[int] = []
    titles: list[str] = []
    for line in node_lines[1:]:
        if not line.strip():
            continue
        cols = line.split(",")
        # reference: silently zero-values malformed numerics (1488-1491)
        ids.append(_int_or_zero(cols[0]))
        mains.append(cols[1].strip().lower() == "true")
        years.append(_int_or_zero(cols[2]))
        titles.append(tidy_title(cols[3].strip().replace("[comma]", ",")))
    nodes = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "is_main": pa.array(mains),
                "year": pa.array(years, type=pa.int64()),
                "title": pa.array(titles),
            }
        )
    )

    edge_lines = _read_lines(f_edges)
    if not edge_lines:
        raise ValueError(f"Cannot read {f_edges}")
    _check_header(edge_lines[0], ["#id", "ref-id"], f_edges)
    srcs: list[int] = []
    dsts: list[int] = []
    for line in edge_lines[1:]:
        if not line.strip():
            continue
        cols = line.split(",")
        srcs.append(_int_or_zero(cols[0]))
        dsts.append(_int_or_zero(cols[1]))
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(srcs, type=pa.int64()),
                "dst": pa.array(dsts, type=pa.int64()),
            }
        )
    )

    label_lines = _read_lines(f_labels)
    if not label_lines:
        raise ValueError(f"Cannot read {f_labels}")
    _check_header(label_lines[0], ["#id", "label"], f_labels)
    lids: list[int] = []
    labs: list[str] = []
    for line in label_lines[1:]:
        if not line.strip():
            continue
        cols = line.split(",")
        lids.append(_int_or_zero(cols[0]))
        labs.append(cols[1].strip())
    labels = ray.data.from_arrow(
        pa.table(
            {"id": pa.array(lids, type=pa.int64()), "label": pa.array(labs)}
        )
    )
    return CitationGraphTables(nodes, edges, labels)


def save_citation_graph(
    path: str, prefix: str, graph: CitationGraphTables
) -> None:
    """S2 (SaveCitationGraph, 1950-2049): re-escape ``[comma]``, dedup +
    symmetrize edges before writing. Deterministic row order (sorted by id)
    — the reference's map-iteration order is nondeterministic; sorting makes
    round-trips reproducible."""
    os.makedirs(path, exist_ok=True)
    nodes = graph.nodes.sort("id").to_pandas()
    with open(
        os.path.join(path, f"{prefix}-citation-graph-nodes.csv"), "w"
    ) as f:
        f.write(f"#id, in-{prefix}, year, title\n")
        for r in nodes.itertuples():
            title = tidy_title(str(r.title)).replace(",", "[comma]")
            f.write(f"{r.id}, {str(bool(r.is_main)).lower()}, {r.year}, {title}\n")

    # dedup (2003-2026): the reference's nested edgeSet unions each node's
    # Refs (id→refID) with each citer's reversed Cites (citeID→id) — both are
    # the DIRECTED citer→cited edge, so the result is the deduplicated
    # directed edge set, never re-oriented. Direction must survive a
    # round-trip (Refs/Cites are rebuilt from row direction on load).
    und = dedup_edges(graph.edges).sort(["src", "dst"]).to_pandas()
    with open(
        os.path.join(path, f"{prefix}-citation-graph-edges.csv"), "w"
    ) as f:
        f.write("#id, ref-id\n")
        for r in und.itertuples():
            f.write(f"{r.src}, {r.dst}\n")

    labels = graph.labels.sort(["id", "label"]).to_pandas()
    with open(
        os.path.join(path, f"{prefix}-citation-graph-labels.csv"), "w"
    ) as f:
        f.write("#id, label\n")
        for r in labels.itertuples():
            f.write(f"{r.id}, {r.label}\n")


def _int_or_zero(s: str) -> int:
    try:
        return int(s.strip())
    except ValueError:
        return 0  # reference discards strconv errors → zero value


# ---------------------------------------------------------------------------
# Memberships I/O (S3/S4)
# ---------------------------------------------------------------------------


def save_memberships_json(memberships: ray.data.Dataset, file_name: str) -> None:
    """S3 (SaveMemberships, 3612-3627): JSON map id → vector. Debug-scale
    only — the at-scale layout is save_memberships_parquet."""
    out: dict[str, list[float]] = {}
    for row in memberships.iter_rows():
        out[str(row["id"])] = list(row["membership"])
    with open(file_name, "w") as f:
        json.dump(out, f)


def load_memberships_json(file_name: str) -> ray.data.Dataset:
    """S4 (LoadMemberships, 3631-3658)."""
    with open(file_name) as f:
        raw = json.load(f)
    ids = sorted(int(k) for k in raw)
    return ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "membership": pa.array(
                    [raw[str(i)] for i in ids], type=pa.list_(pa.float64())
                ),
            }
        )
    )


def save_memberships_parquet(memberships: ray.data.Dataset, out_dir: str) -> None:
    memberships.write_parquet(out_dir)


def load_memberships_parquet(out_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(out_dir, partitioning=None)
