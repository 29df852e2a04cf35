"""Per-superstep checkpointing with lineage + convergence metrics.

North-rule requirement (BASELINE.json): "resumable from checkpoint with
per-partition lineage + metrics". The reference's only nod to resumability
is the external clusterer's workspace file (CitationGraphs.go:2873-2875 —
S9); here it is a first-class engine feature:

Layout (one directory per run):

    <root>/
      run.json                      # kernel, input fingerprint, params, P,
                                    # shard format
      iter_000007/
        state-00000.arrow ...       # per-partition vertex state shards:
                                    # uncompressed Arrow IPC files
        MANIFEST.json               # written LAST → marks the superstep
                                    # complete; holds iteration, parent,
                                    # convergence metric, per-part lineage

Resume = scan for the newest iteration directory whose MANIFEST.json exists
and parses; partial superstep writes (no manifest) are ignored, so resume
re-runs the in-flight superstep idempotently (SURVEY.md §7.4: state is
written only at superstep barriers).

Shards are Arrow IPC files, not Parquet: a checkpoint is written every
superstep and read back only by a resume, so the disk bytes Parquet's
encoding and compression save are not worth their time. A 6k-row
(id, rank) shard took 2.0-2.2 ms to write as default Parquet and
0.5-0.6 ms as IPC inside a CSR worker, and 1.3 ms against 0.15 ms to
read (BENCH/BASELINE.md round 9). A directory written before this format
(no ``shard_format`` in run.json) is refused, not misread.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Any

import numpy as np
import pyarrow as pa

_ITER_RE = re.compile(r"^iter_(\d{6})$")
SHARD_FORMAT = "arrow"


def shard_name(part: int) -> str:
    return f"state-{part:05d}.arrow"


def write_shard(path: str, table: pa.Table) -> None:
    """One checkpoint shard: ``table`` as an uncompressed Arrow IPC file."""
    with pa.OSFile(path, "wb") as sink, pa.ipc.new_file(sink, table.schema) as w:
        w.write_table(table)


def read_shard(path: str) -> pa.Table:
    with pa.OSFile(path) as source:
        return pa.ipc.open_file(source).read_all()


@dataclass
class LoadedCheckpoint:
    iteration: int
    state: dict[str, np.ndarray] | None
    manifest: dict[str, Any]


class CheckpointManager:
    def __init__(
        self,
        root: str,
        kernel: str,
        fingerprint: str,
        params: dict[str, Any] | None = None,
        num_partitions: int = 8,
        keep_last: int | None = None,
    ) -> None:
        self.root = root
        self.kernel = kernel
        self.fingerprint = fingerprint
        self.num_partitions = num_partitions
        self.keep_last = keep_last
        os.makedirs(root, exist_ok=True)
        run_meta = {
            "kernel": kernel,
            "fingerprint": fingerprint,
            "params": params or {},
            "num_partitions": num_partitions,
            "shard_format": SHARD_FORMAT,
        }
        run_path = os.path.join(root, "run.json")
        if os.path.exists(run_path):
            with open(run_path) as f:
                existing = json.load(f)
            if (
                existing.get("fingerprint") != fingerprint
                or existing.get("kernel") != kernel
            ):
                raise ValueError(
                    f"checkpoint dir {root} belongs to a different run: "
                    f"{existing.get('kernel')}@{existing.get('fingerprint')} "
                    f"vs {kernel}@{fingerprint}"
                )
            if existing.get("shard_format") != SHARD_FORMAT:
                raise ValueError(
                    f"checkpoint dir {root} holds shards of an older format "
                    f"(no shard_format {SHARD_FORMAT!r} in its run.json); "
                    "delete it or checkpoint to another directory"
                )
        else:
            _atomic_write_json(run_path, run_meta)

    # -- save ---------------------------------------------------------------
    def save(
        self,
        iteration: int,
        state: dict[str, np.ndarray],
        metric: dict[str, float],
        parent: int | None,
    ) -> None:
        """Shard the vertex-state arrays by hash(id) % P and write one
        shard each, then the manifest (the completion marker)."""
        it_dir = self.iter_dir(iteration)
        ids = state["id"]
        part = (ids % self.num_partitions).astype(np.int64)
        parts_meta = []
        for p in range(self.num_partitions):
            mask = part == p
            tbl = pa.table({k: pa.array(v[mask]) for k, v in state.items()})
            fname = shard_name(p)
            write_shard(os.path.join(it_dir, fname), tbl)
            parts_meta.append({"part": p, "file": fname, "rows": int(mask.sum())})
        self.save_manifest(iteration, metric, parent, parts_meta)

    def save_manifest(
        self,
        iteration: int,
        metric: dict[str, float],
        parent: int | None,
        parts: list[dict],
    ) -> None:
        """The manifest alone, for ``save`` and for engines whose
        partitions write their own shards (CSR actor engine): the manifest
        stays the completion marker, written strictly after every shard."""
        it_dir = self.iter_dir(iteration)
        manifest = {
            "kernel": self.kernel,
            "iteration": iteration,
            "parent": parent,
            "fingerprint": self.fingerprint,
            "num_partitions": self.num_partitions,
            "metric": metric,
            "parts": parts,
        }
        _atomic_write_json(os.path.join(it_dir, "MANIFEST.json"), manifest)
        if self.keep_last:
            self.prune(self.keep_last)

    def iter_dir(self, iteration: int) -> str:
        d = os.path.join(self.root, f"iter_{iteration:06d}")
        os.makedirs(d, exist_ok=True)
        return d

    def prune(self, keep_last: int) -> int:
        """Delete all but the newest ``keep_last`` COMPLETE checkpoints
        (incomplete superstep dirs are also removed — they are retry
        leftovers). At 65 supersteps × P shards a run otherwise keeps
        every iteration on disk; production runs keep 1-2. Returns the
        number of iteration directories removed. Manifests are the
        completion markers, so pruning can never break resume: the
        newest surviving manifest is by construction the resume point.
        """
        import shutil

        complete: list[int] = []
        incomplete: list[str] = []
        for name in os.listdir(self.root):
            m = _ITER_RE.match(name)
            if not m:
                continue
            if os.path.exists(os.path.join(self.root, name, "MANIFEST.json")):
                complete.append(int(m.group(1)))
            else:
                incomplete.append(name)
        removed = 0
        for name in incomplete:
            shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)
            removed += 1
        for it in sorted(complete)[:-keep_last] if keep_last > 0 else []:
            shutil.rmtree(
                os.path.join(self.root, f"iter_{it:06d}"), ignore_errors=True
            )
            removed += 1
        return removed

    # -- load ---------------------------------------------------------------
    def latest_manifest(self) -> LoadedCheckpoint | None:
        """The newest complete checkpoint's iteration and manifest, with no
        state shard read (``state`` is None) — for engines whose
        partitions read their own shards."""
        best = -1
        for name in os.listdir(self.root):
            m = _ITER_RE.match(name)
            if not m:
                continue
            if not os.path.exists(os.path.join(self.root, name, "MANIFEST.json")):
                continue  # incomplete superstep → ignored
            best = max(best, int(m.group(1)))
        if best < 0:
            return None
        with open(os.path.join(self.root, f"iter_{best:06d}", "MANIFEST.json")) as f:
            return LoadedCheckpoint(iteration=best, state=None, manifest=json.load(f))

    def latest(self) -> LoadedCheckpoint | None:
        """The newest complete checkpoint with every shard read and the
        state sorted by id."""
        ck = self.latest_manifest()
        if ck is None:
            return None
        it_dir = os.path.join(self.root, f"iter_{ck.iteration:06d}")
        tables = [
            read_shard(os.path.join(it_dir, p["file"]))
            for p in ck.manifest["parts"]
        ]
        tbl = pa.concat_tables(tables)
        state = {
            name: tbl[name].to_numpy(zero_copy_only=False)
            for name in tbl.column_names
        }
        order = np.argsort(state["id"], kind="stable")
        ck.state = {k: v[order] for k, v in state.items()}
        return ck


def _atomic_write_json(path: str, obj: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
    os.replace(tmp, path)
