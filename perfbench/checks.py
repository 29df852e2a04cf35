"""Output checks against the reference answers, and the failure ledger.

Each check uses the semantics of the kernel it checks (graph/oracle.py):
PageRank is allclose at atol 1e-6 (the CSR engine sums in another order, so
it is close to the local engine but not bitwise equal); extracted and
symmetrized edge sets, components, labels and triangle counts are exact.
A check returns ``None`` when the output is right, else the reason.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np
import pyarrow as pa


def check_close(got: np.ndarray, ref: np.ndarray, atol: float = 1e-6) -> str | None:
    got = np.asarray(got)
    if got.shape != ref.shape:
        return f"shape {got.shape} != {ref.shape}"
    if not np.allclose(got, ref, atol=atol):
        return f"max abs diff {np.max(np.abs(got - ref)):.3g} > {atol}"
    return None


def check_equal(got: np.ndarray, ref: np.ndarray) -> str | None:
    got = np.asarray(got)
    if got.shape != ref.shape:
        return f"shape {got.shape} != {ref.shape}"
    diff = int(np.count_nonzero(got != ref))
    return f"{diff} of {len(ref)} values differ" if diff else None


def check_edges(table: pa.Table, num_vertices: int, ref_keys: np.ndarray) -> str | None:
    """Exact edge-set equality; a duplicated edge also fails."""
    src = table["src"].to_numpy(zero_copy_only=False)
    dst = table["dst"].to_numpy(zero_copy_only=False)
    if len(src) != len(ref_keys):
        return f"{len(src)} edges, expected {len(ref_keys)}"
    return check_equal(np.sort(src.astype(np.int64) * num_vertices + dst), ref_keys)


def check_vertices(table: pa.Table, ref: pa.Table) -> str | None:
    """Vertex ids must be ranks over the sorted (repo, path) reference."""
    if table.num_rows != ref.num_rows:
        return f"{table.num_rows} vertices, expected {ref.num_rows}"
    t = table.sort_by("id")
    if not np.array_equal(t["id"].to_numpy(), np.arange(ref.num_rows)):
        return "ids are not 0..V-1"
    if not (t["repo"].equals(ref["repo"]) and t["path"].equals(ref["path"])):
        return "ids are not ranks of the sorted (repo, path)"
    return None


class Ledger:
    """Counts kernel calls attempted and failed.

    A call fails when it raises, times out, or its output fails a check.
    Counts are rewritten to ``progress_path`` after every change, so a parent
    that has to kill a hung run still knows what was attempted.
    """

    def __init__(self, progress_path: str | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self._path = progress_path

    def _flush(self) -> None:
        if self._path:
            tmp = self._path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(
                    {"attempted": self.attempted, "failed": self.failed,
                     "failures": self.failures[:20]},
                    f,
                )
            os.replace(tmp, self._path)  # a killed run leaves a whole file

    @contextmanager
    def op(self, name: str):
        """Count one kernel call; an exception marks it failed and propagates."""
        self.attempted += 1
        self._flush()
        try:
            yield
        except Exception as e:
            self.fail(name, f"{type(e).__name__}: {e}")
            raise

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        self.failures.append({"op": name, "reason": reason})
        self._flush()

    def check(self, name: str, reason: str | None) -> None:
        if reason is not None:
            self.fail(name, reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

