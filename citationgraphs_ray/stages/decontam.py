"""Benchmark decontamination: drop training documents whose content
fingerprint collides with any document of a held-out benchmark set —
the test-set-overlap removal pass every LLM data pipeline runs before
training (public practice: GPT-3 appendix C / Dolma's decontamination).

Scale shape: the benchmark side is SMALL by definition (eval suites are
thousands of docs, the corpus is billions), so its fingerprint set is
computed once and BROADCAST (``ray.put``); the corpus side is one
map-only fingerprint + membership filter — no shuffle at all. The
fingerprint is the winnowing Rabin-Karp scalar of stages/text.py
(shift-tolerant for near-equal texts), already SQL-twinned (HUGEINT),
so the whole pass is oracle-checkable end-to-end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..utils import _default_partitions, collect_table, fast_distinct, on_driver
from .text import fingerprint_batch


def decontaminate(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    col: str = "text",
    window: int = 8,
) -> ray.data.Dataset:
    """Filter ``docs`` down to rows whose ``col`` fingerprint does not
    appear in ``benchmark``'s fingerprint set. Appends nothing; row
    identity is preserved."""

    def fps(t: pa.Table) -> pa.Table:
        out = fingerprint_batch(t, col=col, window=window)
        return out.select(["fingerprint"])

    bench_fps = collect_table(
        fast_distinct(
            benchmark.map_batches(fps, batch_format="pyarrow"),
            ["fingerprint"],
        )
    )
    if not on_driver(bench_fps.nbytes):
        raise ValueError(
            f"decontaminate: benchmark fingerprint set ({bench_fps.nbytes} B) "
            "exceeds the driver budget (utils.DRIVER_BUDGET_BYTES) — "
            "partition it and run in passes"
        )
    bench_ref = ray.put(bench_fps["fingerprint"].combine_chunks())

    class Filter:
        """Membership filter against the broadcast benchmark set —
        loaded once per actor (zero-copy plasma read)."""

        def __init__(self) -> None:
            self.bad = ray.get(bench_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            fp = fingerprint_batch(t, col=col, window=window)["fingerprint"]
            hit = pa.compute.is_in(fp, value_set=self.bad)
            return t.filter(pa.compute.invert(hit))

    return docs.map_batches(
        Filter, batch_format="pyarrow", concurrency=(1, _default_partitions())
    )
