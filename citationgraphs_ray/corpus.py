"""Deterministic synthetic source-code corpus (FIXTURES.md F1).

Generates the BASELINE.json ``input_hint`` table — one row per file:
``(repo:string, path:string, commit:string, lang:string, content:string)``
— fully seeded, no external data. Import statements inside ``content`` are
the ground-truth edges; the generator also returns the resolved expected
edge list so tests can check the extraction stage exactly.

Shape knobs mirror the fixture spec: Zipf(1.5) files per repo clipped
[1, 200], one optional mega-repo (hub-skew tests), Zipf(2)
out-degree clipped [0, 50], ~1% dangling imports (unresolvable dst), ~2%
duplicated import lines (exact-dedup exercise), occasional self-imports
(dropped as self-loops), markdown files with no imports (empty-edge rows).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

LANGS = ("python", "go", "markdown")


@dataclass
class SyntheticCorpus:
    table: pa.Table  # repo, path, commit, lang, content
    # expected resolved edges (after self-loop drop + exact dedup), as
    # (src_repo, src_path, dst_repo, dst_path) string tuples
    expected_edges: set[tuple[str, str, str, str]] = field(default_factory=set)


def generate_corpus(
    n_repos: int = 20,
    seed: int = 42,
    mega_repo_files: int = 0,
    orgs_per_group: int = 10,
    out_deg_base: int = 0,
) -> SyntheticCorpus:
    """``out_deg_base`` shifts the Zipf out-degree up uniformly — used by the
    bench harness to hit the FIXTURES.md bench edge density (~10 edges/file)
    without changing the test-scale shape (default 0 keeps old behavior)."""
    rng = np.random.default_rng(seed)

    repos = [f"org{i // orgs_per_group}/repo{i}" for i in range(n_repos)]
    n_files = np.clip(rng.zipf(1.5, size=n_repos), 1, 200).astype(int)
    if mega_repo_files:
        n_files[0] = mega_repo_files

    file_set: set[tuple[str, str]] = set()
    per_repo_count: dict[str, int] = {}
    for r, nf in zip(repos, n_files):
        per_repo_count[r] = int(nf)
        for j in range(nf):
            file_set.add((r, f"src/m{j}.py"))

    rows_repo: list[str] = []
    rows_path: list[str] = []
    rows_commit: list[str] = []
    rows_lang: list[str] = []
    rows_content: list[str] = []
    expected: set[tuple[str, str, str, str]] = set()

    for r_idx, (r, nf) in enumerate(zip(repos, n_files)):
        langs = rng.choice(len(LANGS), size=nf, p=[0.90, 0.05, 0.05])
        out_deg = np.clip(
            rng.zipf(2.0, size=nf) - 1 + out_deg_base, 0, 50 + out_deg_base
        ).astype(int)
        for j in range(nf):
            path = f"src/m{j}.py"
            lang = LANGS[langs[j]]
            lines = [f"# {r}/{path}", f'"""module m{j} of {r}"""']
            if lang == "python":
                import_lines: list[str] = []
                for _ in range(out_deg[j]):
                    dangling = rng.random() < 0.01
                    if rng.random() < 0.8:  # same-repo import
                        k = int(rng.integers(0, nf + (5 if dangling else 0)))
                        if dangling:
                            k = nf + k  # guaranteed non-existent module
                        import_lines.append(f"import m{k}")
                        dst = (r, f"src/m{k}.py")
                    else:  # cross-repo import
                        tr = repos[int(rng.integers(0, n_repos))]
                        tn = per_repo_count[tr]
                        k = int(rng.integers(0, tn))
                        if dangling:
                            k = tn + 3
                        import_lines.append(f"from {tr}.m{k} import x")
                        dst = (tr, f"src/m{k}.py")
                    if dst in file_set and dst != (r, path):
                        expected.add((r, path, dst[0], dst[1]))
                # ~2% duplicated import lines
                for line in list(import_lines):
                    if rng.random() < 0.02:
                        import_lines.append(line)
                lines.extend(import_lines)
                lines.append(f"def f{j}():")
                lines.append(f"    return {j} * {r_idx}")
            elif lang == "go":
                lines.append("package main")
                lines.append(f"func F{j}() int {{ return {j} }}")
            else:  # markdown — no imports
                lines.append(f"Documentation for module m{j}.")
            content = "\n".join(lines) + "\n"
            rows_repo.append(r)
            rows_path.append(path)
            rows_commit.append(
                hashlib.sha1(f"{r}/{path}@{seed}".encode()).hexdigest()
            )
            rows_lang.append(lang)
            rows_content.append(content)

    table = pa.table(
        {
            "repo": pa.array(rows_repo),
            "path": pa.array(rows_path),
            "commit": pa.array(rows_commit),
            "lang": pa.array(rows_lang),
            "content": pa.array(rows_content),
        }
    )
    return SyntheticCorpus(table=table, expected_edges=expected)


def write_corpus_parquet(corpus: SyntheticCorpus, out_dir: str, shards: int = 4) -> str:
    """Write the corpus as a directory of parquet shards (resumable layout)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    n = corpus.table.num_rows
    per = max(1, (n + shards - 1) // shards)
    for s in range(shards):
        sl = corpus.table.slice(s * per, per)
        if sl.num_rows == 0:
            break
        pq.write_table(sl, os.path.join(out_dir, f"part-{s:05d}.parquet"))
    return out_dir
