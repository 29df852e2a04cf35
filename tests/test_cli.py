"""Smoke tests for the ray-job-submit CLI (north_star entry point)."""

import json
import numpy as np
import pyarrow.parquet as pq
import ray.data

from citationgraphs_ray.cli import main
from citationgraphs_ray.corpus import generate_corpus, write_corpus_parquet
from citationgraphs_ray.graph.oracle import pagerank_oracle


def _corpus_dir(tmp_path):
    corp = generate_corpus(n_repos=20, seed=7, mega_repo_files=100)
    d = str(tmp_path / "corpus")
    write_corpus_parquet(corp, d)
    return d


def test_cli_pagerank_csr_with_resume(tmp_path, capsys):
    cdir = _corpus_dir(tmp_path)
    out = str(tmp_path / "out")
    ck = str(tmp_path / "ck")
    rc = main(
        [
            "--corpus", cdir,
            "--output", out,
            "--kernel", "pagerank",
            "--engine", "csr",
            "--num-partitions", "4",
            "--workdir", str(tmp_path / "wd"),
            "--checkpoint-dir", ck,
            "--tol", "1e-9",
        ]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["converged"]
    res = pq.read_table(out).to_pandas().sort_values("id")
    assert len(res) == info["V"]
    # resume from converged checkpoint is a no-op rerun
    rc2 = main(
        [
            "--corpus", cdir,
            "--output", str(tmp_path / "out2"),
            "--kernel", "pagerank",
            "--engine", "csr",
            "--num-partitions", "4",
            "--workdir", str(tmp_path / "wd"),
            "--checkpoint-dir", ck,
            "--resume",
            "--tol", "1e-9",
        ]
    )
    assert rc2 == 0
    res2 = pq.read_table(str(tmp_path / "out2")).to_pandas().sort_values("id")
    assert np.array_equal(res["rank"].to_numpy(), res2["rank"].to_numpy())


def test_cli_edges_output(tmp_path, capsys):
    cdir = _corpus_dir(tmp_path)
    out = str(tmp_path / "edges_out")
    rc = main(["--corpus", cdir, "--output", out, "--kernel", "edges"])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    tbl = pq.read_table(out)
    assert tbl.num_rows == info["rows"] > 0
    assert set(tbl.column_names) == {"src", "dst"}


def test_cli_cc_lpa_triangles(tmp_path, capsys):
    cdir = _corpus_dir(tmp_path)
    for kernel in ("cc", "lpa", "triangles"):
        out = str(tmp_path / f"out_{kernel}")
        rc = main(
            [
                "--corpus", cdir,
                "--output", out,
                "--kernel", kernel,
                "--engine", "csr",
                "--num-partitions", "4",
                "--workdir", str(tmp_path / f"wd_{kernel}"),
            ]
        )
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        tbl = pq.read_table(out)
        assert tbl.num_rows == info["V"] > 0


def test_cli_broadcast_engine(tmp_path, capsys):
    cdir = _corpus_dir(tmp_path)
    out = str(tmp_path / "out_bc")
    rc = main(
        [
            "--corpus", cdir,
            "--output", out,
            "--kernel", "pagerank",
            "--engine", "broadcast",
            "--tol", "1e-9",
        ]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["converged"] and info["engine"] == "broadcast"


def test_cli_shards_output(tmp_path, capsys):
    import glob

    cdir = _corpus_dir(tmp_path)
    out = str(tmp_path / "shards_out")
    rc = main(
        [
            "--corpus", cdir,
            "--output", out,
            "--kernel", "pagerank",
            "--engine", "csr",
            "--num-partitions", "4",
            "--workdir", str(tmp_path / "wd_sh"),
            "--output-mode", "shards",
        ]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["output_mode"] == "shards" and info["rows"] == info["V"]
    shards = sorted(glob.glob(f"{out}/state-*.parquet"))
    assert len(shards) == 4
    import pandas as pd

    df = pd.concat([pq.read_table(s).to_pandas() for s in shards])
    assert len(df) == info["V"]
    assert set(df.columns) == {"id", "rank"}


def test_cli_bfs_and_kcore(tmp_path, capsys):
    from citationgraphs_ray.graph.oracle import bfs_oracle, k_core_oracle
    from citationgraphs_ray.stages.edges import extract_edge_table

    cdir = _corpus_dir(tmp_path)
    edges, vids = extract_edge_table(ray.data.read_parquet(cdir))
    earr = edges.to_pandas()[["src", "dst"]].to_numpy().astype(np.int64)
    V = vids.count()

    out = str(tmp_path / "out_bfs")
    rc = main(
        ["--corpus", cdir, "--output", out, "--kernel", "bfs",
         "--engine", "broadcast", "--bfs-source", "0"]
    )
    assert rc == 0
    json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    tbl = pq.read_table(out).to_pandas().sort_values("id")
    assert np.array_equal(
        tbl["hops"].to_numpy(), bfs_oracle(earr, V, [0], directed=False)
    )

    out = str(tmp_path / "out_bfs_csr")
    rc = main(
        ["--corpus", cdir, "--output", out, "--kernel", "bfs",
         "--engine", "csr", "--num-partitions", "4",
         "--workdir", str(tmp_path / "wd_bfs"), "--bfs-source", "0"]
    )
    assert rc == 0
    json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    tbl = pq.read_table(out).to_pandas().sort_values("id")
    assert np.array_equal(
        tbl["hops"].to_numpy(), bfs_oracle(earr, V, [0], directed=False)
    )

    for engine in ("broadcast", "csr"):
        out = str(tmp_path / f"out_kcore_{engine}")
        rc = main(
            ["--corpus", cdir, "--output", out, "--kernel", "kcore",
             "--engine", engine, "--num-partitions", "4",
             "--workdir", str(tmp_path / f"wd_kc_{engine}"),
             "--kcore-k", "3"]
        )
        assert rc == 0
        tbl = pq.read_table(out).to_pandas().sort_values("id")
        assert np.array_equal(
            tbl["in_kcore"].to_numpy(), k_core_oracle(earr, V, k=3)
        ), engine


def test_cli_kcore_csr_shards(tmp_path, capsys):
    """kcore+csr+shards writes the 0/1 ``in_kcore`` membership straight
    from the workers, equal to the oracle."""
    import glob

    import pandas as pd

    from citationgraphs_ray.graph.oracle import k_core_oracle
    from citationgraphs_ray.stages.edges import extract_edge_table

    cdir = _corpus_dir(tmp_path)
    edges, vids = extract_edge_table(ray.data.read_parquet(cdir))
    earr = edges.to_pandas()[["src", "dst"]].to_numpy().astype(np.int64)
    V = vids.count()
    out = str(tmp_path / "out_kcore_shards")
    rc = main(
        ["--corpus", cdir, "--output", out, "--kernel", "kcore",
         "--engine", "csr", "--num-partitions", "4",
         "--workdir", str(tmp_path / "wd_kc"), "--kcore-k", "3",
         "--output-mode", "shards"]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["engine"] == "csr" and info["rows"] == V
    shards = sorted(glob.glob(f"{out}/state-*.parquet"))
    df = pd.concat([pq.read_table(s).to_pandas() for s in shards])
    assert set(df.columns) == {"id", "in_kcore"}
    df = df.sort_values("id")
    assert np.array_equal(df["id"].to_numpy(), np.arange(V))
    assert np.array_equal(df["in_kcore"].to_numpy(), k_core_oracle(earr, V, k=3))


def test_cli_hits_and_ppr(tmp_path, capsys):
    cdir = _corpus_dir(tmp_path)
    out_h = str(tmp_path / "out_hits")
    rc = main(
        [
            "--corpus", cdir,
            "--output", out_h,
            "--kernel", "hits",
            "--max-iters", "10",
            "--tol", "0",
        ]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["kernel"] == "hits" and info["iterations"] == 10
    res = pq.read_table(out_h).to_pandas().sort_values("id")
    assert set(res.columns) == {"id", "hub", "auth"}

    out_p = str(tmp_path / "out_ppr")
    rc = main(
        [
            "--corpus", cdir,
            "--output", out_p,
            "--kernel", "ppr",
            "--seeds", "0,2",
            "--tol", "1e-10",
        ]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["converged"]
    ranks = pq.read_table(out_p).to_pandas().sort_values("id")["rank"].to_numpy()
    assert abs(ranks.sum() - 1.0) < 1e-9
    # seed 0 holds restart mass
    assert ranks[0] > np.median(ranks)


def test_cli_ppr_csr_engine(tmp_path, capsys):
    """ppr honors --engine csr; output matches the broadcast leg."""
    cdir = _corpus_dir(tmp_path)
    outs = {}
    for engine in ("broadcast", "csr"):
        out = str(tmp_path / f"out_ppr_{engine}")
        rc = main(
            ["--corpus", cdir, "--output", out, "--kernel", "ppr",
             "--engine", engine, "--seeds", "0,2", "--tol", "1e-12",
             "--num-partitions", "4",
             "--workdir", str(tmp_path / f"wd_ppr_{engine}")]
        )
        assert rc == 0
        json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        outs[engine] = (
            pq.read_table(out).to_pandas().sort_values("id")["rank"].to_numpy()
        )
    assert np.allclose(outs["broadcast"], outs["csr"], atol=1e-9)
