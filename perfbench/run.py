"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload import_analytics --seed 1 --seconds 12 --trace 0

Run from the repository root. Inputs are generated from ``--seed`` and cached,
with their reference answers, under ``.perfbench/inputs``; the measured job
runs in a child process (``perfbench.measure``) under a hard timeout, so a
hung Ray job is killed and counted as a failed operation instead of hanging
the benchmark. ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics. Every run appends
its host canary, CPU count and input digests to ``.perfbench/runs.jsonl``,
so results from different hosts or inputs are never compared.

Exit status is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
# a run must report within 180 s; leave room to kill the job and report
DEADLINE_S = 170
# Ray puts Unix sockets under its temp dir; their paths must stay under 108
# bytes, which leaves about 44 for the temp dir itself
RAY_TEMP_MAX_LEN = 44


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def host_canary() -> float:
    """Single-core matmul seconds, the same canary as ``bench.py``."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((1500, 1500))
    t0 = time.perf_counter()
    for _ in range(3):
        a = a @ a * 1e-3
    return time.perf_counter() - t0


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    log("processes of the measured run outlived SIGKILL for 10 s")


def run_child(args, input_dirs: list[str], work: str, run_id: str, timeout: float) -> dict:
    temp = os.path.join(STATE, "ray")
    cmd = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", args.workload,
        "--inputs", *input_dirs,
        "--work", work,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-id", run_id,
        "--out", os.path.join(work, "result.json"),
    ]
    if len(temp) <= RAY_TEMP_MAX_LEN:
        cmd += ["--temp-dir", temp]
    else:
        log("checkout path too long for Ray sockets; Ray uses its default temp dir")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p
    )
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        proc.wait(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _stop_group(proc)
        shutil.rmtree(temp, ignore_errors=True)  # dead Ray sessions' logs
    try:
        with open(os.path.join(work, "result.json")) as f:
            return json.load(f)
    except (FileNotFoundError, ValueError):  # none, or cut off mid-write
        pass
    # no result: count what was attempted, plus the call that hung or crashed
    progress = {"attempted": 0, "failed": 0, "failures": []}
    try:
        with open(os.path.join(work, "progress.json")) as f:
            progress = json.load(f)
    except FileNotFoundError:
        pass
    why = f"timed out after {timeout:.0f} s" if timed_out else f"exit {proc.returncode}"
    return {
        "attempted": max(progress["attempted"], 1),
        "failed": progress["failed"] + 1,
        "failures": progress["failures"] + [{"op": "run", "reason": why}],
        "problems": [f"measured run {why}"],
        "metrics": {},
    }


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "citationgraphs_ray", "__init__.py")):
        log(f"no citationgraphs_ray package under {ROOT}; run from a full checkout")
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import inputs

    if args.workload not in inputs.WORKLOAD_INPUTS:
        log(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOAD_INPUTS)}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    t0 = time.monotonic()
    prepared = {
        kind: inputs.prepare(kind, refs, args.seed, os.path.join(STATE, "inputs"))
        for kind, refs in inputs.WORKLOAD_INPUTS[args.workload].items()
    }
    log(f"inputs ready in {time.monotonic() - t0:.1f} s: {prepared}")
    host = {"host.canary_s": host_canary(), "host.cpus": len(os.sched_getaffinity(0))}

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(STATE, "work", run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        res = run_child(
            args,
            [d for d, _ in prepared.values()],
            work,
            run_id,
            DEADLINE_S - (time.monotonic() - t_start),
        )
        if args.trace and os.path.exists(os.path.join(work, "spans.jsonl")):
            os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
            shutil.copy(
                os.path.join(work, "spans.jsonl"),
                os.path.join(STATE, "traces", f"{run_id}.jsonl"),
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {**res["metrics"], **host}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not res["problems"]:
        res["problems"].append(f"metrics not measured: {missing}")
    correct = res["failed"] == 0 and not res["problems"]
    for failure in res["failures"] + [{"problem": p} for p in res["problems"]]:
        log(f"FAILED {failure}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "input_digest": {kind: meta["digest"] for kind, (_, meta) in prepared.items()},
        **host,
        "correct": correct,
        "passes": [p["job_s"] for p in res.get("passes", [])],
        "setup": res.get("setup", []),
        "metrics": res["metrics"],
    }
    with open(os.path.join(STATE, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    log(f"run record: {json.dumps(record)}")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                    if m["name"] in values
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
