"""designgap benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-depth --seed 3 --seconds 20 --trace 0

With ``--trace 0`` it times set-up in several fresh interpreters, then runs
the workload in one more fresh interpreter (``worker.py``) for ``--seconds``
and prints the end-to-end metrics.  With ``--trace 1`` the worker alternates
untraced and traced rounds and the per-layer metrics are printed instead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result and the spans of
one traced round are also written under ``perfbench/out/``.

numpy's BLAS runs single-threaded in every interpreter this starts, matching
the CLI's ``--threads 1``: on a shared 2-core machine a threaded BLAS made
the same command vary by more than half its time from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A fresh interpreter imports the CLI and touches numpy's linear algebra.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import designgap.cli, numpy.linalg; "
    "numpy.linalg.qr(numpy.eye(2)); print('ready', flush=True)"
)


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".distinct_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def child_env() -> dict[str, str]:
    return {**os.environ, **SINGLE_THREADED}


def setup_seconds(env) -> float:
    """Seconds from starting an interpreter until the CLI and numpy.linalg are loaded."""
    argv = [sys.executable, "-c", _PROBE, str(ROOT / "src")]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def run_worker(cfg: dict, env) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "designgap" / "cli.py").is_file():
        print(f"run.py: no designgap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    workloads.commands(args.workload, args.seed)  # validates the seed before any work

    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cfg = {"root": str(ROOT), "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        cfg["spans_path"] = str(OUT / f"spans-{tag}.tsv.gz")
    metrics = {}
    if not args.trace:
        setup_seconds(env)  # untimed: writes bytecode caches once, as an install would
        metrics["setup_s"] = statistics.median(setup_seconds(env) for _ in range(SETUP_PROBES))
    result = run_worker(cfg, env)
    metrics.update(result["metrics"])

    summary = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({**summary, "detail": result}, indent=1) + "\n")
    for line in result["errors"] + result["failures"]:
        print(f"run.py: {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
