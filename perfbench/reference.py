"""Reference figures for the README, measured once and not bounded.

Usage, from the root of a checkout (takes a few minutes):

    python3 perfbench/reference.py > perfbench/out/reference.md

Prints, as Markdown: the machine; the wall time of each ``designgap
reproduce --id`` target; each workload's command times at ``--threads 1``
and ``--threads 2``, with a byte comparison of every command's stdout; and the
per-call costs, census BFS rate and tracing overhead of one 30-s traced run
per workload.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

import numpy as np

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
from designgap.cli import REPRODUCE_IDS  # noqa: E402
SEED = 1
TRACED_SECONDS = 30
THREAD_SECONDS = 15


def machine() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"- CPUs (`nproc`): {os.cpu_count()}; {platform.machine()}, Linux {platform.release()}",
        f"- Python {platform.python_version()}, numpy {np.__version__}",
        f"- BLAS: {blas['name']} {blas['version']} ({blas.get('openblas configuration', '').split(chr(10))[0]})",
        f"- BLAS threads in every benchmark interpreter: {run.SINGLE_THREADED}",
    ]


def reproduce_times(env) -> list[str]:
    rows = ["| target | wall s | exit |", "|---|---:|---:|"]
    cli_env = {**env, "PYTHONPATH": str(run.ROOT / "src")}
    for target in REPRODUCE_IDS:
        argv = [sys.executable, "-m", "designgap.cli", "reproduce", "--id", target]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=cli_env, timeout=600)
        rows.append(f"| {target} | {time.perf_counter() - start:.2f} | {proc.returncode} |")
    return rows


def thread_reference(env) -> list[str]:
    rows = ["| workload | command | threads 1 s | threads 2 s | ratio 2/1 | stdout identical |", "|---|---|---:|---:|---:|---|"]
    for name in workloads.WORKLOADS:
        results = {}
        for threads in (1, 2):
            cfg = {"root": str(run.ROOT), "workload": name, "seed": SEED, "seconds": THREAD_SECONDS, "trace": 0, "threads": threads}
            results[threads] = run.run_worker(cfg, env)
        one, two = results[1], results[2]
        for label, t1 in one["command_s"].items():
            t2 = two["command_s"][label]
            same = one["stdout_sha256"][label] == two["stdout_sha256"][label]
            rows.append(f"| {name} | {label} | {t1:.3f} | {t2:.3f} | {t2 / t1:.2f} | {'yes' if same else 'NO'} |")
        t1, t2 = one["metrics"]["wall_s"], two["metrics"]["wall_s"]
        rows.append(f"| {name} | whole round | {t1:.3f} | {t2:.3f} | {t2 / t1:.2f} | |")
    return rows


def traced_figures(env) -> list[str]:
    rows = ["| workload | metric | value |", "|---|---|---:|"]
    for name in workloads.WORKLOADS:
        cfg = {"root": str(run.ROOT), "workload": name, "seed": SEED, "seconds": TRACED_SECONDS, "trace": 1}
        metrics = run.run_worker(cfg, env)["metrics"]
        for key, value in metrics.items():
            shown = key.endswith(".us_per_call") or key in (
                "cgraph.census.vertices_per_s",
                "pauli.to_dense.distinct_ratio",
                "trace.overhead_s",
            )
            if shown and value:
                rows.append(f"| {name} | `{key}` | {value:.4g} |")
    return rows


def main() -> None:
    env = run.child_env()
    sections = [
        ("Machine", machine()),
        ("`reproduce` targets (one run each, `--threads 1`, interpreter start-up included)", reproduce_times(env)),
        (f"Thread reference ({THREAD_SECONDS} s at each setting, median per command, seed {SEED})", thread_reference(env)),
        (f"Traced run ({TRACED_SECONDS} s, seed {SEED})", traced_figures(env)),
    ]
    for title, lines in sections:
        print(f"### {title}\n")
        print("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
