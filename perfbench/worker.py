"""Runs one workload in this fresh interpreter and prints one JSON line.

Usage (``run.py`` and ``reference.py`` start it; it is not meant for direct use):

    python3 perfbench/worker.py '{"root": ..., "workload": ..., "seed": ...,
                                  "seconds": ..., "trace": 0|1, "threads": 1}'

Each round re-imports the designgap package, so that module-level caches
start empty as they do in a fresh CLI process, and then calls
``designgap.cli.main`` once per command with stdout and stderr captured.
Rounds repeat until ``seconds`` have passed, so a run always attempts whole
rounds.  With ``trace`` 1 the rounds alternate untraced and traced; the
traced rounds give the per-layer numbers and the untraced ones the tracing
overhead.  Every command's stdout is checked, and must be byte-identical in
every round of the run.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLER_KEYS = {
    "groups.sample_haar": ("matchgate.n4", "matchgate.n6", "orthogonal.n5", "symplectic.n5", "orthogonal.n3", "symplectic.n3"),
    "groups.sample_shallow": ("matchgate.n4", "matchgate.n6", "orthogonal.n5", "symplectic.n5", "mixed_unitary.n4"),
}
CALL_AND_SELF = (
    "groups.sample_haar",
    "groups.sample_shallow",
    "pauli.to_dense",
    "pauli.trace_with",
    "densesim.apply_two_copy",
    "densesim.complement_bell_overlap",
    "densesim.embed",
)
CALLS = (
    "groups.haar_unitary",
    "pauli.from_text",
    "rng.sample_stream",
    "experiments.pauli_spread_mass",
)
PER_CALL = ("pauli.to_dense", "densesim.apply_two_copy", "densesim.complement_bell_overlap", "densesim.embed")
MODULE_SELF = ("pauli", "cgraph", "densesim", "groups", "moments", "rng", "experiments", "cli", "bounds")


def fresh_package():
    """Import designgap anew, dropping every module of an earlier import.

    The dropped modules hold reference cycles (functions and their globals),
    so they and their caches are collected here; otherwise each round's
    caches would stay alive and peak memory would grow with the round count.
    """
    for name in [m for m in sys.modules if m == "designgap" or m.startswith("designgap.")]:
        del sys.modules[name]
    gc.collect()
    importlib.import_module("designgap.cli")
    return sys.modules["designgap"]


def run_round(cmds, tracer=None):
    """Run one round; returns per-command (seconds, exit code, stdout, stderr)."""
    package = fresh_package()
    if tracer is not None:
        tracer.install(package)
    cli = package.cli
    out = []
    for cmd in cmds:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc(file=stderr)
                code = -1
            elapsed = time.perf_counter() - start
        out.append((elapsed, code, stdout.getvalue(), stderr.getvalue()))
    return out


def layer_metrics(t: tracing.Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    m: dict[str, float] = {}
    for fn in CALL_AND_SELF:
        m[f"{fn}.calls"] = t.calls[fn]
        m[f"{fn}.self_s"] = t.self_s[fn]
    for fn in CALLS:
        m[f"{fn}.calls"] = t.calls[fn]
    for fn, keys in SAMPLER_KEYS.items():
        for key in keys:
            calls = t.by_key_calls[f"{fn}.{key}"]
            m[f"{fn}.{key}.us_per_call"] = 1e6 * t.by_key_s[f"{fn}.{key}"] / calls if calls else 0.0
    for fn in PER_CALL:
        m[f"{fn}.us_per_call"] = 1e6 * t.total_s[fn] / t.calls[fn] if t.calls[fn] else 0.0
    calls = t.calls["pauli.to_dense"]
    m["pauli.to_dense.distinct_ratio"] = len(t.distinct_inputs["pauli.to_dense"]) / calls if calls else 0.0
    m["groups.enumerate_clifford.self_s"] = t.self_s["groups.enumerate_clifford"]
    m["cgraph.census.vertices"] = t.census_vertices
    census_s = t.total_s["cgraph.census"]
    m["cgraph.census.vertices_per_s"] = t.census_vertices / census_s if census_s else 0.0
    for short in MODULE_SELF:
        m[f"{short}.self_s"] = t.module_self_s(short)
    return m


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".vertices", ".distinct_ratio"))


def write_spans(path: Path, t: tracing.Tracer) -> None:
    """One traced round's spans as gzipped tab-separated lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((s[3] for s in t.spans), default=0.0)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("span\tparent\tname\tstart_us\tduration_us\n")
        for span_id, parent, name, start, end in sorted(t.spans):
            fh.write(f"{span_id}\t{parent}\t{name}\t{1e6 * (start - origin):.1f}\t{1e6 * (end - start):.1f}\n")


def main(cfg: dict) -> dict:
    sys.path.insert(0, str(Path(cfg["root"]) / "src"))
    import numpy.linalg  # noqa: F401  (loaded once, before timing, like any CLI process)

    cmds = workloads.commands(cfg["workload"], cfg["seed"], cfg.get("threads", 1))
    traced_mode = bool(cfg["trace"])
    plain: list[list] = []
    traced: list[list] = []
    per_round: list[dict[str, float]] = []  # layer metrics of each traced round
    errors: list[str] = []  # wrong output: the run is not correct
    failures: list[str] = []  # commands that did not exit 0
    attempted = 0
    first_stdout: list[str | None] = [None] * len(cmds)
    draws = [0] * len(cmds)
    started = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced_mode and len(plain) > len(traced) else None
        results = run_round(cmds, tracer)
        for i, (cmd, (_, code, stdout, stderr)) in enumerate(zip(cmds, results)):
            attempted += 1
            if code != 0:
                failures.append(f"{cmd.label}: exit {code}: {stderr.strip()[-500:]}")
            elif first_stdout[i] is None:
                first_stdout[i] = stdout
                bad, draws[i] = checks.check(cmd.check, cmd.argv, stdout)
                errors.extend(f"{cmd.label}: {b}" for b in bad)
            elif stdout != first_stdout[i]:
                errors.append(f"{cmd.label}: stdout differs between rounds of one run")
        if tracer is None:
            plain.append(results)
        else:
            traced.append(results)
            per_round.append(layer_metrics(tracer))
            if len(traced) == 1 and cfg.get("spans_path"):
                write_spans(Path(cfg["spans_path"]), tracer)
        if time.perf_counter() - started >= cfg["seconds"] and (not traced_mode or len(plain) == len(traced)):
            break

    def median_seconds(rounds):
        return [statistics.median(r[i][0] for r in rounds) for i in range(len(cmds))]

    out = {"attempted": attempted, "failed": len(failures), "errors": errors, "failures": failures}
    out["stdout_sha256"] = {
        c.label: hashlib.sha256(s.encode()).hexdigest() if s is not None else None for c, s in zip(cmds, first_stdout)
    }
    plain_s = median_seconds(plain)
    counted = [i for i, c in enumerate(cmds) if c.check != "census"]
    if not traced_mode:
        out["metrics"] = {
            "wall_s": sum(plain_s),
            "samples_per_s": sum(draws[i] for i in counted) / sum(plain_s[i] for i in counted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out["command_s"] = {c.label: s for c, s in zip(cmds, plain_s)}
        out["round_s"] = [[r[i][0] for i in range(len(cmds))] for r in plain]
        return out

    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if is_count(name) and len(set(values)) > 1:
            errors.append(f"count {name} differs between traced rounds: {values}")
        metrics[name] = values[0] if is_count(name) else statistics.median(values)
    stream_draws = sum(draws[i] for i, c in enumerate(cmds) if c.check not in ("census", "clifford-commutant"))
    if metrics["rng.sample_stream.calls"] != stream_draws:
        errors.append(f"rng.sample_stream.calls {metrics['rng.sample_stream.calls']} != draws {stream_draws}")
    # adjacent untraced and traced rounds see the same machine, so pair them
    pairs = [sum(t[0] for t in tr) - sum(p[0] for p in pl) for pl, tr in zip(plain, traced)]
    metrics["trace.overhead_s"] = statistics.median(pairs)
    out["metrics"] = metrics
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
