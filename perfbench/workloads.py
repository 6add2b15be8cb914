"""The benchmark's workloads: fixed lists of designgap CLI commands.

A workload is one round of commands.  Every command in a round gets its own
CLI seed, derived from the benchmark's ``--seed`` (the census and the Clifford
enumeration accept it and draw nothing), so the same benchmark seed gives the
same inputs and every round of a run repeats the same work.  Each
command names the correctness check (in ``checks.py``) its output must pass.
Sample counts are sized so that every command takes a visible share of its
round on a 2-core machine at ``--threads 1``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check that its stdout must pass."""

    label: str
    argv: tuple[str, ...]
    check: str


# (label, argv without --seed/--threads, check)
_MATCHGATE = (
    ("depth-matchgate-n4", "discriminate --experiment depth --group matchgate --n 4 --samples 400", "depth"),
    ("depth-matchgate-n6", "discriminate --experiment depth --group matchgate --n 6 --samples 80", "depth"),
    ("gatecount-matchgate-n4", "discriminate --experiment gate-count --n 4 --gates 2 --samples 300", "gate-count"),
)

_DENSE = (
    ("depth-orthogonal-n5", "discriminate --experiment depth --group orthogonal --n 5 --samples 600", "depth"),
    ("depth-symplectic-n5", "discriminate --experiment depth --group symplectic --n 5 --samples 300", "depth"),
    ("mixed-unitary-n4", "discriminate --experiment mixed-unitary --n 4 --samples 1000", "mixed-unitary"),
)

_CENSUS = (
    ("census-matchgate-n9", "graph --group matchgate --n 9 --census", "census"),
    ("clifford-commutant-n2", "moments --quantity mixed-commutant --source clifford_enumeration --n 2", "clifford-commutant"),
    ("weingarten-orthogonal-n3", "moments --quantity weingarten-check --group orthogonal --n 3 --samples 3000", "weingarten"),
    ("weingarten-symplectic-n3", "moments --quantity weingarten-check --group symplectic --n 3 --samples 1000", "weingarten"),
    ("fs-orthogonal-n3", "fs-indicator --group orthogonal --n 3 --samples 4000", "fs-indicator"),
    ("fs-symplectic-n3", "fs-indicator --group symplectic --n 3 --samples 1000", "fs-indicator"),
)

WORKLOADS = {
    "matchgate-experiments": _MATCHGATE,
    "dense-depth": _DENSE,
    "census-moments": _CENSUS,
}


def commands(workload: str, seed: int, threads: int = 1) -> list[Command]:
    """The round of commands for a workload and benchmark seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    if not 0 <= seed < 2**40:
        raise ValueError(f"seed must be in [0, 2**40), got {seed}")
    out = []
    for index, (label, text, check) in enumerate(WORKLOADS[workload]):
        argv = text.split() + ["--seed", str(1000 * seed + index), "--threads", str(threads)]
        out.append(Command(label, tuple(argv), check))
    return out
