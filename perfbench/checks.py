"""Correctness checks for the benchmark's CLI outputs.

Every expected value here is derived in this file from closed forms and exact
counts (``math.comb`` and ``fractions``), never from ``designgap.bounds`` or
from recorded output, so a fault in the program's own formulas still shows.
Monte Carlo estimates must lie within 5 standard errors (as the record
reports them) of the exact value.

``check(name, argv, stdout)`` returns ``(failures, draws)``: the list of
failed conditions (empty when the output is correct) and the number of group
elements the command evaluated, as its records report them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

SIGMAS = 5.0
SHALLOW_TOL = 1e-9
BOUND_TOL = 1e-12
COMMUTANT_TOL = 1e-9
# projective two-qubit Clifford group: |Sp(4, F_2)| * 2^4 = 720 * 16
CLIFFORD_2Q_COUNT = 11520


def _flag(argv, name: str) -> str | None:
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def matchgate_depth_probability(n: int) -> Fraction:
    """Haar retention for the mid-chain Majorana-weight n-1 perturbation."""
    return Fraction(math.comb(2 * n - 2, n - 1), math.comb(2 * n, n - 1))


def gatecount_probability(n: int, gates: int) -> Fraction:
    """Haar mass on the N-ball of a weight-n Majorana monomial (Johnson graph)."""
    ball = sum(math.comb(n, k) ** 2 for k in range(min(gates, n) + 1))
    return Fraction(ball, math.comb(2 * n, n))


def orthogonal_probability(d: int, d_L: int) -> Fraction:
    return Fraction(d_L * d_L + d_L - 2, (d + 2) * (d - 1))


def symplectic_probability(d: int, d_L: int) -> Fraction:
    return Fraction(d_L * d_L - d_L - 2, (d - 2) * (d + 1))


def mixed_unitary_probability(d: int, d_L: int) -> Fraction:
    d_C = d // d_L
    return Fraction(d_L * (d * d_L - d_C), d * (d * d - 1))


def weingarten(kind: str, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) = (-2/D, d/D, +-d/D), D = (d +- 2)(d -+ 1)."""
    if kind == "orthogonal":
        D = (d + 2) * (d - 1)
        return Fraction(-2, D), Fraction(d, D), Fraction(d, D)
    D = (d - 2) * (d + 1)
    return Fraction(-2, D), Fraction(d, D), Fraction(-d, D)


def _within_sigmas(failures, name, measured, stderr, exact) -> None:
    if not stderr > 0:
        failures.append(f"{name}: stderr {stderr!r} is not positive")
    elif abs(measured - float(exact)) > SIGMAS * stderr:
        failures.append(
            f"{name}: {measured!r} is more than {SIGMAS:g} sigma ({stderr!r}) from {exact} = {float(exact)!r}"
        )


def _expected_depth(group: str, n: int, d_L: int) -> tuple[str, Fraction]:
    """Default perturbation text and Haar retention for the depth experiments."""
    d = 1 << n
    if group == "matchgate":
        return "I" * (n // 2 - 1) + "X" + "I" * (n // 2), matchgate_depth_probability(n)
    text = "Z" + "I" * (n - 1)
    if group == "orthogonal":
        return text, orthogonal_probability(d, d_L)
    if group == "symplectic":
        return text, symplectic_probability(d, d_L)
    return text, mixed_unitary_probability(d, d_L)


def _check_discrimination(name, argv, rec, failures) -> int:
    n = int(_flag(argv, "--n"))
    samples = int(_flag(argv, "--samples"))
    params = rec["params"]
    if rec.get("n") != n or params.get("samples") != samples:
        failures.append(f"record n/samples {rec.get('n')}/{params.get('samples')} != requested {n}/{samples}")
        return 0
    ps, ph = rec["p_shallow"], rec["p_haar"]
    if abs(ps - 1.0) > SHALLOW_TOL:
        failures.append(f"p_shallow {ps!r} is not 1 within {SHALLOW_TOL:g}")
    if not 0.0 <= params["shallow_max_deviation"] <= SHALLOW_TOL:
        failures.append(f"shallow_max_deviation {params['shallow_max_deviation']!r} exceeds {SHALLOW_TOL:g}")
    want_bound = 2.0 * (_clamp(ps) - _clamp(ph))
    if abs(rec["mc_bound"] - want_bound) > BOUND_TOL:
        failures.append(f"mc_bound {rec['mc_bound']!r} != 2(p_shallow - p_haar) = {want_bound!r}")
    if name == "gate-count":
        gates = int(_flag(argv, "--gates"))
        if params.get("gates") != gates:
            failures.append(f"record gates {params.get('gates')} != requested {gates}")
        exact = gatecount_probability(n, gates)
    else:
        region = params["region"]
        if region != list(range(n - 1)):
            failures.append(f"region {region} is not the default 0..{n - 2}")
        perturbation, exact = _expected_depth(rec["group"], n, 1 << len(region))
        if params["perturbation"] != perturbation:
            failures.append(f"perturbation {params['perturbation']} is not the default {perturbation}")
    _within_sigmas(failures, "p_haar", ph, rec["p_haar_stderr"], exact)
    return 2 * samples


def _check_census(argv, records, failures) -> int:
    n = int(_flag(argv, "--n"))
    sizes = sorted(r["size"] for r in records if r.get("type") == "component")
    expected = sorted(math.comb(2 * n, k) for k in range(2 * n + 1))
    if sizes != expected:
        failures.append(f"census sizes {sizes} != C(2n, k) {expected}")
    if sum(sizes) != 4**n:
        failures.append(f"census sizes sum to {sum(sizes)}, not 4^n = {4**n}")
    return 0


def check(name: str, argv, stdout: str) -> tuple[list[str], int]:
    """Apply the named check to one command's stdout."""
    failures: list[str] = []
    try:
        records = _records(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON lines: {exc}"], 0
    if not records or any(r.get("schema") != "v1" for r in records):
        return [f"expected schema v1 records, got {len(records)} records"], 0
    if name == "census":
        return failures, _check_census(argv, records, failures)
    if len(records) != 1:
        return [f"expected one record, got {len(records)}"], 0
    rec = records[0]
    try:
        if name in ("depth", "mixed-unitary", "gate-count"):
            draws = _check_discrimination(name, argv, rec, failures)
        elif name == "clifford-commutant":
            draws = rec["samples"]
            if draws != CLIFFORD_2Q_COUNT:
                failures.append(f"enumerated {draws} Cliffords, not {CLIFFORD_2Q_COUNT}")
            if abs(rec["mean"] - 2.0) > COMMUTANT_TOL:
                failures.append(f"Clifford commutant {rec['mean']!r} is not 2 within {COMMUTANT_TOL:g}")
        elif name == "fs-indicator":
            draws = rec["samples"]
            exact = {"orthogonal": 1, "symplectic": -1}[rec["group"]]
            _within_sigmas(failures, "fs-indicator", rec["mean"], rec["stderr"], exact)
        elif name == "weingarten":
            draws = rec["samples"]
            d = 1 << rec["n"]
            got = tuple(Fraction(rec[k]) for k in ("alpha", "beta", "gamma"))
            want = weingarten(rec["group"], d)
            if got != want:
                failures.append(f"(alpha, beta, gamma) {got} != {want}")
            if rec["entrywise_pass"] is not True:
                failures.append("entrywise_pass is not true")
        else:
            raise ValueError(f"unknown check {name!r}")
        if name in ("fs-indicator", "weingarten") and draws != int(_flag(argv, "--samples")):
            failures.append(f"record samples {draws} != requested {_flag(argv, '--samples')}")
    except (KeyError, TypeError) as exc:
        return [f"record lacks or mistypes a field: {exc!r}"], 0
    return failures, draws
