"""Tests of the benchmark's own checks and tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench

Each check must pass a correct record and fail the same record with one
field perturbed, so that a wrong program output cannot pass unnoticed.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dump(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _discrimination(experiment, group, n, samples, p_haar, region, perturbation, gates=None):
    stderr = 0.01
    return {
        "schema": "v1",
        "experiment": experiment,
        "group": group,
        "n": n,
        "params": {
            "depth": None if gates else 1,
            "gates": gates,
            "region": region,
            "perturbation": perturbation,
            "samples": samples,
            "shot_mode": False,
            "lightcone_confined": True,
            "shallow_max_deviation": 2e-15,
        },
        "p_shallow": 0.9999999999999997,
        "p_shallow_stderr": 3e-17,
        "p_haar": p_haar + 0.5 * stderr,
        "p_haar_stderr": stderr,
        "mc_bound": 2 * (0.9999999999999997 - (p_haar + 0.5 * stderr)),
        "analytic_bound": None,
        "analytic_ref": None,
        "seed": 0,
    }


def _argv(text):
    return tuple(text.split()) + ("--seed", "0", "--threads", "1")


GOOD = {
    "depth-matchgate-n4": (
        "depth",
        _argv("discriminate --experiment depth --group matchgate --n 4 --samples 400"),
        [_discrimination("depth", "matchgate", 4, 400, 5 / 14, [0, 1, 2], "IXII")],
    ),
    "depth-matchgate-n6": (
        "depth",
        _argv("discriminate --experiment depth --group matchgate --n 6 --samples 80"),
        [_discrimination("depth", "matchgate", 6, 80, 7 / 22, [0, 1, 2, 3, 4], "IIXIII")],
    ),
    "gate-count": (
        "gate-count",
        _argv("discriminate --experiment gate-count --n 4 --gates 2 --samples 300"),
        [_discrimination("gate-count", "matchgate", 4, 300, 53 / 70, [0, 1, 2, 3], "ZZII", gates=2)],
    ),
    "orthogonal": (
        "depth",
        _argv("discriminate --experiment depth --group orthogonal --n 5 --samples 600"),
        [_discrimination("depth", "orthogonal", 5, 600, 270 / 1054, [0, 1, 2, 3], "ZIIII")],
    ),
    "symplectic": (
        "depth",
        _argv("discriminate --experiment depth --group symplectic --n 5 --samples 300"),
        [_discrimination("depth", "symplectic", 5, 300, 238 / 990, [0, 1, 2, 3], "ZIIII")],
    ),
    "mixed-unitary": (
        "mixed-unitary",
        _argv("discriminate --experiment mixed-unitary --n 4 --samples 1000"),
        [_discrimination("mixed-unitary", "mixed_unitary", 4, 1000, 1008 / 4080, [0, 1, 2], "ZIII")],
    ),
    "census": (
        "census",
        _argv("graph --group matchgate --n 3 --census"),
        [{"schema": "v1", "type": "component", "size": math.comb(6, k)} for k in range(7)],
    ),
    "clifford": (
        "clifford-commutant",
        _argv("moments --quantity mixed-commutant --source clifford_enumeration --n 2"),
        [{"schema": "v1", "quantity": "mixed-commutant", "mean": 1.9999999999999976, "stderr": 0, "samples": 11520}],
    ),
    "fs": (
        "fs-indicator",
        _argv("fs-indicator --group symplectic --n 3 --samples 1000"),
        [{"schema": "v1", "group": "symplectic", "n": 3, "mean": -0.98, "stderr": 0.03, "samples": 1000}],
    ),
    "weingarten": (
        "weingarten",
        _argv("moments --quantity weingarten-check --group orthogonal --n 3 --samples 3000"),
        [
            {
                "schema": "v1",
                "group": "orthogonal",
                "n": 3,
                "alpha": "-1/35",
                "beta": "4/35",
                "gamma": "4/35",
                "entrywise_pass": True,
                "samples": 3000,
            }
        ],
    ),
}


def _perturb(records, path, value):
    records = copy.deepcopy(records)
    target = records[0]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    if path in (("p_haar",), ("p_shallow",)):  # keep the bound consistent, so one check fires
        records[0]["mc_bound"] = 2 * (records[0]["p_shallow"] - records[0]["p_haar"])
    return records


# (case, field path, new value, words the failure message must contain)
PERTURBED = [
    ("depth-matchgate-n4", ("p_shallow",), 1 - 1e-6, "p_shallow"),
    ("depth-matchgate-n4", ("params", "shallow_max_deviation"), 1e-6, "shallow_max_deviation"),
    ("depth-matchgate-n4", ("mc_bound",), lambda v: v + 1e-9, "mc_bound"),
    ("depth-matchgate-n4", ("p_haar",), lambda v: v + 0.06, "sigma"),
    ("depth-matchgate-n4", ("params", "region"), [0, 1], "region"),
    ("depth-matchgate-n4", ("params", "perturbation"), "XIII", "perturbation"),
    ("depth-matchgate-n4", ("params", "samples"), 399, "samples"),
    ("depth-matchgate-n6", ("p_haar",), lambda v: v - 0.06, "sigma"),
    ("gate-count", ("p_haar",), lambda v: v - 0.06, "sigma"),
    ("gate-count", ("params", "gates"), 1, "gates"),
    ("orthogonal", ("p_haar",), lambda v: v + 0.06, "sigma"),
    ("symplectic", ("p_haar",), lambda v: v - 0.06, "sigma"),
    ("symplectic", ("p_haar_stderr",), 0.0, "stderr"),
    ("mixed-unitary", ("p_haar",), lambda v: v + 0.06, "sigma"),
    ("clifford", ("mean",), 2 + 1e-8, "commutant"),
    ("clifford", ("samples",), 11519, "enumerated"),
    ("fs", ("mean",), 0.98, "sigma"),
    ("fs", ("samples",), 999, "samples"),
    ("weingarten", ("gamma",), "-4/35", "alpha, beta, gamma"),
    ("weingarten", ("alpha",), "-2/35", "alpha, beta, gamma"),
    ("weingarten", ("entrywise_pass",), False, "entrywise_pass"),
    ("weingarten", ("schema",), "v0", "schema"),
]


@pytest.mark.parametrize("case", sorted(GOOD))
def test_correct_record_passes(case):
    name, argv, records = GOOD[case]
    failures, draws = checks.check(name, argv, _dump(records))
    assert failures == []
    assert draws >= 0


@pytest.mark.parametrize("case,path,value,words", PERTURBED)
def test_perturbed_record_fails(case, path, value, words):
    name, argv, records = GOOD[case]
    failures, _ = checks.check(name, argv, _dump(_perturb(records, path, value)))
    assert len(failures) == 1 and words in failures[0], failures


@pytest.mark.parametrize(
    "sizes",
    [
        [1, 6, 15, 20, 15, 6, 1, 0],  # an extra empty component
        [1, 6, 15, 19, 16, 6, 1],  # right total, wrong sizes
        [1, 6, 15, 20, 15, 6],  # a component missing
    ],
)
def test_census_with_wrong_sizes_fails(sizes):
    name, argv, _ = GOOD["census"]
    records = [{"schema": "v1", "type": "component", "size": s} for s in sizes]
    assert checks.check(name, argv, _dump(records))[0]


def test_unparseable_or_extra_output_fails():
    name, argv, records = GOOD["fs"]
    assert checks.check(name, argv, "not json\n")[0]
    assert checks.check(name, argv, _dump(records * 2))[0]
    assert checks.check(name, argv, "")[0]


def test_draws_count_both_sides_of_a_discrimination():
    name, argv, records = GOOD["depth-matchgate-n4"]
    assert checks.check(name, argv, _dump(records))[1] == 800


def test_closed_forms_match_known_values():
    assert checks.matchgate_depth_probability(4) == Fraction(5, 14)
    assert checks.matchgate_depth_probability(6) == Fraction(7, 22)
    assert checks.gatecount_probability(4, 2) == Fraction(53, 70)
    assert checks.gatecount_probability(3, 1) == Fraction(1, 2)
    assert checks.orthogonal_probability(8, 4) == Fraction(9, 35)
    assert checks.symplectic_probability(8, 4) == Fraction(5, 27)
    assert checks.mixed_unitary_probability(4, 2) == Fraction(1, 5)
    assert checks.weingarten("orthogonal", 8) == (Fraction(-1, 35), Fraction(4, 35), Fraction(4, 35))
    assert checks.weingarten("symplectic", 8) == (Fraction(-1, 27), Fraction(4, 27), Fraction(-4, 27))


def test_closed_forms_agree_with_the_program_formulas():
    from designgap import bounds

    for n in (2, 3, 4, 5):
        d, d_L = 1 << n, 1 << (n - 1)
        assert checks.orthogonal_probability(d, d_L) == bounds.exact_haar_povm_probability("orthogonal", d, d_L)
        assert checks.symplectic_probability(d, d_L) == bounds.exact_haar_povm_probability("symplectic", d, d_L)
        assert checks.mixed_unitary_probability(d, d_L) == bounds.mixed_unitary_haar_probability(d, d_L)
    for n in (2, 4, 6, 8):
        assert 2 - 2 * checks.matchgate_depth_probability(n) == bounds.matchgate_depth_bound(n)


def test_commands_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.commands(workload, 7), workloads.commands(workload, 7)
        assert a == b
        assert a != workloads.commands(workload, 8)
    with pytest.raises(ValueError):
        workloads.commands("nope", 1)


def test_tracer_counts_calls_distinct_inputs_and_self_time():
    import designgap.cli  # noqa: F401
    import designgap

    tracer = tracing.Tracer()
    tracer.install(designgap)
    try:
        P = designgap.pauli.from_text("XZ")
        designgap.pauli.to_dense(P)
        designgap.pauli.to_dense(P)
        designgap.pauli.to_dense(designgap.pauli.from_text("ZX"))
        assert tracer.calls["pauli.from_text"] == 2
        assert tracer.calls["pauli.to_dense"] == 3
        assert len(tracer.distinct_inputs["pauli.to_dense"]) == 2
        G = designgap.groups.group_spec("matchgate", 2)
        designgap.groups.sample_haar(G, designgap.rng.sample_stream(0, 0))
        cfg = designgap.experiments.depth_config("orthogonal", 2, samples=3, seed=0)
        designgap.experiments.run_depth_discrimination(cfg)
    finally:
        for name in [m for m in sys.modules if m == "designgap" or m.startswith("designgap.")]:
            del sys.modules[name]
    assert tracer.calls["pauli.to_dense"] > 3  # the matchgate draw builds dense Paulis too
    assert tracer.calls["rng.sample_stream"] == 1 + 2 * 3
    assert tracer.by_key_calls["groups.sample_haar.matchgate.n2"] == 1
    # per-sample closures handed to rng are billed to the module that defined them
    assert tracer.calls["experiments.run_depth_discrimination.<locals>.haar_one"] == 3
    assert tracer.calls["experiments.run_depth_discrimination.<locals>.shallow_one"] == 3
    assert len(tracer.distinct_inputs["pauli.to_dense"]) < tracer.calls["pauli.to_dense"]
    haar = "groups.sample_haar"
    assert 0 < tracer.self_s[haar] < tracer.total_s[haar]
    spans = {s[0]: s for s in tracer.spans}
    for span_id, parent, name, start, end in tracer.spans:
        assert start <= end
        if parent:
            assert spans[parent][3] <= start and end <= spans[parent][4]
