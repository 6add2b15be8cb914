"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Each test prints a single pass line with the measured quantities once its
assertions hold, so `pytest -v -rA tests/test_acceptance.py` reads as a
checklist.  Sample counts are fixed; nothing here adapts until it passes.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from designgap import (
    bounds,
    cgraph,
    cli,
    experiments,
    groups,
    moments,
    pauli,
)
from designgap.rng import sample_stream

from conftest import (
    apply_two_copy,
    brickwork_probability_reference,
    envelope_threshold,
    fresh_stream,
    invariant_form_check,
    invariant_state,
    matchgate_form_2,
)


def _ok(k, msg):
    print(f"criterion {k}: PASS - {msg}")


def _within(value, target, stderr, factor=5, floor=1e-12):
    return abs(value - target) <= factor * max(stderr, floor)


def _haar_side_matches_the_oracle(cfg, conjugate: bool = False, count: int = 64) -> float:
    """The first ``count`` Haar samples of a dense run: each the block of one of its stream by
    bytes, and within 1e-12 of the two-copy oracle; returns the largest gap."""
    adj = groups.parse_adjacency(cfg.ensemble.adjacency, cfg.n)
    cone = groups.lightcone(pauli.support(cfg.perturbation), cfg.ensemble.depth, adj)
    haar = experiments._depth_dense(cfg, adj, cone).haar
    _, oracle = brickwork_probability_reference(cfg, conjugate)
    block = haar([fresh_stream(cfg.seed, cfg.samples + i) for i in range(count)])
    worst = 0.0
    for i in range(count):
        assert block[i].tobytes() == haar([fresh_stream(cfg.seed, cfg.samples + i)])[0].tobytes()
        worst = max(worst, abs(float(block[i]) - oracle(fresh_stream(cfg.seed, cfg.samples + i))))
    assert worst <= 1e-12
    return worst


def test_criterion_01_matchgate_depth_experiment():
    t0 = time.perf_counter()
    cfg = experiments.depth_config("matchgate", 4, samples=20000, seed=7)
    res = experiments.run_depth_discrimination(cfg)
    elapsed = time.perf_counter() - t0
    assert res.lightcone_confined
    assert res.shallow_max_deviation < 1e-9
    assert _within(res.p_haar.mean, 5 / 14, res.p_haar.stderr)
    bound_err = 2 * math.hypot(res.p_shallow.stderr, res.p_haar.stderr)
    assert _within(res.mc_bound, 9 / 7, bound_err)
    assert res.analytic_bound == float(Fraction(9, 7))
    assert elapsed < 120
    _ok(1, f"p_haar {res.p_haar.mean:.5f} ~ 5/14, mc_bound {res.mc_bound:.5f} ~ 9/7, "
           f"{elapsed:.0f}s single-threaded")


def test_criterion_02_orthogonal_experiment():
    cfg = experiments.depth_config("orthogonal", 3, samples=4000, seed=19)
    assert cfg.region == (0, 1)
    res = experiments.run_depth_discrimination(cfg)
    assert _within(res.p_haar.mean, 9 / 35, res.p_haar.stderr)
    assert res.analytic_bound == float(Fraction(52, 35))
    p = bounds.exact_haar_povm_probability("orthogonal", 8, 4)
    assert p == Fraction(9, 35)
    assert bounds.discrimination_bound(1, p) == bounds.orthogonal_bound(8, 4)
    gap = _haar_side_matches_the_oracle(cfg)
    _ok(2, f"p_haar {res.p_haar.mean:.5f} ~ 9/35, bound 52/35 exact identity holds; "
           f"Haar samples within {gap:.1e} of the two-copy oracle")


def test_criterion_03_symplectic_experiment_and_weingarten():
    cfg = experiments.depth_config("symplectic", 3, samples=4000, seed=23)
    res = experiments.run_depth_discrimination(cfg)
    assert _within(res.p_haar.mean, 5 / 27, res.p_haar.stderr)
    assert res.analytic_bound == float(Fraction(44, 27))
    assert bounds.exact_haar_povm_probability("symplectic", 8, 4) == Fraction(5, 27)
    gap = _haar_side_matches_the_oracle(cfg)
    worst = {}
    for kind in ("orthogonal", "symplectic"):
        for n, M in ((2, 3000), (3, 1200)):
            closed = moments.second_moment_closed_form(kind, n)
            G = groups.group_spec(kind, n)
            V = pauli.to_dense(pauli.PauliString(n, 0, 1))
            mean, err = moments.mc_second_moment_matrix(G, V, M, seed=33)
            dev = np.abs(mean - closed)
            allowed = 5 * np.maximum(err, 1e-12)
            assert np.all(dev <= allowed), f"{kind} d={1 << n} entrywise mismatch"
            worst[(kind, 1 << n)] = float((dev / allowed).max())
    _ok(3, f"p_haar {res.p_haar.mean:.5f} ~ 5/27, Haar samples within {gap:.1e} of the two-copy oracle; "
           f"weingarten entrywise ok, worst dev/allowed {max(worst.values()):.2f}")


def test_criterion_04_commutator_graph_census():
    for n in (2, 3, 4):
        comps = sorted(cgraph.census(groups.matchgate_standard_set(n)),
                       key=lambda c: pauli.majorana_count(c.representative))
        assert [c.size for c in comps] == [math.comb(2 * n, k) for k in range(2 * n + 1)]
    for n in (4, 6):
        V = experiments.default_perturbation("matchgate", n)
        assert pauli.majorana_count(V) == n - 1
        r, _ = cgraph.r_fraction(V, groups.matchgate_standard_set(n), experiments.default_region(n))
        assert r == Fraction(math.comb(2 * n - 2, n - 1), math.comb(2 * n, n - 1))
    _ok(4, "census sizes C(2n,k) at n=2,3,4; weight and r_fraction exact at n=4,6")


def test_criterion_05_johnson_graph_structure():
    for n in (3, 4):
        P = experiments.gatecount_perturbation(n)
        S = groups.matchgate_full_set(n)
        sizes = np.cumsum([level.size for level in cgraph.component(P, S).levels]).tolist()
        assert sizes == [bounds.johnson_ball_size(n, N) for N in range(len(sizes))]
        assert sizes[-1] == math.comb(2 * n, n)
    for n in (2, 3):
        P = experiments.gatecount_perturbation(n)
        full = cgraph.diameter(cgraph.component(P, groups.matchgate_full_set(n)),
                               groups.matchgate_full_set(n), mode="exact")
        std = cgraph.diameter(cgraph.component(P, groups.matchgate_standard_set(n)),
                              groups.matchgate_standard_set(n), mode="exact")
        assert (full.value, full.mode) == (n, "exact")
        assert (std.value, std.mode) == (n * n, "exact")
    _ok(5, "ball sizes are cumulative C(n,k)^2; diameters n (full) and n^2 (standard)")


def test_criterion_06_theorem_two_experiment():
    cfg = experiments.gatecount_config(3, samples=3000, seed=2, gates=1)
    res = experiments.run_gatecount_discrimination(cfg)
    assert res.shallow_max_deviation < 1e-9
    assert abs(res.p_shallow.mean - 1.0) < 1e-9
    assert _within(res.p_haar.mean, 0.5, res.p_haar.stderr)
    G = groups.group_spec("matchgate", 3)
    S = groups.generator_set("matchgate", 3)
    spread = moments.haar_spread_uniformity(G, S, pauli.PauliString(3, 0, 1), 3000, seed=2)
    assert spread.component_size == 15
    for est in spread.masses:
        assert _within(est.mean, 1 / 15, est.stderr)
    assert spread.off_component_max < 1e-9
    _ok(6, f"N=1 ball keeps 1, haar {res.p_haar.mean:.4f} ~ 1/2; spread ~ 1/15 "
           f"with off-component mass {spread.off_component_max:.1e}")


def test_criterion_07_gate_count_formulas():
    grid = (2.1, 2.5, 3, 4, 5, 8, 16, 64, 200)
    assert all(bounds.gatecount_rate(c) < 1.0 for c in grid)
    n0 = envelope_threshold(3, 60)
    for n in range(n0, 61, 3):
        exact, _ = bounds.matchgate_gatecount_ratio(n, 3)
        assert float(exact) <= bounds.gatecount_envelope(n, 3)
    halves = {}
    for n in (2, 3):
        P = experiments.gatecount_perturbation(n)
        S = groups.matchgate_standard_set(n)
        ball = cgraph.component(P, S, radius=n * n // 2 - 1).size
        comp = cgraph.component(P, S).size
        assert 2 * ball < comp
        halves[n] = f"{ball}/{comp}"
    _ok(7, f"f(c)<1 on grid, exact<=envelope from n={n0}, midpoint balls {halves}")


def test_criterion_08_mixed_unitary():
    haar = moments.mixed_unitary_commutant_dimension("haar_unitary", d=4, M=4000, seed=8)
    assert _within(haar.mean, 2.0, haar.stderr)
    cliff = moments.mixed_unitary_commutant_dimension("clifford_enumeration", n=1)
    assert abs(cliff.mean - 2.0) < 1e-12 and cliff.stderr == 0.0
    pauli_dim = moments.mixed_unitary_commutant_dimension("pauli_enumeration", n=1)
    assert abs(pauli_dim.mean - 4.0) < 1e-12 and pauli_dim.stderr == 0.0
    G = groups.group_spec("mixed_unitary", 2)
    cfg = experiments.ExperimentConfig(
        G, 2, pauli.PauliString(2, 0, 1), (0,), experiments.brickwork(0), 2500, 8
    )
    res = experiments.run_mixed_unitary_discrimination(cfg)
    assert _within(res.p_haar.mean, 0.2, res.p_haar.stderr)
    gap = _haar_side_matches_the_oracle(cfg, conjugate=True)
    fourth = moments.mixed_unitary_fs(4, 3000, seed=8)
    assert _within(fourth.mean, 2.0, fourth.stderr)
    _ok(8, f"commutant dims {haar.mean:.3f}/2/4, k=1 p_haar {res.p_haar.mean:.4f} ~ 0.2 "
           f"(Haar samples within {gap:.1e} of the two-copy oracle), E|TrU^2|^2 {fourth.mean:.3f} ~ 2")


def test_criterion_09_frobenius_schur_indicators():
    targets = {"unitary": 0.0, "orthogonal": 1.0, "symplectic": -1.0}
    for n in (2, 3):
        for kind, expected in targets.items():
            est = moments.frobenius_schur(groups.group_spec(kind, n), M=2500, seed=14)
            assert _within(est.mean, expected, est.stderr, floor=1e-6), (kind, n)
    for n, expected in ((2, -1.0), (4, 1.0)):
        G = groups.group_spec("matchgate", n)
        est = moments.frobenius_schur(G, moments.even_parity_projector(n), M=2500, seed=14)
        assert _within(est.mean, expected, est.stderr), n
    _ok(9, "indicators 0/+1/-1 at d=4,8; matchgate parity sector -1 at n=2, +1 at n=4")


def test_criterion_10_invariant_form_suite():
    for n in range(2, 9):
        for form in (groups.matchgate_form_1(n), matchgate_form_2(n)):
            assert invariant_form_check(form, groups.matchgate_standard_set(n))
            assert invariant_form_check(form, groups.matchgate_full_set(n))
    worst = 0.0
    for n in (2, 3):
        checks = [
            ("matchgate", groups.matchgate_form_1(n)),
            ("matchgate", matchgate_form_2(n)),
            ("orthogonal", groups.orthogonal_form(n)),
            ("symplectic", groups.symplectic_form(n)),
        ]
        for kind, form in checks:
            G = groups.group_spec(kind, n)
            psi = invariant_state(form, n)
            for k in range(100):
                U = groups.sample_haar(G, sample_stream(1000 + n, k))
                moved = apply_two_copy(U, U, psi)
                worst = max(worst, float(np.max(np.abs(moved - psi))))
    assert worst < 1e-10
    _ok(10, f"forms invariant for n=2..8; state deviation max {worst:.1e} over 100-sample runs")


def test_criterion_11_reproduce_determinism(capsys):
    outputs = {}
    for target in ("table1", "eq6", "eq9", "symplectic", "cor4",
                   "thm2-matchgate", "appendixC3", "appendixD", "propC5"):
        runs = []
        for threads in ("1", "1", "3"):
            code = cli.main(["reproduce", "--id", target, "--threads", threads])
            captured = capsys.readouterr()
            assert code == 0, f"{target} exited {code}"
            runs.append(captured.out)
        assert runs[0] == runs[1] == runs[2], f"{target} output varies"
        summary = json.loads(runs[0].strip().splitlines()[-1])
        assert summary["pass"] is True
        outputs[target] = summary["checks"]
    with capsys.disabled():
        _ok(11, f"9 targets byte-identical across reruns and threads; checks {outputs}")
