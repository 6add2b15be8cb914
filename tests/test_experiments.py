"""Discrimination experiments: geometry defaults, exactness gates, bounds."""

import math
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    _confined,
    adjoint_majorana_matrix,
    apply_two_copy,
    ball_monomials,
    bell_state,
    bfs_reference,
    brickwork_probability_reference,
    brickwork_rows_reference,
    complement_bell_overlap,
    draw_factors_reference,
    finalize_reference,
    fresh_stream,
    gate_sequence_rotation_reference,
    gate_sequence_unitary_reference,
    gatecount_probability_reference,
    haar_special_orthogonal_reference,
    majorana_decomposition_reference,
    pauli_spread_mass,
    per_sample_rows,
    region_monomials,
    rotation_rows_reference,
    sample_shallow_rotation_reference,
    sample_shallow_stack,
    two_copy_shallow_p,
)
from designgap import bounds, cgraph, densesim, experiments, groups, moments, pauli, rng
from designgap.errors import BudgetError, InvariantError, ValidationError


class TestEnsembleSpec:
    def test_brickwork_depth_required(self):
        assert experiments.brickwork(3).depth == 3
        with pytest.raises(ValidationError):
            experiments.EnsembleSpec("brickwork")
        with pytest.raises(ValidationError):
            experiments.brickwork(-1)

    def test_gate_count_budget_required(self):
        assert experiments.gate_count(2).gates == 2
        with pytest.raises(ValidationError):
            experiments.EnsembleSpec("gate_count")
        with pytest.raises(ValidationError):
            experiments.gate_count(-3)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            experiments.EnsembleSpec("staircase", depth=1)


class TestExperimentConfig:
    def test_region_is_deduplicated_and_sorted(self):
        cfg = experiments.depth_config("orthogonal", 3, samples=1, seed=0, region=(1, 0, 1))
        assert cfg.region == (0, 1)

    def test_group_size_mismatch(self):
        G = groups.group_spec("orthogonal", 3)
        with pytest.raises(ValidationError):
            experiments.ExperimentConfig(
                G, 2, pauli.from_text("ZI"), (0,), experiments.brickwork(1), 10, 0
            )

    def test_perturbation_size_mismatch(self):
        with pytest.raises(ValidationError):
            experiments.depth_config("orthogonal", 3, samples=1, seed=0,
                                     perturbation=pauli.from_text("ZI"))

    def test_support_must_sit_inside_region(self):
        with pytest.raises(ValidationError):
            experiments.depth_config("orthogonal", 3, samples=1, seed=0,
                                     perturbation=pauli.from_text("IIZ"), region=(0, 1))

    def test_region_complement_nonempty(self):
        with pytest.raises(ValidationError):
            experiments.depth_config("orthogonal", 3, samples=1, seed=0, region=(0, 1, 2))

    def test_region_bounds_checked(self):
        with pytest.raises(ValidationError):
            experiments.depth_config("orthogonal", 3, samples=1, seed=0, region=(0, 7))

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            experiments.depth_config("orthogonal", 3, samples=0, seed=0)


class TestGeometryDefaults:
    def test_matchgate_perturbation_sits_mid_chain(self):
        assert pauli.to_text(experiments.default_perturbation("matchgate", 4)) == "IXII"
        assert pauli.to_text(experiments.default_perturbation("matchgate", 6)) == "IIXIII"
        with pytest.raises(ValidationError):
            experiments.default_perturbation("matchgate", 5)

    def test_other_kinds_use_z0(self):
        assert pauli.to_text(experiments.default_perturbation("orthogonal", 3)) == "ZII"
        assert pauli.to_text(experiments.default_perturbation("symplectic", 2)) == "ZI"

    def test_region_and_depth(self):
        assert experiments.default_region(4) == (0, 1, 2)
        assert experiments.default_depth("matchgate", 6) == 2
        assert experiments.default_depth("orthogonal", 5) == 3
        assert experiments.default_depth("orthogonal", 1) == 0

    def test_gatecount_perturbation_weight_is_n(self):
        for n in range(2, 8):
            V = experiments.gatecount_perturbation(n)
            assert pauli.majorana_count(V) == n
        assert pauli.to_text(experiments.gatecount_perturbation(3)) == "IXI"
        assert pauli.to_text(experiments.gatecount_perturbation(4)) == "ZZII"


class TestShallowExactnessGate:
    def test_unconfined_samples_are_not_checked(self):
        assert experiments._check_shallow_exactness(0.3, False) == 0.0

    def test_confined_samples_must_retain_everything(self):
        dev = experiments._check_shallow_exactness(1.0 - 1e-9, True)
        assert dev == pytest.approx(1e-9)
        with pytest.raises(RuntimeError):
            experiments._check_shallow_exactness(0.9, True)


def _leaky_update(real, row: int):
    """A cone update that loses a tenth of the norm of sample ``row`` of each block that holds it."""

    def leaky(A, g, i, j):
        A = real(A, g, i, j)
        if len(A) > row:
            A = A.copy()
            A[row] *= 0.9
        return A

    return leaky


class TestDepthExperiment:
    def test_matchgate_defaults_converge(self):
        cfg = experiments.depth_config("matchgate", 2, samples=400, seed=7)
        res = experiments.run_depth_discrimination(cfg)
        assert res.lightcone_confined
        assert res.shallow_max_deviation < experiments.SHALLOW_EXACTNESS_TOL
        assert abs(res.p_shallow.mean - 1.0) < 1e-12
        # component of X0 keeps half its vertices inside qubit 0
        assert abs(res.p_haar.mean - 0.5) <= 5 * res.p_haar.stderr
        assert res.analytic_bound == pytest.approx(1.0)
        assert res.analytic_reference == "region-ratio-bound/matchgate"
        assert res.mc_bound == pytest.approx(
            2 * (res.p_shallow.mean - res.p_haar.mean), abs=1e-12
        )

    def test_identity_perturbation_is_invariant(self):
        cfg = experiments.depth_config(
            "matchgate", 2, samples=5, seed=3, perturbation=pauli.identity(2)
        )
        res = experiments.run_depth_discrimination(cfg)
        assert res.p_haar.mean == pytest.approx(1.0, abs=1e-12)
        assert res.p_haar.stderr < 1e-12
        assert res.analytic_bound == pytest.approx(0.0)

    def test_orthogonal_reference_values(self):
        cfg = experiments.depth_config("orthogonal", 2, samples=500, seed=19)
        res = experiments.run_depth_discrimination(cfg)
        assert res.analytic_reference == "depth-bound/orthogonal"
        assert res.analytic_bound == pytest.approx(14 / 9)
        assert abs(res.p_shallow.mean - 1.0) < 1e-12
        assert abs(res.p_haar.mean - 2 / 9) <= 5 * res.p_haar.stderr

    def test_symplectic_reference_values(self):
        cfg = experiments.depth_config("symplectic", 3, samples=500, seed=23)
        res = experiments.run_depth_discrimination(cfg)
        assert res.analytic_reference == "depth-bound/symplectic"
        assert res.analytic_bound == pytest.approx(44 / 27)
        assert abs(res.p_haar.mean - 5 / 27) <= 5 * res.p_haar.stderr

    def test_symplectic_analytic_needs_form_qubit_in_region(self):
        cfg = experiments.depth_config("symplectic", 3, samples=2, seed=1, region=(0,))
        res = experiments.run_depth_discrimination(cfg)
        assert res.analytic_bound is None
        assert res.analytic_reference is None

    def test_deep_lightcone_spills_out(self):
        # X on qubit 1 reaches qubit 3 in the third layer, which applies (2, 3) again
        cfg = experiments.depth_config("matchgate", 4, samples=40, seed=5, depth=3)
        res = experiments.run_depth_discrimination(cfg)
        assert not res.lightcone_confined
        assert res.p_shallow.mean < 1.0

    @pytest.mark.parametrize("kind", ["matchgate", "orthogonal"])
    def test_the_brickwork_schedule_confines_x_on_qubit_one_at_depth_two(self, monkeypatch, kind):
        # the layers apply (0, 1), (2, 3) and then (1, 2): the cone of X on qubit 1 is (0, 1, 2),
        # though two graph-distance expansions would reach qubit 3
        cfg = experiments.depth_config(
            kind, 4, samples=40, seed=5, depth=2, region=(0, 1, 2), perturbation=pauli.from_text("IXII")
        )
        res = experiments.run_depth_discrimination(cfg)
        assert res.lightcone_confined
        assert abs(res.p_shallow.mean - 1.0) <= experiments.SHALLOW_EXACTNESS_TOL
        assert res.shallow_max_deviation <= experiments.SHALLOW_EXACTNESS_TOL
        if kind == "orthogonal":
            # the per-sample exactness check applies: a sample whose cone update leaks stops the run
            monkeypatch.setattr(experiments, "_conjugate_on_axes", _leaky_update(experiments._conjugate_on_axes, 0))
            with pytest.raises(InvariantError, match="confined shallow sample"):
                experiments.run_depth_discrimination(cfg)

    def test_shot_mode_agrees_with_exact_mode(self):
        exact = experiments.run_depth_discrimination(
            experiments.depth_config("matchgate", 2, samples=800, seed=13)
        )
        shots = experiments.run_depth_discrimination(
            experiments.depth_config("matchgate", 2, samples=800, seed=13, shot_mode=True)
        )
        spread = 5 * (exact.p_haar.stderr + shots.p_haar.stderr)
        assert abs(exact.p_haar.mean - shots.p_haar.mean) <= spread

    def test_needs_brickwork_and_a_form(self):
        cfg = experiments.gatecount_config(2, samples=2, seed=0)
        with pytest.raises(ValidationError):
            experiments.run_depth_discrimination(cfg)
        G = groups.group_spec("unitary", 2)
        bad = experiments.ExperimentConfig(
            G, 2, pauli.from_text("ZI"), (0,), experiments.brickwork(0), 2, 0
        )
        with pytest.raises(ValidationError):
            experiments.run_depth_discrimination(bad)


class TestMixedUnitaryExperiment:
    def test_reference_probability(self):
        G = groups.group_spec("mixed_unitary", 2)
        cfg = experiments.ExperimentConfig(
            G, 2, pauli.from_text("ZI"), (0,), experiments.brickwork(0), 600, 41
        )
        res = experiments.run_mixed_unitary_discrimination(cfg)
        assert abs(res.p_shallow.mean - 1.0) < 1e-12
        assert abs(res.p_haar.mean - 0.2) <= 5 * res.p_haar.stderr
        assert res.analytic_bound == pytest.approx(8 / 5)
        assert res.analytic_reference == "depth-bound/mixed-unitary"

    def test_non_z_perturbation_has_no_reference(self):
        G = groups.group_spec("mixed_unitary", 2)
        cfg = experiments.ExperimentConfig(
            G, 2, pauli.from_text("XI"), (0,), experiments.brickwork(0), 10, 2
        )
        res = experiments.run_mixed_unitary_discrimination(cfg)
        assert res.analytic_bound is None

    def test_group_kind_checked(self):
        cfg = experiments.depth_config("matchgate", 2, samples=2, seed=0)
        with pytest.raises(ValidationError):
            experiments.run_mixed_unitary_discrimination(cfg)

    def test_needs_brickwork(self):
        G = groups.group_spec("mixed_unitary", 2)
        cfg = experiments.ExperimentConfig(
            G, 2, pauli.from_text("ZI"), (0, 1), experiments.gate_count(1), 2, 0
        )
        with pytest.raises(ValidationError):
            experiments.run_mixed_unitary_discrimination(cfg)

    def test_gate_count_needs_an_allowed_set(self):
        # a group carries no generator set, so the ensemble must name the gates it draws
        G = groups.group_spec("matchgate", 2)
        cfg = experiments.ExperimentConfig(G, 2, pauli.from_text("ZZ"), (0, 1), experiments.gate_count(1), 2, 0)
        with pytest.raises(ValidationError, match="allowed generator set"):
            experiments.run_gatecount_discrimination(cfg)


class TestSpreadMass:
    """The dense gate-count reference's ball mass."""

    def test_identity_keeps_all_mass_on_the_start(self):
        P = pauli.from_text("ZI")
        U = np.eye(4, dtype=np.complex128)
        assert pauli_spread_mass(U, P, [pauli.to_key(P)]) == pytest.approx(1.0)
        other = pauli.from_text("XX")
        assert pauli_spread_mass(U, P, [pauli.to_key(other)]) == pytest.approx(0.0)

    def test_group_samples_stay_on_the_component(self, rng):
        from designgap.rng import sample_stream

        G = groups.group_spec("matchgate", 2)
        P = experiments.gatecount_perturbation(2)
        comp = cgraph.component(P, groups.matchgate_full_set(2))
        for k in range(5):
            U = groups.sample_haar(G, sample_stream(99, k))
            mass = pauli_spread_mass(U, P, comp.keys.tolist())
            assert mass == pytest.approx(1.0, abs=1e-10)


class TestGatecountExperiment:
    def test_single_gate_ball_ratio(self):
        cfg = experiments.gatecount_config(2, samples=400, seed=11)
        res = experiments.run_gatecount_discrimination(cfg)
        assert abs(res.p_shallow.mean - 1.0) < 1e-9
        assert res.shallow_max_deviation < experiments.SHALLOW_FAILURE_TOL
        assert abs(res.p_haar.mean - 5 / 6) <= 5 * res.p_haar.stderr
        assert res.analytic_bound == pytest.approx(1 / 3)
        assert res.analytic_reference == "gate-count-bound/ball-ratio"
        assert res.lightcone_confined

    def test_zero_gates_keep_mass_on_the_vertex(self):
        cfg = experiments.gatecount_config(2, samples=30, seed=2, gates=0)
        res = experiments.run_gatecount_discrimination(cfg)
        assert abs(res.p_shallow.mean - 1.0) < 1e-9
        # ball is the vertex alone, so the Haar side spreads over C(4,2)=6
        assert res.analytic_bound == pytest.approx(2 * (1 - 1 / 6))
        assert abs(res.p_haar.mean - 1 / 6) <= 5 * res.p_haar.stderr

    def test_needs_gate_count_ensemble(self):
        cfg = experiments.depth_config("matchgate", 2, samples=2, seed=0)
        with pytest.raises(ValidationError):
            experiments.run_gatecount_discrimination(cfg)


def _max_gap(reference, evaluators, shot_mode, M=4, seed=3):
    """Largest per-sample difference between per-stream dense references
    (shallow, haar) and a pair of chunk evaluators evaluating one chunk of
    the runner's streams (shallow [0, M), Haar [M, 2M)), each sample then
    finalized as the runner does.  Sample by sample, both must leave the
    stream at the same position, so that they drew the same group element."""
    gap = 0.0
    for side, offset in ((0, 0), (1, M)):
        streams = [rng.sample_stream(seed, offset + i) for i in range(M)]
        values = np.asarray(evaluators[side](streams), dtype=np.float64)
        assert values.shape == (M,)
        for i, (p, stream) in enumerate(zip(values.tolist(), streams)):
            alone = fresh_stream(seed, offset + i)
            want = reference[side](alone)
            assert repr(stream.bit_generator.state) == repr(alone.bit_generator.state)
            got = finalize_reference(p, stream, shot_mode)
            gap = max(gap, abs(got - finalize_reference(want, alone, shot_mode)))
    return gap


def _index_array(monomials, k: int) -> np.ndarray:
    return np.array(monomials, dtype=np.int64).reshape(len(monomials), k)


# non-prefix regions, each with a perturbation inside it: the general minor evaluator
NON_PREFIX = [
    (3, (1, 2), "IXI"),
    (4, (1, 2, 3), "IIXI"),
    (4, (0, 2, 3), "IIXI"),
    (4, (1, 3), "IXII"),
    (5, (0, 1, 3, 4), "IIIXI"),
    (6, (1, 2, 3, 4, 5), "IIXIII"),
]


class TestRotationEvaluation:
    """The Majorana-rotation evaluation against the dense references, per sample."""

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("geometry", ["default", "depth2", "identity"])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_depth_matches_dense(self, n, geometry, shot_mode):
        extra = {"depth2": {"depth": 2}, "identity": {"perturbation": pauli.identity(n)}}.get(geometry, {})
        cfg = experiments.depth_config("matchgate", n, samples=4, seed=3, **extra)
        evaluators, _, _ = experiments._depth_rotation(cfg, groups.parse_adjacency("chain", n))
        assert _max_gap(brickwork_probability_reference(cfg), evaluators, shot_mode) < 1e-12

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("n,region,vertex", NON_PREFIX)
    def test_non_prefix_depth_matches_dense(self, n, region, vertex, depth, shot_mode):
        cfg = experiments.depth_config(
            "matchgate", n, samples=4, seed=3, depth=depth, region=region,
            perturbation=pauli.from_text(vertex), shot_mode=shot_mode,
        )
        evaluators, _, _ = experiments._depth_rotation(cfg, groups.parse_adjacency("chain", n))
        assert _max_gap(brickwork_probability_reference(cfg), evaluators, shot_mode) < 1e-12

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("gates", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gatecount_matches_dense(self, n, gates, shot_mode):
        cfg = experiments.gatecount_config(n, samples=6, seed=3, gates=gates)
        evaluators, _ = experiments._gatecount_rotation(cfg, cfg.ensemble.allowed)
        assert _max_gap(gatecount_probability_reference(cfg), evaluators, shot_mode, M=6) < 1e-12

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("gates", range(4))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_standard_set_gatecount_matches_dense(self, n, gates, shot_mode):
        S = groups.matchgate_standard_set(n)
        cfg = experiments.gatecount_config(n, samples=4, seed=3, gates=gates, allowed=S)
        evaluators, _ = experiments._gatecount_rotation(cfg, S)
        assert _max_gap(gatecount_probability_reference(cfg), evaluators, shot_mode) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_general_evaluator_equals_the_closed_forms(self, n):
        R = groups.sample_haar_rotation_stack(groups.group_spec("matchgate", n), [fresh_stream(6, i) for i in range(5)])
        full = groups.matchgate_full_set(n)
        for k in range(2 * n + 1):
            # half of K on even and half on odd Majoranas, so every prefix region cuts it
            K = np.array(sorted([*range(0, 2 * n, 2)][: k // 2] + [*range(1, 2 * n, 2)][: k - k // 2]), dtype=np.int64)
            P = pauli.majorana_product([a + 1 for a in K], n)
            for m in range(1, n):
                general = experiments._minor_mass(R, _index_array(region_monomials(n, k, range(m)), k), K)
                assert np.max(np.abs(general - experiments._prefix_mass(R, 2 * m, K))) < 1e-12
            for N in range(4):
                T = _index_array(ball_monomials(P, full, N), k)
                assert len(T) == bounds.johnson_ball_size(n, N, k)
                general = experiments._minor_mass(R, T, K)
                assert np.max(np.abs(general - experiments._johnson_ball_mass(R, K, N))) < 1e-12

    def test_gate_sequence_rotation_is_the_adjoint_of_the_unitary(self):
        # p is 1 on the shallow side whatever the order, so check the product itself
        n, N = 3, 4
        S = groups.matchgate_full_set(n).generators
        planes = [groups.bilinear_plane(g) for g in S]
        for i in range(3):
            U = gate_sequence_unitary_reference(S, n, draw_factors_reference(len(S), N, rng.sample_stream(5, i)))
            O, _ = adjoint_majorana_matrix(U, n)
            R = experiments._gate_sequence_rotation(planes, n, N, [rng.sample_stream(5, i)])[0]
            assert np.max(np.abs(R - O)) < 1e-12

    def test_non_prefix_region_retains_the_region_ratio(self):
        cfg = experiments.depth_config(
            "matchgate", 4, samples=150, seed=8, region=(1, 2, 3), perturbation=pauli.from_text("IIXI")
        )
        res = experiments.run_depth_discrimination(cfg)
        r, _ = cgraph.r_fraction(cfg.perturbation, groups.matchgate_full_set(4), (1, 2, 3))
        assert res.lightcone_confined
        assert abs(res.p_shallow.mean - 1.0) < 1e-12
        assert abs(res.p_haar.mean - float(r)) <= 5 * res.p_haar.stderr
        assert res.analytic_bound == float(bounds.pauli_compatible_bound(r))

    def test_drifting_rotation_is_an_invariant_error(self, monkeypatch):
        # the Haar side draws a block of rotations at once; its last one drifts
        real = groups.haar_special_orthogonal

        def drifting(d, streams):
            R = real(d, streams)
            R[-1] *= 1.001
            return R

        monkeypatch.setattr(groups, "haar_special_orthogonal", drifting)
        with pytest.raises(InvariantError):
            experiments.run_depth_discrimination(experiments.depth_config("matchgate", 4, 2, 0))

    def test_wrong_ball_size_is_an_invariant_error(self, monkeypatch):
        real = cgraph.component

        def merged(P, S, radius=None):
            # levels 0 and 1 merged: the N-ball read from the prefix is the (N + 1)-ball
            c = real(P, S, radius)
            return cgraph.Component(c.n, c.representative, (np.concatenate(c.levels[:2]), *c.levels[2:]))

        monkeypatch.setattr(cgraph, "component", merged)
        # one plane short of the full set, so the ball comes from the search
        S = cgraph.GeneratorSet(3, groups.matchgate_full_set(3).generators[:-1])
        with pytest.raises(InvariantError):
            experiments.run_gatecount_discrimination(experiments.gatecount_config(3, 2, 0, gates=1, allowed=S))

    @pytest.mark.parametrize("allowed", [None, "standard"])
    def test_one_search_gives_ball_and_component(self, monkeypatch, allowed):
        real = cgraph._bfs
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cgraph, "_bfs", counted)
        S = groups.matchgate_standard_set(3) if allowed else None
        res = experiments.run_gatecount_discrimination(experiments.gatecount_config(3, 4, 0, gates=1, allowed=S))
        # the full set's ball and component are Johnson counts, with no search
        assert len(calls) == (1 if allowed else 0)
        # the analytic ratio still divides the 1-ball by the whole component
        key = pauli.to_key(experiments.gatecount_perturbation(3))
        S = S or groups.matchgate_full_set(3)
        ball, comp = len(bfs_reference(key, S, max_dist=1)), len(bfs_reference(key, S))
        assert res.analytic_bound == float(bounds.neighborhood_ratio_bound(ball, comp))

    @pytest.mark.parametrize("region", [(0, 1, 2), (1, 2, 3)])
    def test_one_search_gives_region_monomials_and_ratio(self, monkeypatch, region):
        real = cgraph._bfs
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cgraph, "_bfs", counted)
        V = pauli.from_text("IIXI")
        res = experiments.run_depth_discrimination(
            experiments.depth_config("matchgate", 4, 4, 0, region=region, perturbation=V)
        )
        # a prefix region's monomials are counted by C(2m, k), with no search
        assert len(calls) == (0 if region == (0, 1, 2) else 1)
        inside = region_monomials(4, 5, region)
        assert res.analytic_bound == float(bounds.pauli_compatible_bound(Fraction(len(inside), 56)))


def _monomial(n: int, k: int) -> pauli.PauliString:
    """c_1 c_2 ... c_k, up to phase: its support is qubits 0..(k - 1) // 2."""
    return pauli.hermitian_representative(pauli.majorana_product(tuple(range(1, k + 1)), n))


class TestClosedFormCounts:
    """The counts the rotation path takes without a search, against the search."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_prefix_region_counts_equal_the_search(self, n):
        full = groups.matchgate_full_set(n)
        adj = groups.parse_adjacency("chain", n)
        for k in range(2 * n + 1):
            P = _monomial(n, k)
            # every prefix that holds the support and leaves a nonempty complement
            for m in range(max(1, (k + 1) // 2), n):
                region = tuple(range(m))
                keys, size = cgraph.region_keys(P, full, region)
                assert (keys.size, size) == (math.comb(2 * m, k), math.comb(2 * n, k))
                cfg = experiments.depth_config("matchgate", n, 1, 0, depth=0, region=region, perturbation=P)
                _, analytic, _ = experiments._depth_rotation(cfg, adj)
                assert analytic == float(bounds.pauli_compatible_bound(Fraction(keys.size, size)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_set_ball_counts_equal_the_search(self, n):
        full = groups.matchgate_full_set(n)
        for k in range(2 * n + 1):
            P = _monomial(n, k)
            comp = cgraph.component(P, full)
            assert comp.size == math.comb(2 * n, k)
            for N in range(4):
                ball = sum(level.size for level in comp.levels[: N + 1])
                assert ball == bounds.johnson_ball_size(n, N, k)
                cfg = experiments.gatecount_config(n, 1, 0, gates=N, perturbation=P)
                _, analytic = experiments._gatecount_rotation(cfg, full)
                assert analytic == float(bounds.neighborhood_ratio_bound(ball, comp.size))


class TestNonFiniteProbability:
    """A NaN retained probability is a broken invariant, never a clamped 0."""

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("side", ["shallow", "haar"])
    @pytest.mark.parametrize("experiment", ["depth", "gate-count"])
    def test_one_nan_in_a_chunk_stops_the_run(self, monkeypatch, experiment, side, shot_mode):
        real = experiments._rotation_evaluators

        def one_nan(*args, **kwargs):
            evaluators = real(*args, **kwargs)
            evaluate = getattr(evaluators, side)

            def patched(streams):
                p = np.array(evaluate(streams))
                p[17] = np.nan
                return p

            return evaluators._replace(**{side: patched})

        monkeypatch.setattr(experiments, "_rotation_evaluators", one_nan)
        run = experiments.run_depth_discrimination if experiment == "depth" else experiments.run_gatecount_discrimination
        with pytest.raises(InvariantError, match="retained probability nan"):
            run(_rotation_config(experiment, 4, 64, shot_mode, gates=2))

    def test_a_nan_exits_three(self, monkeypatch, capsys):
        from designgap import cli

        monkeypatch.setattr(experiments, "_prefix_mass", lambda R, inside, K: np.full(len(R), np.nan))
        code = cli.main(["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "4", "--samples", "64"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "invariant violated" in captured.err and "nan" in captured.err


class TestNoSearch:
    """Prefix-region depth runs and full-set gate-count runs take closed forms."""

    @pytest.fixture
    def refuse_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the commutator-graph search ran")

        monkeypatch.setattr(cgraph, "_bfs", refuse)
        return refuse

    @pytest.mark.parametrize(
        "n,depth,region", [(4, None, None), (6, 2, (0, 1, 2, 3)), (8, 3, None), (8, 1, (0, 1, 2, 3, 4))]
    )
    def test_prefix_depth_runs_never_search(self, monkeypatch, refuse_search, n, depth, region):
        monkeypatch.setattr(groups, "matchgate_full_set", refuse_search)
        res = experiments.run_depth_discrimination(
            experiments.depth_config("matchgate", n, 16, 1, depth=depth, region=region)
        )
        m = len(res.config.region)
        r = Fraction(math.comb(2 * m, n - 1), math.comb(2 * n, n - 1))
        assert res.analytic_bound == float(bounds.pauli_compatible_bound(r))

    @pytest.mark.parametrize("n,gates", [(2, 0), (3, 2), (6, 1), (11, 3), (16, 1)])
    def test_full_set_gate_count_runs_never_search(self, refuse_search, n, gates):
        res = experiments.run_gatecount_discrimination(experiments.gatecount_config(n, 64, 2, gates=gates))
        assert res.p_shallow.mean == 1.0
        ball, comp = bounds.johnson_ball_size(n, gates, n), math.comb(2 * n, n)
        assert res.analytic_bound == float(bounds.neighborhood_ratio_bound(ball, comp))
        # the Haar side spreads the monomial uniformly over its component
        assert abs(res.p_haar.mean - ball / comp) <= 5 * res.p_haar.stderr + 1e-12

    def test_full_set_gate_count_is_budgeted_up_to_the_key_cap(self, refuse_search):
        config = experiments.gatecount_config(31, 10**9, 0)
        with pytest.raises(BudgetError, match=r"gate-count experiment on Majorana rotations for n=31"):
            experiments.run_gatecount_discrimination(config)

    def test_a_set_short_of_a_plane_still_searches_and_is_capped(self):
        S = cgraph.GeneratorSet(13, groups.matchgate_full_set(13).generators[1:])
        with pytest.raises(BudgetError, match=r"C\(2n, k\)-vertex component .* n <= 12"):
            experiments.run_gatecount_discrimination(experiments.gatecount_config(13, 4, 0, allowed=S))


class TestDenseMatchgateSide:
    def test_gate_count_shallow_side_is_budgeted_before_sampling(self):
        # 10^9 gates per sample, each a two-row rotation of 8 n = 32 and its factor's cos and sin:
        # refused before the first draw
        config = experiments.gatecount_config(
            4, 20, 0, gates=10**9, allowed=groups.matchgate_standard_set(4)
        )
        start = time.perf_counter()
        with pytest.raises(
            BudgetError, match=r"gate-count experiment on Majorana rotations for n=4 .* shallow circuits 1\.06e\+13,"
        ):
            experiments.run_gatecount_discrimination(config)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "kind,n,per_sample",
        [
            # the Haar side: its draw and one evolution product, real and so charged d^3 / 2 for the
            # orthogonal group, whose QR draw needs no form self-check; the shallow side: each gate drawn
            # and checked, and each gate on the cone 16 4^|C|, also halved when real.  At n = 3 the
            # default depth 1 has one gate, (0, 1), the cone of Z0
            ("orthogonal", 3, (2 * 8**3) // 2 + experiments.LOCAL_GATE_COST + (16 * 4**2) // 2),
            # depth 2 draws (0, 1), (2, 3) and (1, 2); the cone of Z0 takes (0, 1) and (1, 2), so it
            # is qubits 0..2; the Gram-Schmidt Haar draw is checked against the form
            ("symplectic", 4, 3 * 16**3 + 3 * experiments.LOCAL_GATE_COST + 2 * 16 * 4**3),
            # the unitary kinds have no form to check
            ("mixed_unitary", 3, 2 * 8**3 + experiments.LOCAL_GATE_COST + 16 * 4**2),
        ],
        ids=["orthogonal", "symplectic", "mixed_unitary"],
    )
    def test_brickwork_budget_is_exact_at_the_cap(self, monkeypatch, kind, n, per_sample):
        cfg = experiments.depth_config(kind, n, samples=7, seed=0)
        cap = 7 * (per_sample + moments.SAMPLE_FIXED_COST)
        monkeypatch.setattr(moments, "FS_COST_CAP", cap)
        _dense_evaluators(cfg)
        monkeypatch.setattr(moments, "FS_COST_CAP", cap - 1)
        with pytest.raises(BudgetError, match=f"dense brickwork experiment for {kind} n={n} with 7 samples"):
            _dense_evaluators(cfg)

    def test_deep_circuits_are_budgeted_without_looping_over_layers(self):
        start = time.perf_counter()
        cfg = experiments.depth_config("orthogonal", 3, samples=1, seed=0, depth=10**15)
        with pytest.raises(BudgetError, match="shallow circuits"):
            experiments.run_depth_discrimination(cfg)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matchgates_need_jordan_wigner_edges(self, depth):
        cfg = experiments.depth_config("matchgate", 4, 2, 0, depth=depth, adjacency="grid 2x2")
        with pytest.raises(ValidationError, match=r"has edge \(0, 2\)"):
            experiments.run_depth_discrimination(cfg)


def _recorded_rows(monkeypatch, run, config):
    """The rows that the runner's two rng.sample_rows calls return: (shallow, haar)."""
    real, got = rng.sample_rows, []

    def recording(*args, **kwargs):
        got.append(real(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(rng, "sample_rows", recording)
    result = run(config)
    assert len(got) == 2
    return result, got[0], got[1]


def _dense_evaluators(config):
    """The evaluators of a dense brickwork run, on the lightcone that the runner computes."""
    adj = groups.parse_adjacency(config.ensemble.adjacency, config.n)
    cone = groups.lightcone(pauli.support(config.perturbation), config.ensemble.depth, adj)
    return experiments._depth_dense(config, adj, cone)


def _declared_row_bytes(config, conjugate: bool) -> int:
    """The row bytes that a brickwork run declares to rng.sample_rows."""
    if config.group.kind == "matchgate":
        return experiments._depth_rotation(config, groups.parse_adjacency("chain", config.n))[0].row_bytes
    return experiments._dense_row_bytes(config.n, config.group.kind)


class TestStackedBrickwork:
    """The chunk-stacked brickwork runner against its per-sample form: by bytes, and the
    dense sides also to 1e-12 against the two-copy oracle."""

    CASES = {
        "orthogonal": dict(kind="orthogonal", n=4),
        "symplectic": dict(kind="symplectic", n=4),
        "mixed_unitary": dict(kind="mixed_unitary", n=3),
        # regions that are not a prefix; the symplectic one leaves out the form qubit 1
        "orthogonal-region": dict(kind="orthogonal", n=4, region=(0, 2, 3), perturbation=pauli.from_text("ZIXI")),
        "symplectic-region": dict(kind="symplectic", n=4, region=(0, 2, 3)),
        "mixed_unitary-region": dict(kind="mixed_unitary", n=3, region=(0, 2), perturbation=pauli.from_text("YIZ")),
        # a non-prefix region: matchgates sum the squared minors of their Majorana rotations
        "matchgate": dict(kind="matchgate", n=4, region=(1, 2, 3), perturbation=pauli.from_text("IIXI")),
    }

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("samples", [1, 64, 65, "split"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_rows_match_the_per_sample_runner(self, monkeypatch, case, samples, shot_mode):
        spec = dict(self.CASES[case])
        kind, n = spec.pop("kind"), spec.pop("n")
        conjugate = kind == "mixed_unitary"
        cfg = experiments.depth_config(kind, n, 70 if samples == "split" else samples, 9, shot_mode=shot_mode, **spec)
        if samples == "split":
            # blocks of 3 streams: a 64-sample chunk splits into 22 blocks
            monkeypatch.setattr(rng, "STACK_BYTES", 3 * _declared_row_bytes(cfg, conjugate))
        run = experiments.run_mixed_unitary_discrimination if conjugate else experiments.run_depth_discrimination
        result, shallow, haar = _recorded_rows(monkeypatch, run, cfg)
        if kind == "matchgate":
            want_shallow, want_haar = rotation_rows_reference(cfg)
        else:
            # both sides by bytes against their blocks of one per stream, and to 1e-12 against the
            # dense two-copy oracle: the shallow side runs on the lightcone, the Haar side traces
            # U V U^dag rather than evolving the two-copy state
            oracle_shallow, oracle_haar = brickwork_rows_reference(cfg, conjugate)
            evaluators = _dense_evaluators(cfg)
            want_shallow, want_haar = per_sample_rows(
                cfg,
                lambda s: float(evaluators.shallow([s])[0]),
                lambda s: float(evaluators.haar([s])[0]),
                _confined(cfg),
            )
            assert np.max(np.abs(want_shallow - oracle_shallow)) <= 1e-12
            assert np.max(np.abs(want_haar - oracle_haar)) <= 1e-12
        assert shallow.tobytes() == want_shallow.tobytes()
        assert haar.tobytes() == want_haar.tobytes()
        assert result.shallow_max_deviation == float(np.max(want_shallow[:, 1]))
        assert result.p_haar.mean == rng.mean_and_stderr(want_haar)[0]

    @pytest.mark.parametrize("kind,n", [("orthogonal", 5), ("symplectic", 4), ("mixed_unitary", 4)])
    def test_declared_row_bytes_bound_a_block(self, kind, n):
        # a 64-sample block of either side holds at most its declared bytes per sample at its peak
        config = experiments.depth_config(kind, n, 64, 2)
        evaluators = _dense_evaluators(config)
        for offset, side in ((0, evaluators.shallow), (64, evaluators.haar)):
            side([fresh_stream(2, offset)])  # the cached kernels are built outside the measurement
            streams = [fresh_stream(2, offset + i) for i in range(64)]
            tracemalloc.start()
            try:
                side(streams)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 64 * evaluators.row_bytes

    def test_blocks_respect_the_stack_bound(self, monkeypatch):
        # the default depth 1 draws one layer per block of the shallow side
        sizes = []
        real = groups._layer_gates

        def recording(kind, cls, n, streams):
            sizes.append(len(streams))
            return real(kind, cls, n, streams)

        monkeypatch.setattr(groups, "_layer_gates", recording)
        monkeypatch.setattr(rng, "STACK_BYTES", 5 * experiments._dense_row_bytes(3, "orthogonal"))
        experiments.run_depth_discrimination(experiments.depth_config("orthogonal", 3, 70, seed=1))
        assert sizes == [5] * 12 + [4] + [5, 1]

    def test_a_confined_sample_that_leaks_fails_on_its_own(self, monkeypatch):
        # one sample of a chunk retains less than 1: the per-sample exactness check stops the run
        monkeypatch.setattr(experiments, "_conjugate_on_axes", _leaky_update(experiments._conjugate_on_axes, 2))
        with pytest.raises(InvariantError, match="confined shallow sample"):
            experiments.run_depth_discrimination(experiments.depth_config("orthogonal", 3, 10, seed=1))
        # a block of two streams holds no leaking sample
        experiments.run_depth_discrimination(experiments.depth_config("orthogonal", 3, 2, seed=1))


def _complex_shallow_stack(G, L: int, adj, streams) -> np.ndarray:
    """The brickwork stack as complex products: each layer's gates cast to complex and
    multiplied onto an identity, each layer onto the running product."""
    d = G.dense_dimension
    U = np.tile(np.eye(d, dtype=np.complex128), (len(streams), 1, 1))
    for layer_index in range(L):
        cls = adj.layer_classes[layer_index % len(adj.layer_classes)]
        gates = groups._layer_gates(G.kind, cls, G.n, streams).astype(np.complex128)
        layer_u = np.tile(np.eye(d, dtype=np.complex128), (len(streams), 1, 1))
        for i, pair in enumerate(cls):
            layer_u = densesim.embed(gates[:, i], pair, G.n) @ layer_u
        U = layer_u @ U
    return U


def _complex_born(config, U: np.ndarray) -> np.ndarray:
    """p of a stack of complex U through matrix products only: (U x U)(V x Omega)|Phi>,
    then the form unwound by 1 x Omega^-1, then the complement-Bell overlap."""
    G, n = config.group, config.n
    eye = np.eye(1 << n, dtype=np.complex128)
    Vd = pauli.to_dense(pauli.hermitian_representative(config.perturbation))
    psi0 = apply_two_copy(Vd, G.form.dense(), bell_state(n))
    psi = apply_two_copy(eye, G.form.dense().conj().T, apply_two_copy(U, U, psi0))
    T = complement_bell_overlap(psi, config.region, n)
    return np.sum(np.abs(T) ** 2, axis=(-2, -1))


class TestRealOrthogonalPath:
    """Orthogonal runs multiply in real arithmetic; complex arithmetic gives the same p to rounding."""

    @pytest.mark.parametrize("n,adjacency", [(3, "chain"), (4, "chain"), (5, "chain"), (4, "grid 2x2")])
    def test_each_sample_matches_the_complex_products(self, monkeypatch, n, adjacency):
        config = experiments.depth_config("orthogonal", n, 64, 21, adjacency=adjacency)
        adj = groups.parse_adjacency(adjacency, n)
        L = config.ensemble.depth
        evaluators = _dense_evaluators(config)

        def streams(offset):
            return [fresh_stream(21, offset + i) for i in range(64)]

        # the shallow side: every cone update is real
        fields, update = [], experiments._conjugate_on_axes

        def recording(A, g, i, j):
            A = update(A, g, i, j)
            fields.append(A.dtype)
            return A

        monkeypatch.setattr(experiments, "_conjugate_on_axes", recording)
        p_real = evaluators.shallow(streams(0))
        assert fields and set(fields) == {np.dtype(np.float64)}
        # the same updates of complex gates, and the oracle's complex circuit products
        U_complex = _complex_shallow_stack(config.group, L, adj, streams(0))
        layer_gates = groups._layer_gates
        monkeypatch.setattr(groups, "_layer_gates", lambda *args: layer_gates(*args).astype(np.complex128))
        p_complex = evaluators.shallow(streams(0))
        assert np.max(np.abs(p_real - p_complex)) <= 16 * np.finfo(np.float64).eps
        assert np.max(np.abs(p_real - _complex_born(config, U_complex))) <= 1e-12
        # the Haar side: a real draw and evolution against the complex products
        p_real = evaluators.haar(streams(64))
        U = groups.sample_haar_stack(config.group, streams(64))
        assert U.dtype == np.float64
        assert np.max(np.abs(p_real - _complex_born(config, U.astype(np.complex128)))) <= 16 * np.finfo(np.float64).eps


def _small_paulis(n: int):
    """Every Pauli on n qubits supported on one or two qubits, as text."""
    words = []
    for a in range(n):
        for la in "XYZ":
            words.append("I" * a + la + "I" * (n - 1 - a))
            for b in range(a + 1, n):
                for lb in "XYZ":
                    words.append("I" * a + la + "I" * (b - a - 1) + lb + "I" * (n - 1 - b))
    return words


def _regions(support, n: int):
    """The prefix 0..max(support) and a region that is not a prefix, each holding the
    support and leaving a qubit out, where such regions exist."""
    candidates = (tuple(range(max(support) + 1)), tuple(support), tuple(sorted({*support, n - 1})))
    out = []
    for region in candidates:
        if len(region) < n and region not in out:
            out.append(region)
    return out


def _cone_p(config, streams) -> np.ndarray:
    """The library's shallow side of a dense brickwork run on a block of streams."""
    return _dense_evaluators(config).shallow(streams)


class TestConeEvaluator:
    """The shallow side on the lightcone against the dense two-copy oracle, per sample."""

    KINDS = ["orthogonal", "symplectic", "mixed_unitary"]

    def _check_all(self, kind, n, adjacency):
        compared, prefix, other = 0, 0, 0
        for word in _small_paulis(n):
            V = pauli.from_text(word)
            for region in _regions(pauli.support(V), n):
                prefix += region == tuple(range(len(region)))
                other += region != tuple(range(len(region)))
                for L in range(5):
                    config = experiments.depth_config(
                        kind, n, 2, 0, depth=L, region=region, perturbation=V, adjacency=adjacency
                    )
                    got = _cone_p(config, [fresh_stream(L, i) for i in range(2)])
                    want = two_copy_shallow_p(config, [fresh_stream(L, i) for i in range(2)], kind == "mixed_unitary")
                    assert np.max(np.abs(got - want)) <= 1e-12, (word, region, L)
                    compared += 1
        assert prefix and other
        return compared

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_sample_matches_the_two_copy_oracle(self, kind, n):
        assert self._check_all(kind, n, "chain")

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_sample_matches_the_two_copy_oracle_on_a_grid(self, kind):
        assert self._check_all(kind, 4, "grid 2x2")

    @pytest.mark.parametrize(
        "word,depth,holds_form_qubit", [("ZIIII", 2, True), ("IIIIZ", 2, False), ("IIIYX", 3, True)]
    )
    def test_symplectic_form_qubit_inside_and_outside_the_cone(self, word, depth, holds_form_qubit):
        # the form qubit 1 of n = 5: its gates are complex symplectic ones, the others real orthogonal
        V = pauli.from_text(word)
        adj = groups.chain_adjacency(5)
        cone = groups.lightcone(pauli.support(V), depth, adj)
        assert (groups.symplectic_form_qubit(5) in cone) == holds_form_qubit
        config = experiments.depth_config("symplectic", 5, 8, 0, depth=depth, region=(0, 1, 3, 4), perturbation=V)
        got = _cone_p(config, [fresh_stream(0, i) for i in range(8)])
        want = two_copy_shallow_p(config, [fresh_stream(0, i) for i in range(8)])
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_stream_ends_where_the_dense_draw_leaves_it(self, kind):
        # the cone evaluator draws every layer, on the cone or not, so shot mode draws the same shot
        config = experiments.depth_config(kind, 5, 6, 3, depth=3, region=(3, 4), perturbation=pauli.from_text("IIIIZ"))
        a = [fresh_stream(3, i) for i in range(6)]
        b = [fresh_stream(3, i) for i in range(6)]
        _cone_p(config, a)
        sample_shallow_stack(config.group, 3, "chain", b)
        for x, y in zip(a, b):
            assert repr(x.bit_generator.state) == repr(y.bit_generator.state)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_row_is_the_block_of_one(self, kind):
        V = pauli.from_text("IIYXI")
        config = experiments.depth_config(kind, 5, 7, 4, depth=4, region=(0, 2, 3), perturbation=V)
        block = _cone_p(config, [fresh_stream(4, i) for i in range(7)])
        for i in range(7):
            assert block[i].tobytes() == _cone_p(config, [fresh_stream(4, i)])[0].tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_results_do_not_depend_on_the_stack_bound(self, monkeypatch, kind):
        config = experiments.depth_config(kind, 4, 70, 5, depth=3, region=(1, 2), perturbation=pauli.from_text("IXZI"))
        conjugate = kind == "mixed_unitary"
        run = experiments.run_mixed_unitary_discrimination if conjugate else experiments.run_depth_discrimination
        results = []
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(rng, "STACK_BYTES", rows * _declared_row_bytes(config, conjugate))
            r = run(config)
            results.append((r.p_shallow, r.p_haar, r.mc_bound, r.shallow_max_deviation))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "adjacency,n", [("chain", 5), ("chain", 6), ("grid 2x3", 6), (((0, 1), (2, 3), (1, 4)), 5)]
    )
    def test_the_budget_counts_the_cone_updates_the_evaluator_makes(self, monkeypatch, adjacency, n):
        # the count runs the layers until the cone stops growing and takes the rest in closed form
        calls, update = [], experiments._conjugate_on_axes

        def counting(A, g, i, j):
            calls.append(1)
            return update(A, g, i, j)

        monkeypatch.setattr(experiments, "_conjugate_on_axes", counting)
        adj = groups.parse_adjacency(adjacency, n)
        for q in range(n):
            V = pauli.PauliString(n, 0, 1 << q)
            region = tuple(p for p in range(n) if p != (q + 1) % n)
            for L in (0, 1, 2, 3, 5, 8, 13):
                calls.clear()
                config = experiments.depth_config(
                    "orthogonal", n, 1, 0, depth=L, region=region, perturbation=V, adjacency=adj
                )
                _cone_p(config, [fresh_stream(0, 0)])
                assert experiments._cone_gates((q,), L, adj) == len(calls), (q, L)

    @pytest.mark.parametrize("kind", ["orthogonal", "symplectic"])
    def test_a_drifted_gate_outside_the_cone_is_an_invariant_error(self, monkeypatch, kind):
        # Z0 at depth 1 has the cone (0, 1); the layer's second gate, on (2, 3), is never applied
        config = experiments.depth_config(kind, 5, 4, 0, depth=1)
        assert groups.lightcone((0,), 1, groups.chain_adjacency(5)) == (0, 1)
        real = groups._orthogonal_from_ginibre

        def drifted(Z):
            Q = real(Z)
            if Q.ndim == 4:
                Q[:, 1] *= 1.01
            return Q

        monkeypatch.setattr(groups, "_orthogonal_from_ginibre", drifted)
        with pytest.raises(InvariantError, match=f"shallow {kind} gate drifted off the form"):
            _cone_p(config, [fresh_stream(0, i) for i in range(4)])


def _rotation_config(experiment, n, samples, shot_mode, depth=None, gates=None):
    """A rotation-path configuration; odd n takes an X inside the prefix region."""
    if experiment == "gate-count":
        return experiments.gatecount_config(n, samples, seed=4, gates=gates, shot_mode=shot_mode)
    V = None if n % 2 == 0 else pauli.PauliString(n, 1 << (n // 2), 0)
    return experiments.depth_config(
        "matchgate", n, samples, seed=4, depth=depth, perturbation=V, shot_mode=shot_mode
    )


class TestStackedRotation:
    """The chunk-stacked rotation runner against its per-sample form, by bytes."""

    RUN = {"depth": experiments.run_depth_discrimination, "gate-count": experiments.run_gatecount_discrimination}

    def _check_rows(self, monkeypatch, config, run):
        result, shallow, haar = _recorded_rows(monkeypatch, run, config)
        want_shallow, want_haar = rotation_rows_reference(config)
        assert shallow.tobytes() == want_shallow.tobytes()
        assert haar.tobytes() == want_haar.tobytes()
        assert result.shallow_max_deviation == float(np.max(want_shallow[:, 1]))

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("experiment", ["depth", "gate-count"])
    def test_rows_match_the_per_sample_runner(self, monkeypatch, experiment, samples, shot_mode):
        config = _rotation_config(experiment, 4, samples, shot_mode, gates=2)
        self._check_rows(monkeypatch, config, self.RUN[experiment])

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_depth_rows_at_every_n_and_depth(self, monkeypatch, n, depth):
        config = _rotation_config("depth", n, 65, shot_mode=bool(depth % 2), depth=depth)
        self._check_rows(monkeypatch, config, experiments.run_depth_discrimination)

    @pytest.mark.parametrize("gates", range(4))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_gatecount_rows_at_every_n_and_gate_count(self, monkeypatch, n, gates):
        config = _rotation_config("gate-count", n, 65, shot_mode=bool(gates % 2), gates=gates)
        self._check_rows(monkeypatch, config, experiments.run_gatecount_discrimination)

    @pytest.mark.parametrize("experiment", ["depth", "gate-count"])
    def test_every_stream_is_left_where_the_per_sample_draw_leaves_it(self, experiment):
        config = _rotation_config(experiment, 6, 70, False, depth=3, gates=3)
        S = config.ensemble.allowed
        if experiment == "depth":
            evaluators, _, _ = experiments._depth_rotation(config, groups.parse_adjacency("chain", 6))
            L = config.ensemble.depth

            def shallow_reference(stream):
                sample_shallow_rotation_reference(config.group, L, "chain", stream)

        else:
            evaluators, _ = experiments._gatecount_rotation(config, S)
            planes = [groups.bilinear_plane(g) for g in S.generators]

            def shallow_reference(stream):
                gate_sequence_rotation_reference(planes, 6, 3, stream)

        for evaluate, reference in (
            (evaluators.shallow, shallow_reference),
            (evaluators.haar, lambda stream: haar_special_orthogonal_reference(12, stream)),
        ):
            stacked = [rng.sample_stream(2, i) for i in range(70)]
            evaluate(stacked)
            for i, stream in enumerate(stacked):
                alone = rng.sample_stream(2, i)
                reference(alone)
                assert repr(stream.bit_generator.state) == repr(alone.bit_generator.state)

    @pytest.mark.parametrize("experiment", ["depth", "gate-count"])
    def test_one_drifting_sample_in_a_chunk_stops_the_run(self, monkeypatch, experiment):
        real = groups.rotate_by_exponentials

        def drifting(planes, g, theta, m, R=None):
            R = real(planes, g, theta, m, R)
            # the shallow sampler builds the (B * 2, 4, 4) gates of a depth-1 n = 4 chain in one
            # call, two per stream; a gate sequence is one (B, 8, 8) rotation per stream
            row = 5 * (2 if m == 4 else 1)
            if len(R) > row:
                R[row] *= 1.0 + 1e-6
            return R

        monkeypatch.setattr(groups, "rotate_by_exponentials", drifting)
        config = _rotation_config(experiment, 4, 64, False, gates=2)
        with pytest.raises(InvariantError, match="rotation is not orthogonal"):
            self.RUN[experiment](config)
        # a block of five streams holds no drifting sample
        self.RUN[experiment](_rotation_config(experiment, 4, 5, False, gates=2))

    def test_blocks_are_whole_chunks(self, monkeypatch):
        # at n = 8 a rotation sample holds a few 16 x 16 real matrices, not 256 x 256 complex ones
        sizes = []
        real = groups.sample_shallow_rotation_stack

        def recording(G, L, adjacency, streams):
            sizes.append(len(streams))
            return real(G, L, adjacency, streams)

        monkeypatch.setattr(groups, "sample_shallow_rotation_stack", recording)
        experiments.run_depth_discrimination(experiments.depth_config("matchgate", 8, 130, seed=1))
        assert sizes == [64, 64, 2]

    @pytest.mark.parametrize(
        "config,gates,runs",
        [
            # 2 gates at depth 1, one layer of disjoint gates
            (experiments.depth_config("matchgate", 4, 7, 0), 2, 1),
            # 5 gates in 3 layers
            (experiments.depth_config("matchgate", 4, 7, 0, depth=3), 5, 3),
            # 75 gates in 50 layers, drawn in two windows of up to 64: gate 64 starts the second window
            # inside layer 43, whose two gates are then two runs
            (experiments.depth_config("matchgate", 4, 7, 0, depth=50), 75, 51),
            # a sequence of 2 gates
            (experiments.gatecount_config(4, 7, 0, gates=2), 2, None),
        ],
        ids=["depth-1", "depth-3", "depth-50", "gate-count"],
    )
    def test_rotation_budget_is_exact_at_the_cap(self, monkeypatch, config, gates, runs):
        # per sample, in 8 x 8 products: the Haar QR and both evaluations (dets or eigvalsh); a gate of
        # a sequence is one two-row rotation, 8 n, and its factor's cos and sin; a brickwork gate is one
        # (4 x 4) @ (4 x 8) product, 32 n.  The 7 samples
        # are one block, which pays the dispatch once: a sequence one factor position per gate; a
        # brickwork circuit 12 positions per window of up to 64 gates and one gather, product and
        # scatter per run of disjoint gates, and each of its samples each factor
        brickwork = config.ensemble.kind == "brickwork"
        run = self.RUN["depth" if brickwork else "gate-count"]
        per_sample = (1 + 2) * 8**3 + moments.SAMPLE_FIXED_COST
        per_sample += gates * (32 * 4 if brickwork else 8 * 4 + experiments.LOCAL_FACTOR_COST)
        positions = gates
        if brickwork:
            per_sample += gates * 12 * experiments.LOCAL_FACTOR_COST
            positions = 12 * -(-gates // 64) + runs
        cap = 7 * per_sample + positions * experiments.FACTOR_DISPATCH_COST
        monkeypatch.setattr(moments, "FS_COST_CAP", cap)
        run(config)
        monkeypatch.setattr(moments, "FS_COST_CAP", cap - 1)
        with pytest.raises(BudgetError, match="on Majorana rotations for n=4 with 7 samples"):
            run(config)

    @pytest.mark.parametrize(
        "experiment,config,monomials",
        [
            # 5 x 5 minors over the weight-5 monomials inside qubits 1..3
            ("depth", experiments.depth_config("matchgate", 4, 7, 0, region=(1, 2, 3), perturbation=pauli.from_text("IIXI")),
             lambda: region_monomials(4, 5, (1, 2, 3))),
            # 4 x 4 minors over the 2-ball of ZZII under the standard set
            ("gate-count", experiments.gatecount_config(4, 7, 0, gates=2, allowed=groups.matchgate_standard_set(4)),
             lambda: ball_monomials(pauli.from_text("ZZII"), groups.matchgate_standard_set(4), 2)),
        ],
        ids=["depth", "gate-count"],
    )
    def test_general_evaluator_budget_is_exact_at_the_cap(self, monkeypatch, experiment, config, monomials):
        # per sample the QR and both evaluations in 8 x 8 products, 2 gates (two-row rotations of 8 n and
        # their factors' cos and sin in a sequence, (4 x 4) @ (4 x 8) products at depth 1), and k^3 per
        # minor det on each side; per block the dispatch
        # of the 2 gates: at depth 1 one window's 12 factor positions and one run of disjoint gates, whose
        # 24 factors each sample also pays; a sequence's 2 factor positions
        T = monomials()
        minors = 2 * len(T) * len(T[0]) ** 3
        per_sample = (1 + 2) * 8**3 + minors + moments.SAMPLE_FIXED_COST
        positions = 2
        if experiment == "depth":
            per_sample += 2 * 32 * 4 + 2 * 12 * experiments.LOCAL_FACTOR_COST
            positions = 12 + 1
        else:
            per_sample += 2 * (8 * 4 + experiments.LOCAL_FACTOR_COST)
        cap = 7 * per_sample + positions * experiments.FACTOR_DISPATCH_COST
        monkeypatch.setattr(moments, "FS_COST_CAP", cap)
        self.RUN[experiment](config)
        monkeypatch.setattr(moments, "FS_COST_CAP", cap - 1)
        parts = re.escape(f"minor dets {Decimal(7 * minors):.2e},")
        with pytest.raises(BudgetError, match=rf"on Majorana rotations for n=4 with 7 samples .* {parts}"):
            self.RUN[experiment](config)

    @pytest.mark.parametrize("n,region,vertex", [*NON_PREFIX, (8, (1, 2, 3, 4, 5, 6, 7), "IIIXIIII")])
    def test_monomial_table_is_the_per_key_decomposition(self, n, region, vertex):
        P = pauli.from_text(vertex)
        keys, _ = cgraph.region_keys(P, groups.matchgate_full_set(n), region)
        k = len(majorana_decomposition_reference(P))
        want = [[a - 1 for a in majorana_decomposition_reference(pauli.from_key(key, n))] for key in keys.tolist()]
        got = experiments._monomial_table(keys, n, k)
        assert got.dtype == np.int64 and got.tolist() == want
        with pytest.raises(InvariantError, match=f"Majorana weight {k + 1}"):
            experiments._monomial_table(keys, n, k + 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_run_bound_covers_the_sampler_runs(self, n):
        # the budget charges windows + L - 1 runs of disjoint gates; the sampler's runs never exceed it,
        # on the chain and on edge lists whose greedy classes a run can cross
        W = groups.SHALLOW_GATES_PER_DRAW
        draw = np.random.default_rng(n)
        edge_lists = ["chain"] + [[(i, i + 1) for i in draw.permutation(n - 1)[: max(1, n // 2)]] for _ in range(4)]
        for spec in edge_lists:
            adj = groups.parse_adjacency(spec, n)
            for L in (*range(12), 63, 64, 65, 130):
                sites = [i for layer in range(L) for i, _ in adj.layer_classes[layer % len(adj.layer_classes)]]
                runs = sum(len(groups._disjoint_runs(sites[lo : lo + W])) for lo in range(0, len(sites), W))
                windows = -(-len(sites) // W)
                assert len(sites) == experiments._brickwork_gates(adj, L)
                assert runs <= (windows + L - 1 if sites else 0), (spec, L)

    @pytest.mark.parametrize("shot_mode", [False, True])
    @pytest.mark.parametrize("n,region,vertex", NON_PREFIX)
    def test_non_prefix_rows_match_the_per_sample_runner(self, monkeypatch, n, region, vertex, shot_mode):
        config = experiments.depth_config(
            "matchgate", n, 65, seed=4, depth=1, region=region, perturbation=pauli.from_text(vertex), shot_mode=shot_mode
        )
        self._check_rows(monkeypatch, config, experiments.run_depth_discrimination)

    @pytest.mark.parametrize("gates", range(4))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_standard_set_rows_match_the_per_sample_runner(self, monkeypatch, n, gates):
        S = groups.matchgate_standard_set(n)
        config = experiments.gatecount_config(n, 65, seed=4, gates=gates, allowed=S, shot_mode=bool(gates % 2))
        self._check_rows(monkeypatch, config, experiments.run_gatecount_discrimination)

    @pytest.mark.parametrize("gates", [767, 768, 769, 1537])
    def test_gate_sequence_windows_match_the_per_sample_runner(self, monkeypatch, gates):
        # the factors are drawn and applied 768 at a time
        assert groups.SHALLOW_GATES_PER_DRAW * groups.MATCHGATE_LOCAL_FACTORS == 768
        self._check_rows(monkeypatch, experiments.gatecount_config(2, 3, 4, gates=gates), self.RUN["gate-count"])

    def test_gate_sequence_draw_memory_is_bounded(self):
        # one call over 10^5 factors of 2 streams would hold about 10 MB of indices, angles and planes
        planes = [groups.bilinear_plane(g) for g in groups.matchgate_full_set(2).generators]
        streams = [rng.sample_stream(0, i) for i in range(2)]
        tracemalloc.start()
        try:
            R = experiments._gate_sequence_rotation(planes, 2, 10**5, streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        groups.check_rotation(R, "long gate sequence")
        assert peak < 1_000_000
