"""Closed-form bounds: exact rationals, counting, the formula registry."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from designgap import bounds, cgraph, groups
from designgap.errors import ValidationError

from conftest import envelope_threshold


class TestDiscriminationBound:
    def test_plain_difference(self):
        assert bounds.discrimination_bound(0.9, 0.4) == pytest.approx(1.0)

    def test_exact_rationals_pass_through(self):
        b = bounds.discrimination_bound(1, Fraction(5, 14))
        assert b == Fraction(9, 7)
        assert isinstance(b, Fraction)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            bounds.discrimination_bound(1.2, 0.5)
        with pytest.raises(ValidationError):
            bounds.discrimination_bound(0.5, -0.1)
        with pytest.raises(ValidationError):
            bounds.discrimination_bound("0.5", 0.1)


class TestMatchgateDepthBound:
    def test_reference_values(self):
        assert bounds.matchgate_depth_bound(4) == Fraction(9, 7)
        assert bounds.matchgate_depth_bound(6) == Fraction(15, 11)

    def test_matches_in_region_fraction(self):
        # 2 - (n+1)/(2n-1) is 2(1 - r) for the component fraction
        # r = C(2n-2, n-1)/C(2n, n-1) retained inside the first n-1 qubits
        for n in (4, 6, 8, 12):
            r = Fraction(math.comb(2 * n - 2, n - 1), math.comb(2 * n, n - 1))
            assert r == Fraction(n + 1, 2 * (2 * n - 1))
            assert bounds.matchgate_depth_bound(n) == bounds.pauli_compatible_bound(r)

    def test_increases_towards_three_halves(self):
        values = [bounds.matchgate_depth_bound(n) for n in range(2, 40, 2)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < Fraction(3, 2) for v in values)

    def test_rejects_odd_or_tiny_n(self):
        for bad in (0, 1, 3, 7):
            with pytest.raises(ValidationError):
                bounds.matchgate_depth_bound(bad)


class TestHaarPovmProbability:
    def test_reference_values(self):
        assert bounds.exact_haar_povm_probability("orthogonal", 8, 4) == Fraction(9, 35)
        assert bounds.exact_haar_povm_probability("symplectic", 8, 4) == Fraction(5, 27)
        assert bounds.exact_haar_povm_probability("orthogonal", 4, 2) == Fraction(2, 9)
        assert bounds.exact_haar_povm_probability("symplectic", 4, 2) == 0

    def test_assembled_and_simplified_forms_agree(self):
        for d in (4, 8, 16, 32):
            for d_L in (2, 4, 8):
                if d_L >= d:
                    continue
                p = bounds.exact_haar_povm_probability("orthogonal", d, d_L)
                assert p == Fraction(d_L**2 + d_L - 2, (d + 2) * (d - 1))
                q = bounds.exact_haar_povm_probability("symplectic", d, d_L)
                assert q == Fraction(d_L**2 - d_L - 2, (d - 2) * (d + 1))

    def test_bound_is_two_one_minus_probability(self):
        for d, d_L in ((8, 4), (16, 2), (32, 8)):
            p_o = bounds.exact_haar_povm_probability("orthogonal", d, d_L)
            p_s = bounds.exact_haar_povm_probability("symplectic", d, d_L)
            assert bounds.orthogonal_bound(d, d_L) == bounds.discrimination_bound(1, p_o)
            assert bounds.symplectic_bound(d, d_L) == bounds.discrimination_bound(1, p_s)
        assert bounds.orthogonal_bound(8, 4) == Fraction(52, 35)
        assert bounds.symplectic_bound(8, 4) == Fraction(44, 27)

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.exact_haar_povm_probability("unitary", 8, 4)
        with pytest.raises(ValidationError):
            bounds.exact_haar_povm_probability("orthogonal", 8, 8)
        with pytest.raises(ValidationError):
            bounds.exact_haar_povm_probability("orthogonal", 12, 4)
        with pytest.raises(ValidationError):
            bounds.exact_haar_povm_probability("symplectic", 2, 2)
        with pytest.raises(ValidationError):
            bounds.orthogonal_bound(8, 3)


class TestMixedUnitaryBound:
    def test_reference_values(self):
        assert bounds.mixed_unitary_haar_probability(4, 2) == Fraction(1, 5)
        assert bounds.mixed_unitary_bound(4, 2) == Fraction(8, 5)

    def test_half_cut_approaches_three_halves(self):
        gaps = []
        for k in (2, 4, 6, 8, 10):
            d = 1 << k
            gaps.append(abs(bounds.mixed_unitary_bound(d, d // 2) - Fraction(3, 2)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < Fraction(1, 1000)

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.mixed_unitary_bound(4, 4)
        with pytest.raises(ValidationError):
            bounds.mixed_unitary_bound(4, 1)


class TestPauliCompatibleBound:
    def test_value(self):
        assert bounds.pauli_compatible_bound(Fraction(5, 14)) == Fraction(9, 7)
        assert bounds.pauli_compatible_bound(1) == 0
        assert bounds.pauli_compatible_bound(0) == 2

    def test_matches_graph_fraction(self):
        from designgap import experiments

        S = groups.matchgate_full_set(2)
        r, _ = cgraph.r_fraction(experiments.gatecount_perturbation(2), S, (0,))
        assert bounds.pauli_compatible_bound(r) == 2 * (1 - r)

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.pauli_compatible_bound(1.5)
        with pytest.raises(ValidationError):
            bounds.pauli_compatible_bound(-0.2)


class TestNeighborhoodRatioBound:
    def test_value_and_range(self):
        assert bounds.neighborhood_ratio_bound(5, 20) == Fraction(3, 2)
        assert bounds.neighborhood_ratio_bound(20, 20) == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.neighborhood_ratio_bound(21, 20)
        with pytest.raises(ValidationError):
            bounds.neighborhood_ratio_bound(0, 20)
        with pytest.raises(ValidationError):
            bounds.neighborhood_ratio_bound(5, 0)


class TestSimpleGatecountBound:
    def test_value(self):
        assert bounds.simple_gatecount_bound(5, 2, 100) == Fraction(3, 2)

    def test_clamped_at_zero(self):
        assert bounds.simple_gatecount_bound(5, 3, 100) == 0
        assert bounds.simple_gatecount_bound(2, 0, 1) == 0

    def test_huge_budget_clamps_without_the_power(self):
        # 4^(10^17) has 2 * 10^17 bits; the bound is 0 long before that
        assert bounds.simple_gatecount_bound(4, 10**17, 10) == 0
        for S_size in range(1, 6):
            for N in range(6):
                for component in (1, 7, 64, 65, 1000):
                    direct = max(Fraction(0), 2 * (1 - Fraction(S_size**N, component)))
                    assert bounds.simple_gatecount_bound(S_size, N, component) == direct

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.simple_gatecount_bound(0, 2, 100)
        with pytest.raises(ValidationError):
            bounds.simple_gatecount_bound(5, -1, 100)


class TestGatecountRate:
    def test_boundary_and_reference_values(self):
        assert bounds.gatecount_rate(2) == 1.0
        assert bounds.gatecount_rate(3) == pytest.approx(3 * 2 ** (1 / 3 - 1) / 2)

    @given(st.floats(min_value=2.001, max_value=200))
    def test_below_one_past_two(self, c):
        assert bounds.gatecount_rate(c) < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.gatecount_rate(1.0)
        with pytest.raises(ValidationError):
            bounds.gatecount_rate(0.5)


class TestGatecountEnvelope:
    def test_exact_fraction_frozen_value(self):
        exact, rate = bounds.matchgate_gatecount_ratio(12, 3)
        assert exact == Fraction(297926, 2704156)
        assert rate == bounds.gatecount_rate(3)

    def test_exact_below_envelope(self):
        for n in (12, 18, 24, 30, 36):
            exact, _ = bounds.matchgate_gatecount_ratio(n, 3)
            assert float(exact) <= bounds.gatecount_envelope(n, 3)

    def test_threshold_scan(self):
        n0 = envelope_threshold(3, 60)
        assert n0 % 3 == 0
        for n in range(n0, 61, 3):
            exact, _ = bounds.matchgate_gatecount_ratio(n, 3)
            assert float(exact) <= bounds.gatecount_envelope(n, 3)

    def test_envelope_decays(self):
        values = [bounds.gatecount_envelope(n, 3) for n in range(12, 120, 6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.matchgate_gatecount_ratio(12, 2)
        with pytest.raises(ValidationError):
            bounds.matchgate_gatecount_ratio(10, 3)
        with pytest.raises(ValidationError):
            bounds.gatecount_envelope(0, 3)
        with pytest.raises(ValidationError):
            envelope_threshold(2.5, 30)


class TestJohnsonBallSize:
    def test_shell_sums(self):
        assert [bounds.johnson_ball_size(4, N) for N in range(5)] == [1, 17, 53, 69, 70]
        assert bounds.johnson_ball_size(3, 3) == math.comb(6, 3)

    def test_saturates_past_n(self):
        assert bounds.johnson_ball_size(3, 50) == bounds.johnson_ball_size(3, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weight_k_balls_match_the_bfs(self, n):
        # around a weight-k Majorana monomial the full bilinear set swaps one mode in and one out
        from designgap import pauli

        S = groups.matchgate_full_set(n)
        for k in range(1, 2 * n):
            P = pauli.majorana_product(tuple(range(1, k + 1)), n)
            levels = cgraph.component(P, S).levels
            sizes = [sum(level.size for level in levels[: N + 1]) for N in range(len(levels) + 1)]
            assert sizes == [bounds.johnson_ball_size(n, N, k) for N in range(len(levels) + 1)]
            assert bounds.johnson_ball_size(n, 10**18, k) == math.comb(2 * n, k)

    def test_validation(self):
        with pytest.raises(ValidationError):
            bounds.johnson_ball_size(0, 1)
        with pytest.raises(ValidationError):
            bounds.johnson_ball_size(3, -1)
        for k in (-1, 7):
            with pytest.raises(ValidationError):
                bounds.johnson_ball_size(3, 1, k)


class TestFormulaRegistry:
    def test_available_formulas_sorted(self):
        names = bounds.available_formulas()
        assert list(names) == sorted(names)
        assert "matchgate-depth" in names and "povm-symplectic" in names

    def test_report_fields(self):
        rep = bounds.bound_report("matchgate-depth", n=4)
        assert rep.exact == Fraction(9, 7)
        assert rep.value == pytest.approx(9 / 7)
        assert rep.reference == "depth-bound/matchgate"
        assert rep.inputs == {"n": 4}

    def test_float_only_report_has_no_exact(self):
        rep = bounds.bound_report("discrimination", p_shallow=0.9, p_haar=0.3)
        assert rep.exact is None
        assert rep.value == pytest.approx(1.2)

    def test_argument_checking(self):
        with pytest.raises(ValidationError):
            bounds.bound_report("no-such-formula", n=4)
        with pytest.raises(ValidationError):
            bounds.bound_report("matchgate-depth")
        with pytest.raises(ValidationError):
            bounds.bound_report("matchgate-depth", n=4, d=8)

    def test_report_rejects_drifted_float(self):
        with pytest.raises(ValidationError):
            bounds.BoundReport("x", {}, Fraction(1, 3), 0.5, "ref")
