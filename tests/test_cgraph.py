"""Implicit commutator-graph BFS: censuses, balls, ratios, diameters."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_reference, neighbors
from designgap import cgraph, groups, pauli
from designgap.errors import BudgetError, ValidationError


def standard_set(n):
    return groups.matchgate_standard_set(n)


def full_set(n):
    return groups.matchgate_full_set(n)


def _level_distances(levels):
    return {k: d for d, level in enumerate(levels) for k in level.tolist()}


def _ball_sizes(levels):
    return np.cumsum([level.size for level in levels]).tolist()


class TestGeneratorSet:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValidationError):
            cgraph.GeneratorSet(2, (pauli.identity(2), pauli.identity(3)))

    def test_standard_set_contents(self):
        S = standard_set(3)
        texts = {pauli.to_text(g) for g in S.generators}
        assert texts == {"ZII", "IZI", "IIZ", "XXI", "IXX"}

    def test_full_set_size_and_kappa(self):
        # all quadratics c_a c_b with a < b
        for n in (2, 3):
            S = full_set(n)
            assert len(S.generators) == math.comb(2 * n, 2)
            assert all(pauli.majorana_count(g) == 2 for g in S.generators)


class TestNeighbors:
    def test_neighbors_are_anticommuting_products(self):
        S = standard_set(2)
        P = pauli.from_text("XI")
        got = {pauli.to_key(Q) for Q in neighbors(P, S)}
        want = set()
        for g in S.generators:
            if not pauli.commutes(P, g):
                want.add(pauli.to_key(pauli.multiply(g, P)))
        assert got == want

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=50)
    def test_edge_symmetry(self, xk, zk):
        # undirected graph: P adjacent to Q iff Q adjacent to P
        n = 4
        S = standard_set(n)
        P = pauli.PauliString(n, xk & 15, zk & 15)
        for Q in neighbors(P, S):
            back = {pauli.to_key(R) for R in neighbors(Q, S)}
            assert pauli.to_key(P) in back

    def test_commuting_generator_gives_no_edge(self):
        S = cgraph.GeneratorSet(2, (pauli.from_text("ZI"),))
        assert neighbors(pauli.from_text("ZI"), S) == ()
        assert len(neighbors(pauli.from_text("XI"), S)) == 1


class TestComponents:
    def test_single_qubit_component(self):
        S = cgraph.GeneratorSet(1, (pauli.from_text("Z"),))
        comp = cgraph.component(pauli.from_text("X"), S)
        texts = {pauli.to_text(pauli.from_key(k, 1)) for k in comp.keys.tolist()}
        assert texts == {"X", "Y"}
        assert comp.size == 2

    def test_distances_start_at_zero(self):
        comp = cgraph.component(pauli.from_text("ZII"), standard_set(3))
        distances = _level_distances(comp.levels)
        assert distances[pauli.to_key(pauli.from_text("ZII"))] == 0
        assert max(distances.values()) >= 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_census_partitions_everything(self, n):
        # each component holds read-only int64 levels and their sorted keys
        comps = cgraph.census(standard_set(n))
        for comp in comps:
            for a in (*comp.levels, comp.keys):
                assert a.dtype == np.int64
                assert not a.flags.writeable
            assert comp.keys.tolist() == sorted(k for level in comp.levels for k in level.tolist())
            assert type(comp.size) is int and comp.size == comp.keys.size
        seen = [k for c in comps for k in c.keys.tolist()]
        assert len(seen) == 4**n
        assert len(set(seen)) == 4**n

    @pytest.mark.parametrize("radius", [None, 2])
    def test_keys_are_built_on_first_use_read_only_and_sorted(self, radius):
        comp = cgraph.component(pauli.from_text("XZYI"), groups.matchgate_full_set(4), radius=radius)
        assert "keys" not in vars(comp)
        assert comp.size == sum(level.size for level in comp.levels)
        keys = comp.keys
        assert keys is comp.keys
        assert keys.dtype == np.int64 and not keys.flags.writeable
        assert keys.tolist() == sorted(k for level in comp.levels for k in level.tolist())
        assert comp.size == keys.size

    @pytest.mark.parametrize("n,which", [(n, "standard") for n in (2, 3, 5)] + [(n, "full") for n in (2, 4)])
    def test_census_root_is_the_smallest_key_and_keys_are_not_built(self, n, which):
        S = standard_set(n) if which == "standard" else groups.matchgate_full_set(n)
        for comp in cgraph.census(S):
            assert "keys" not in vars(comp)
            assert int(comp.levels[0][0]) == min(int(level.min()) for level in comp.levels)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matchgate_component_sizes_are_binomials(self, n):
        comps = cgraph.census(standard_set(n))
        sizes = sorted(c.size for c in comps)
        assert sizes == sorted(math.comb(2 * n, k) for k in range(2 * n + 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_majorana_count_constant_on_components(self, n):
        for comp in cgraph.census(standard_set(n)):
            kappas = {
                pauli.majorana_count(pauli.from_key(k, n)) for k in comp.keys.tolist()
            }
            assert len(kappas) == 1

    def test_census_cap(self):
        with pytest.raises(BudgetError):
            cgraph.census(standard_set(11))


class TestBalls:
    def test_radius_zero_is_the_vertex(self):
        P = pauli.from_text("ZII")
        ball = cgraph.component(P, standard_set(3), radius=0)
        assert ball.keys.tolist() == [pauli.to_key(P)]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            cgraph.component(pauli.from_text("Z"), standard_set(1), radius=-1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_full_set_balls_match_johnson_counts(self, n):
        # around a kappa=n vertex the graph is the Johnson-style graph on
        # n-subsets of the 2n Majorana modes: shell k holds C(n,k)^2 vertices
        P = pauli.majorana_product(tuple(range(1, n + 1)), n)
        P = pauli.hermitian_representative(P)
        sizes = _ball_sizes(cgraph.component(P, full_set(n)).levels)
        want = []
        running = 0
        for k in range(n + 1):
            running += math.comb(n, k) ** 2
            want.append(running)
        assert sizes == want
        assert sizes[-1] == math.comb(2 * n, n)

    def test_ball_sizes_monotone_and_saturating(self):
        P = pauli.from_text("XZI")
        S = standard_set(3)
        sizes = _ball_sizes(cgraph.component(P, S).levels)
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == cgraph.component(P, S).size

    def test_ball_matches_distance_filter(self):
        P = pauli.from_text("XZI")
        S = standard_set(3)
        comp = cgraph.component(P, S)
        for N in (0, 1, 2, 3):
            want = {k for k, d in _level_distances(comp.levels).items() if d <= N}
            assert set(cgraph.component(P, S, radius=N).keys.tolist()) == want


class TestRegionFraction:
    def test_hand_checked_small_case(self):
        # the kappa=2 component at n=2 is {ZI, IZ, XX, XY, YX, YY}; only
        # ZI is supported inside region {0}
        exact, approx = cgraph.r_fraction(pauli.from_text("ZI"), full_set(2), (0,))
        assert exact == pytest.approx(1 / 6)
        assert approx == pytest.approx(1 / 6)

    @pytest.mark.parametrize("n", [4, 6])
    def test_matchgate_ratio_closed_form(self, n):
        # frozen oracle: C(2n-2, n-1) / C(2n, n-1)
        P = pauli.PauliString(n, 1 << (n // 2 - 1), 0)
        exact, _ = cgraph.r_fraction(P, full_set(n), tuple(range(n - 1)))
        from fractions import Fraction

        assert exact == Fraction(math.comb(2 * n - 2, n - 1), math.comb(2 * n, n - 1))

    def test_support_must_lie_inside_region(self):
        with pytest.raises(ValidationError):
            cgraph.r_fraction(pauli.from_text("IZ"), full_set(2), (0,))

    def test_full_region_gives_one(self):
        exact, _ = cgraph.r_fraction(pauli.from_text("ZI"), full_set(2), (0, 1))
        assert exact == 1


class TestDiameter:
    def test_two_vertex_component(self):
        S = cgraph.GeneratorSet(1, (pauli.from_text("Z"),))
        comp = cgraph.component(pauli.from_text("X"), S)
        assert cgraph.diameter(comp, S).value == 1

    @pytest.mark.parametrize("n,want", [(2, 2), (3, 3)])
    def test_full_set_diameter_is_n(self, n, want):
        S = full_set(n)
        P = pauli.majorana_product(tuple(range(1, n + 1)), n)
        P = pauli.hermitian_representative(P)
        result = cgraph.diameter(cgraph.component(P, S), S, mode="exact")
        assert result.value == want
        assert result.mode == "exact"

    @pytest.mark.parametrize("n,want", [(2, 4), (3, 9)])
    def test_standard_set_diameter_is_n_squared(self, n, want):
        S = standard_set(n)
        P = pauli.majorana_product(tuple(range(1, n + 1)), n)
        P = pauli.hermitian_representative(P)
        assert cgraph.diameter(cgraph.component(P, S), S, mode="exact").value == want

    def test_lower_bound_mode_does_not_exceed_exact(self):
        S = standard_set(3)
        comp = cgraph.component(pauli.from_text("XZI"), S)
        exact = cgraph.diameter(comp, S, mode="exact").value
        lower = cgraph.diameter(comp, S, mode="lower-bound")
        assert lower.mode == "lower-bound"
        assert lower.value <= exact

    def test_auto_mode_chooses_by_search_cost(self, monkeypatch):
        # exact when |C|^2 |S| vertex-generator tests fit in the cost cap
        S = standard_set(3)
        comp = cgraph.component(pauli.from_text("XZI"), S)
        cost = comp.size**2 * len(S.generators)
        monkeypatch.setattr(cgraph, "DIAMETER_EXACT_COST", cost)
        assert cgraph.diameter(comp, S).mode == "exact"
        monkeypatch.setattr(cgraph, "DIAMETER_EXACT_COST", cost - 1)
        assert cgraph.diameter(comp, S).mode == "lower-bound"

    def test_unknown_mode_rejected(self):
        S = standard_set(2)
        comp = cgraph.component(pauli.from_text("ZI"), S)
        with pytest.raises(ValidationError):
            cgraph.diameter(comp, S, mode="approximate")

    @pytest.mark.parametrize("mode", ["auto", "exact", "lower-bound"])
    def test_truncated_ball_is_refused(self, mode):
        # the 1-ball of the weight-3 monomial IXI at n = 3: lower-bound mode gave 8,
        # while the whole component's diameter is 9
        S = standard_set(3)
        P = pauli.from_text("IXI")
        comp = cgraph.component(P, S)
        assert cgraph.diameter(comp, S, mode).value == 9
        for radius in (0, 1, len(comp.levels) - 2):
            with pytest.raises(ValidationError, match="whole component"):
                cgraph.diameter(cgraph.component(P, S, radius=radius), S, mode)
        # a ball whose radius reaches the last level is the whole component
        ball = cgraph.component(P, S, radius=len(comp.levels) - 1)
        assert cgraph.diameter(ball, S, mode).value == 9


class TestMidpointBallProperty:
    @pytest.mark.parametrize("n", [2, 3])
    def test_standard_set_midpoint_ball_is_small(self, n):
        # at N just below half the standard-set diameter n^2, the ball still
        # covers less than half of the component
        S = standard_set(n)
        P = pauli.majorana_product(tuple(range(1, n + 1)), n)
        P = pauli.hermitian_representative(P)
        comp = cgraph.component(P, S)
        N = n * n // 2 - 1
        ball = cgraph.component(P, S, radius=N)
        assert ball.size < comp.size / 2


class TestAgainstDequeOracle:
    """The level-synchronous BFS against the per-vertex deque BFS."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("which", ["standard", "full"])
    def test_census_distances_match(self, n, which):
        S = standard_set(n) if which == "standard" else full_set(n)
        comps = cgraph.census(S)
        assert sum(c.size for c in comps) == 4**n
        for comp in comps:
            want = bfs_reference(pauli.to_key(comp.representative), S)
            assert _level_distances(comp.levels) == want
            assert comp.keys.tolist() == sorted(want)
            assert comp.size == len(want)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("which", ["standard", "full"])
    def test_truncation_at_every_radius(self, n, which):
        S = standard_set(n) if which == "standard" else full_set(n)
        P = pauli.hermitian_representative(pauli.majorana_product(tuple(range(1, n + 1)), n))
        key = pauli.to_key(P)
        radius = max(bfs_reference(key, S).values())
        for N in range(radius + 2):
            want = bfs_reference(key, S, max_dist=N)
            assert _level_distances(cgraph._bfs(key, cgraph._gen_words(S), n, max_dist=N)) == want
            ball = cgraph.component(P, S, radius=N)
            assert _level_distances(ball.levels) == want
            assert ball.keys.tolist() == sorted(want)
            assert _ball_sizes(ball.levels)[-1] == len(want)

    @pytest.mark.parametrize("max_dist", [None, 1, 2, 3])
    def test_budget_raised_at_the_same_size(self, max_dist):
        n = 5
        S = full_set(n)
        key = pauli.to_key(pauli.hermitian_representative(pauli.majorana_product((1, 2, 3, 4, 5), n)))
        size = len(bfs_reference(key, S, max_dist=max_dist))
        words = cgraph._gen_words(S)
        for cap in (size - 1, size // 2, 1):
            with pytest.raises(BudgetError):
                bfs_reference(key, S, max_dist=max_dist, max_size=cap)
            with pytest.raises(BudgetError, match=f"exceeds {cap} vertices"):
                cgraph._bfs(key, words, n, max_dist=max_dist, max_size=cap)
        got = cgraph._bfs(key, words, n, max_dist=max_dist, max_size=size)
        assert _level_distances(got) == bfs_reference(key, S, max_dist=max_dist, max_size=size)

    def test_chunked_expansion_matches(self, monkeypatch):
        # a tiny chunk forces the multi-pass merge and the early budget exit
        monkeypatch.setattr(cgraph, "CANDIDATE_CHUNK", 7)
        n = 4
        S = full_set(n)
        for comp in cgraph.census(S):
            assert _level_distances(comp.levels) == bfs_reference(pauli.to_key(comp.representative), S)
        key = pauli.to_key(pauli.hermitian_representative(pauli.majorana_product((1, 2, 3, 4), n)))
        size = math.comb(2 * n, n)
        words = cgraph._gen_words(S)
        with pytest.raises(BudgetError):
            cgraph._bfs(key, words, n, max_size=size - 1)
        assert sum(level.size for level in cgraph._bfs(key, words, n, max_size=size)) == size

    @pytest.mark.parametrize("n", [3, 4])
    def test_region_fraction_matches_member_count(self, n):
        S = standard_set(n)
        P = pauli.from_text("X" + "I" * (n - 1))
        region = tuple(range(n - 1))
        members = bfs_reference(pauli.to_key(P), S)
        inside = sum(1 for k in members if set(pauli.support(pauli.from_key(k, n))) <= set(region))
        exact, _ = cgraph.r_fraction(P, S, region)
        assert exact == Fraction(inside, len(members))


class TestKeyWidth:
    def test_wide_keys_rejected(self):
        # 2n-bit keys fit in int64 only up to n = 31
        n = cgraph.KEY_QUBIT_CAP + 1
        S = standard_set(n)
        with pytest.raises(BudgetError, match=f"n <= {cgraph.KEY_QUBIT_CAP}"):
            cgraph.component(pauli.PauliString(n, 1, 0), S)
        with pytest.raises(BudgetError, match=f"n <= {cgraph.KEY_QUBIT_CAP}"):
            cgraph.component(pauli.PauliString(n, 1, 0), S, radius=1)

    def test_widest_keys_accepted(self):
        n = cgraph.KEY_QUBIT_CAP
        S = full_set(n)
        P = pauli.PauliString(n, 1 << (n - 1), 0)
        sizes = _ball_sizes(cgraph.component(P, S, radius=1).levels)
        assert sizes == [1, 1 + 2 * n - 1]


class TestParityTables:
    """The per-byte anticommutation tables against the symplectic product."""

    @pytest.mark.parametrize("n", [1, 4, 5, cgraph.KEY_QUBIT_CAP])
    @pytest.mark.parametrize("which", ["standard", "full"])
    def test_tables_match_commutes(self, n, which):
        # at n = 5 the 10-bit keys end inside a byte; at n = 31 bit 61 reaches the top byte
        S = standard_set(n) if which == "standard" else full_set(n)
        keys, tables = cgraph._gen_words(S)
        assert len(tables) == -(-2 * n // 8)
        assert all(t.shape == (256, len(S.generators)) and t.dtype == bool for t in tables)
        rng = np.random.default_rng(n)
        v = rng.integers(0, 1 << (2 * n), size=24, dtype=np.int64)
        if n == cgraph.KEY_QUBIT_CAP:
            v[::2] |= 1 << 61
        odd = np.zeros((v.size, keys.size), dtype=bool)
        for b, table in enumerate(tables):
            odd ^= table[(v >> (8 * b)) & 0xFF]
        for row, key in zip(odd, v.tolist()):
            P = pauli.from_key(key, n)
            assert row.tolist() == [not pauli.commutes(P, g) for g in S.generators]

    @pytest.mark.parametrize("n", [4, 5, cgraph.KEY_QUBIT_CAP])
    def test_neighbor_keys_are_the_anticommuting_products(self, n):
        S = full_set(n)
        rng = np.random.default_rng(n + 100)
        level = np.unique(rng.integers(0, 1 << (2 * n), size=5, dtype=np.int64))
        got = cgraph._neighbor_keys(level, cgraph._gen_words(S), n, cgraph.COMPONENT_SIZE_CAP)
        want = set()
        for key in level.tolist():
            P = pauli.from_key(key, n)
            want |= {pauli.to_key(pauli.multiply(g, P)) for g in S.generators if not pauli.commutes(P, g)}
        assert got.tolist() == sorted(want)


class TestCensusBitmap:
    """The census drops visited candidates through its bitmap; a component
    drops the last two levels.  Both must give the same levels."""

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize(
        "n,which", [(n, "standard") for n in range(2, 9)] + [(n, "full") for n in range(2, 7)]
    )
    def test_census_levels_equal_component_levels(self, monkeypatch, chunk, n, which):
        # a chunk of 7 pairs splits every level into many passes and merges
        if chunk is not None:
            monkeypatch.setattr(cgraph, "CANDIDATE_CHUNK", chunk)
        S = standard_set(n) if which == "standard" else full_set(n)
        comps = cgraph.census(S)
        assert sum(c.size for c in comps) == 4**n
        for comp in comps:
            alone = cgraph.component(comp.representative, S)
            assert len(comp.levels) == len(alone.levels)
            for a, b in zip(comp.levels, alone.levels):
                assert a.dtype == b.dtype == np.int64
                assert a.tobytes() == b.tobytes()
