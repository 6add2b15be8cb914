"""Moment estimators: closed-form twirls, commutant bases, indicators."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from designgap import cgraph, densesim, groups, moments, pauli
from designgap.errors import BudgetError, ValidationError

from conftest import (
    commutant_overlap_estimates,
    frobenius_schur_reference,
    haar_commutant_reference,
    matchgate_form_2,
    mixed_unitary_fs_reference,
    quadratic_symmetry_basis,
    second_moment_matrix_reference,
    second_moment_trace_dense_reference,
    spread_uniformity_reference,
    swap_trace_reference,
    symmetry_gram_report,
)


class TestWeingartenCoefficients:
    def test_orthogonal_values(self):
        a, b, g = moments.weingarten_coefficients("orthogonal", 4)
        assert (a, b, g) == (Fraction(-2, 18), Fraction(4, 18), Fraction(4, 18))
        a8, b8, g8 = moments.weingarten_coefficients("orthogonal", 8)
        assert (a8, b8, g8) == (Fraction(-2, 70), Fraction(8, 70), Fraction(8, 70))

    def test_symplectic_values(self):
        a, b, g = moments.weingarten_coefficients("symplectic", 4)
        assert (a, b, g) == (Fraction(-1, 5), Fraction(2, 5), Fraction(-2, 5))
        a8, b8, g8 = moments.weingarten_coefficients("symplectic", 8)
        assert (a8, b8, g8) == (Fraction(-2, 54), Fraction(8, 54), Fraction(-8, 54))

    def test_symplectic_needs_even_dimension_at_least_four(self):
        with pytest.raises(ValidationError):
            moments.weingarten_coefficients("symplectic", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            moments.weingarten_coefficients("unitary", 4)


class TestFormInsertion:
    def test_trace_signs(self):
        # Tr[E] = d Phi^T (1 x Omega^2) Phi = d for symmetric forms, -d for
        # the antisymmetric symplectic form
        E_o = moments.form_insertion_dense(groups.orthogonal_form(2), 2)
        assert np.trace(E_o) == pytest.approx(4.0)
        E_s = moments.form_insertion_dense(groups.symplectic_form(2), 2)
        assert np.trace(E_s) == pytest.approx(-4.0)

    def test_rank_one(self):
        E = moments.form_insertion_dense(groups.symplectic_form(2), 2)
        assert np.linalg.matrix_rank(E, tol=1e-10) == 1

    def test_invariance_under_group_samples(self):
        # (U x U) E (U x U)^dag = E for group members
        from designgap.rng import sample_stream

        for kind in ("orthogonal", "symplectic"):
            G = groups.group_spec(kind, 2)
            E = moments.form_insertion_dense(G.form, 2)
            for i in range(4):
                U = groups.sample_haar(G, sample_stream(77, i))
                W = np.kron(U, U)
                assert np.max(np.abs(W @ E @ W.conj().T - E)) < 1e-8


class TestClosedFormTwirl:
    def test_pointwise_trace_identities(self):
        # Tr[E(A x A)] with A = UZU^dag traceless: Tr of the twirl is 0;
        # against the swap it is Tr[A^2] = d
        for kind, n in [("orthogonal", 2), ("symplectic", 2), ("orthogonal", 3), ("symplectic", 3)]:
            d = 1 << n
            closed = moments.second_moment_closed_form(kind, n)
            S = densesim.swap_region(tuple(range(n)), n)
            assert np.trace(closed) == pytest.approx(0.0, abs=1e-12)
            assert np.trace(closed @ S) == pytest.approx(d, abs=1e-12)

    def test_swap_conjugation_symmetry(self):
        for kind in ("orthogonal", "symplectic"):
            closed = moments.second_moment_closed_form(kind, 2)
            S = densesim.swap_region((0, 1), 2)
            assert np.max(np.abs(S @ closed @ S - closed)) < 1e-12

    @pytest.mark.parametrize("kind", ["orthogonal", "symplectic"])
    @pytest.mark.parametrize("n, samples", [(2, 4000), (4, 2000)])
    def test_monte_carlo_agrees_entrywise(self, kind, n, samples):
        # dual route: sampled average of (UZU+)^{x2} vs the closed form, every one of the d^4 entries
        G = groups.group_spec(kind, n)
        V = pauli.PauliString(n, 0, 1)
        mean, stderr = moments.mc_second_moment_matrix(G, V, samples, 17)
        closed = moments.second_moment_closed_form(kind, n)
        dev = np.abs(mean - closed)
        assert bool((dev <= np.maximum(5 * stderr, 1e-12)).all())

    def test_twirl_budget_is_exact_at_the_cap(self, monkeypatch):
        # per sample at d = 4: the draw d^3, the conjugation 2 d^3, the two Gram products d^4 each and the
        # fixed cost; per 64-sample chunk the two running sums of d^4 entries each
        G, V = groups.group_spec("orthogonal", 2), pauli.PauliString(2, 0, 1)
        monkeypatch.setattr(moments, "FS_COST_CAP", 5 * (64 + 128 + 512 + moments.SAMPLE_FIXED_COST) + 512)
        moments.mc_second_moment_matrix(G, V, 5, 0)
        parts = r"Gram products of the draws and of their squared moduli 3\.07e\+3, .*chunk sums 5\.12e\+2\)"
        with pytest.raises(BudgetError, match=parts):
            moments.mc_second_moment_matrix(G, V, 6, 0)


class TestSecondMomentTrace:
    def test_swap_tag_matches_dense_route(self):
        # Tr[(UVU+)^{x2} swap_L] via partial traces equals the dense kron route
        G = groups.group_spec("orthogonal", 2)
        V = pauli.PauliString(2, 0, 1)
        region = (0,)
        tag = moments.mc_second_moment_trace(G, V, region, 500, 23)
        dense = second_moment_trace_dense_reference(G, V, densesim.swap_region(region, 2), 500, 23)
        assert tag.mean == pytest.approx(dense.mean, abs=1e-10)
        assert tag.stderr == pytest.approx(dense.stderr, abs=1e-10)

    def test_haar_value_matches_povm_formula(self):
        from designgap import bounds

        G = groups.group_spec("orthogonal", 3)
        V = pauli.PauliString(3, 0, 1)
        region = (0, 1)
        est = moments.mc_second_moment_trace(G, V, region, 4000, 29)
        p = bounds.exact_haar_povm_probability("orthogonal", 8, 4)
        want = float(p) * 8 * 2  # p * d * d_C
        assert abs(est.mean - want) < 5 * est.stderr


class TestQuadraticSymmetries:
    def test_basis_is_orthonormal(self):
        S = groups.matchgate_full_set(2)
        syms = [groups.matchgate_form_1(2).representation, matchgate_form_2(2).representation]
        basis = quadratic_symmetry_basis(S, syms)
        report = symmetry_gram_report(basis)
        gram = report["gram"]
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10
        assert report["collisions"] == []

    def test_kappa_labels_match_components(self):
        S = groups.matchgate_full_set(2)
        basis = quadratic_symmetry_basis(S, [groups.matchgate_form_1(2).representation])
        kappas = sorted({q.kappa for q in basis})
        assert kappas == [0, 1, 2, 3, 4]

    def test_duplicate_symmetries_rejected(self):
        S = groups.matchgate_full_set(2)
        L = groups.matchgate_form_1(2).representation
        with pytest.raises(ValidationError):
            quadratic_symmetry_basis(S, [L, L])

    def test_elements_commute_with_two_copy_action(self):
        # Q_L commutes with U x U exactly when L itself commutes with the
        # group, so the commutant basis pairs the components with the
        # identity and the parity word rather than the form words.
        from designgap.rng import sample_stream

        G = groups.group_spec("matchgate", 2)
        S = groups.matchgate_full_set(2)
        syms = [pauli.identity(2), pauli.from_text("ZZ")]
        basis = quadratic_symmetry_basis(S, syms)
        assert len(basis) == 2 * len(cgraph.census(S))
        for k in range(3):
            U = groups.sample_haar(G, sample_stream(5, k))
            W = np.kron(U, U)
            for q in basis:
                Q = q.dense()
                assert np.max(np.abs(W @ Q - Q @ W)) < 1e-10

    def test_twirled_pauli_overlaps_single_label(self):
        # (U P U*)^{x2} expands with Parseval weight d/sqrt|C| on the
        # identity label of P's component and nothing anywhere else
        G = groups.group_spec("matchgate", 2)
        S = groups.matchgate_full_set(2)
        syms = [pauli.identity(2), pauli.from_text("ZZ")]
        basis = quadratic_symmetry_basis(S, syms)
        P = pauli.from_text("ZI")
        mean, err = commutant_overlap_estimates(G, P, basis, 200, seed=23)
        hit = pauli.majorana_count(P)
        for q, m, e in zip(basis, mean, err):
            if q.j == 0 and q.kappa == hit:
                assert abs(m - 4 / np.sqrt(6)) < 1e-10
                assert e < 1e-10
            else:
                assert abs(m) <= 5 * max(e, 1e-12)

    def test_form_words_do_not_commute(self):
        # the invariant bilinear forms satisfy U^T L U = L, not U L = L U,
        # so pairing with them leaves the commutant
        from designgap.rng import sample_stream

        G = groups.group_spec("matchgate", 2)
        S = groups.matchgate_full_set(2)
        basis = quadratic_symmetry_basis(S, [groups.matchgate_form_1(2).representation])
        U = groups.sample_haar(G, sample_stream(5, 0))
        W = np.kron(U, U)
        worst = max(np.max(np.abs(W @ q.dense() - q.dense() @ W)) for q in basis)
        assert worst > 1e-2


class TestSpreadUniformity:
    def test_matchgate_component_spread(self):
        G = groups.GroupSpec("matchgate", 2, groups.matchgate_form_1(2))
        P = pauli.from_text("ZI")
        report = moments.haar_spread_uniformity(G, groups.matchgate_full_set(2), P, 1500, 31)
        assert report.component_size == 6
        assert report.off_component_max < 1e-9
        for est in report.masses:
            assert abs(est.mean - 1 / 6) <= 5 * max(est.stderr, 1e-12)

    def test_masses_sum_to_one(self):
        G = groups.GroupSpec("matchgate", 2, groups.matchgate_form_1(2))
        report = moments.haar_spread_uniformity(G, groups.matchgate_full_set(2), pauli.from_text("ZI"), 400, 33)
        total = sum(e.mean for e in report.masses)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "G,S",
        [
            (groups.GroupSpec("matchgate", 3, groups.matchgate_form_1(3)), groups.matchgate_full_set(3)),
            (groups.group_spec("orthogonal", 2), groups.generator_set("orthogonal", 2)),
        ],
        ids=["matchgate-full-n3", "orthogonal-n2"],
    )
    def test_report_is_the_per_sample_report(self, G, S):
        # 130 samples: two whole 64-sample chunks and a partial one
        P = pauli.PauliString(G.n, 0, 1)
        got = moments.haar_spread_uniformity(G, S, P, 130, 37)
        want = spread_uniformity_reference(G, S, P, 130, 37)
        assert got.vertex_keys == want.vertex_keys and got.component_size == want.component_size
        for a, b in zip(got.masses, want.masses, strict=True):
            assert np.array([a.mean, a.stderr]).tobytes() == np.array([b.mean, b.stderr]).tobytes()
            assert (a.samples, a.seed) == (b.samples, b.seed)
        assert np.float64(got.off_component_max).tobytes() == np.float64(want.off_component_max).tobytes()


class TestIndicators:
    def test_even_parity_projector(self):
        Pi = moments.even_parity_projector(2)
        assert np.allclose(Pi, np.diag([1.0, 0.0, 0.0, 1.0]))
        Z2 = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(float)
        assert np.allclose(Pi, (np.eye(4) + Z2) / 2)

    @pytest.mark.parametrize(
        "kind,want", [("unitary", 0.0), ("orthogonal", 1.0), ("symplectic", -1.0)]
    )
    def test_frobenius_schur_haar_families(self, kind, want):
        G = groups.group_spec(kind, 2)
        est = moments.frobenius_schur(G, None, 3000, 41)
        assert abs(est.mean - want) <= 5 * max(est.stderr, 1e-12)

    def test_cost_budget_counts_lifts_per_draw(self, monkeypatch):
        # a matchgate draw at n=3 multiplies n(2n-1) = 15 lifts of 8 x 8; every sample adds the fixed cost
        G = groups.group_spec("matchgate", 3)
        fixed = moments.SAMPLE_FIXED_COST
        monkeypatch.setattr(moments, "FS_COST_CAP", 10 * (15 * 8**3 + fixed))
        assert moments.frobenius_schur(G, None, 10, 0).samples == 10
        with pytest.raises(BudgetError):
            moments.frobenius_schur(G, None, 11, 0)
        # other kinds cost d^3 per draw: 276800 / (16^3 + 20000) = 11.5 samples at n=4
        assert moments.frobenius_schur(groups.group_spec("orthogonal", 4), None, 11, 0).samples == 11
        with pytest.raises(BudgetError):
            moments.frobenius_schur(groups.group_spec("orthogonal", 4), None, 12, 0)

    def test_matchgate_parity_sector(self):
        G2 = groups.group_spec("matchgate", 2)
        est2 = moments.frobenius_schur(G2, moments.even_parity_projector(2), 3000, 43)
        assert abs(est2.mean + 1.0) <= 5 * est2.stderr
        G4 = groups.group_spec("matchgate", 4)
        est4 = moments.frobenius_schur(G4, moments.even_parity_projector(4), 3000, 43)
        assert abs(est4.mean - 1.0) <= 5 * est4.stderr

    def test_mixed_unitary_fourth_moment(self):
        est = moments.mixed_unitary_fs(4, 3000, 47)
        assert abs(est.mean - 2.0) <= 5 * est.stderr


class TestMixedCommutant:
    def test_clifford_exact(self):
        est = moments.mixed_unitary_commutant_dimension("clifford_enumeration", n=1)
        assert est.mean == pytest.approx(2.0, abs=1e-9)
        assert est.stderr == 0.0

    def test_pauli_exact(self):
        est = moments.mixed_unitary_commutant_dimension("pauli_enumeration", n=1)
        assert est.mean == pytest.approx(4.0, abs=1e-12)
        est2 = moments.mixed_unitary_commutant_dimension("pauli_enumeration", n=2)
        assert est2.mean == pytest.approx(16.0, abs=1e-12)

    def test_haar_matches_commutant_dimension(self):
        est = moments.mixed_unitary_commutant_dimension("haar_unitary", d=4, M=4000, seed=51)
        assert abs(est.mean - 2.0) <= 5 * est.stderr

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValidationError):
            moments.mixed_unitary_commutant_dimension("haar_unitary", d=4)
        with pytest.raises(ValidationError):
            moments.mixed_unitary_commutant_dimension("clifford_enumeration")


class TestStackedEstimators:
    """Each chunk-stacked estimator equals its per-sample reference bit for bit; the twirl, whose
    Gram products sum in another order than the per-sample Kronecker squares, to TWIRL_TOL."""

    COUNTS = (1, 63, 64, 65, 130)
    # largest entry difference of the twirl's mean or stderr from the np.kron route: entries are
    # at most 1 in modulus, and the two routes differ by rounding (2.2e-16 seen at n = 2, 3)
    TWIRL_TOL = 64 * np.finfo(np.float64).eps

    @staticmethod
    def same(a, b):
        return a.tobytes() == b.tobytes()

    def check_all(self):
        for kind, n in (("orthogonal", 2), ("symplectic", 2), ("orthogonal", 3)):
            G = groups.group_spec(kind, n)
            V = pauli.PauliString(n, 0, 1)
            for M in self.COUNTS:
                got = moments.mc_second_moment_matrix(G, V, M, 3)
                want = second_moment_matrix_reference(G, V, M, 3)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and np.max(np.abs(g - w)) <= self.TWIRL_TOL, (kind, n, M)
        for kind, n in (("orthogonal", 3), ("symplectic", 3), ("unitary", 2), ("matchgate", 2)):
            G = groups.group_spec(kind, n)
            V = pauli.PauliString(n, 0, 1)
            for M in self.COUNTS:
                assert moments.frobenius_schur(G, None, M, 5) == frobenius_schur_reference(G, None, M, 5)
                assert moments.mc_second_moment_trace(G, V, (0,), M, 7) == swap_trace_reference(G, V, (0,), M, 7)
        Pi = moments.even_parity_projector(3)
        G = groups.group_spec("orthogonal", 3)
        assert moments.frobenius_schur(G, Pi, 65, 9) == frobenius_schur_reference(G, Pi, 65, 9)
        for d in (3, 4):
            for M in self.COUNTS:
                assert moments.mixed_unitary_fs(d, M, 11) == mixed_unitary_fs_reference(d, M, 11)
                got = moments.mixed_unitary_commutant_dimension("haar_unitary", d=d, M=M, seed=13)
                assert got == haar_commutant_reference(d, M, 13)

    def test_default_chunks(self):
        self.check_all()

    def test_odd_chunk_size(self, monkeypatch):
        # the references sum in chunks of rng.CHUNK_SIZE too
        monkeypatch.setattr(moments.rng, "CHUNK_SIZE", 7)
        self.check_all()

    def test_small_stack_bound(self, monkeypatch):
        # blocks of three draws: sums continue row by row across blocks
        monkeypatch.setattr(moments.rng, "STACK_BYTES", 3 * 16 * 256)
        self.check_all()

    def test_twirl_does_not_depend_on_the_stack_bound(self, monkeypatch):
        # the twirl sums whole chunks, so no block size reaches its bytes
        cases = [(kind, n, M) for kind, n in (("orthogonal", 2), ("symplectic", 3)) for M in (1, 65, 130)]

        def twirls():
            out = []
            for kind, n, M in cases:
                G, V = groups.group_spec(kind, n), pauli.PauliString(n, 0, 1)
                mean, stderr = moments.mc_second_moment_matrix(G, V, M, 3)
                out.append(mean.tobytes() + stderr.tobytes())
            return out

        want = twirls()
        for stack_bytes in (1, 3 * 16 * 256):
            monkeypatch.setattr(moments.rng, "STACK_BYTES", stack_bytes)
            assert twirls() == want

    def test_twirl_memory_is_bounded_at_five_qubits(self):
        # 64 Kronecker squares at n = 5 would take 1 GiB, and one square at a time peaked at 80 MiB;
        # the Gram route holds the two d^4 running sums, one chunk's two Gram products, and then
        # the mean and stderr with their permuted copies: 64 MiB
        G = groups.group_spec("orthogonal", 5)
        tracemalloc.start()
        try:
            moments.mc_second_moment_matrix(G, pauli.PauliString(5, 0, 1), 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 72 * 2**20
