"""Group specifications, invariant forms, Haar samplers, shallow circuits."""

import dataclasses
import math

import numpy as np
import pytest

from designgap import cgraph, experiments, groups, pauli, rng as dgrng
from designgap.errors import BudgetError, InvariantError, ValidationError

from conftest import (
    _local_gate_reference,
    adjoint_majorana_matrix,
    apply_two_copy,
    bilinear_plane_reference,
    clifford_table_reference,
    draw_factors_reference,
    enumerate_clifford_by_levels,
    enumerate_clifford_reference,
    fresh_stream,
    gate_sequence_rotation_reference,
    generator_set_reference,
    haar_special_orthogonal_reference,
    haar_symplectic_mgs,
    invariant_form_check,
    invariant_state,
    kron_chain,
    matchgate_form_2,
    membership_failure,
    pauli_coefficients,
    rotate_by_exponentials_reference,
    sample_shallow,
    sample_shallow_reference,
    sample_shallow_rotation_reference,
    sample_shallow_stack,
    swap_qubit_permutation,
    symplectic_canonical,
    verify_group_membership,
)


def stream(i=0):
    return dgrng.sample_stream(123, i)


class TestBilinearForms:
    def test_matchgate_form_words(self):
        assert pauli.to_text(groups.matchgate_form_1(4).representation) == "XYXY"
        assert pauli.to_text(matchgate_form_2(4).representation) == "YXYX"
        assert pauli.to_text(groups.matchgate_form_1(3).representation) == "XYX"

    def test_symmetry_detection(self):
        assert groups.matchgate_form_1(4).symmetry == "symmetric"
        assert groups.matchgate_form_1(3).symmetry == "antisymmetric"
        assert groups.orthogonal_form(2).symmetry == "symmetric"
        assert groups.symplectic_form(2).symmetry == "antisymmetric"

    def test_symplectic_form_qubit_placement(self):
        assert groups.symplectic_form_qubit(1) == 0
        assert groups.symplectic_form_qubit(2) == 1
        assert groups.symplectic_form_qubit(5) == 1

    def test_symplectic_form_is_real_antisymmetric(self):
        Om = groups.symplectic_form(2).dense()
        assert np.allclose(Om.imag, 0)
        assert np.allclose(Om.T, -Om)
        assert np.allclose(Om @ Om.T, np.eye(4))

    def test_dense_matches_kron_oracle(self):
        Om = groups.matchgate_form_1(3).dense()
        assert np.allclose(Om, kron_chain("XYX"))

    def test_only_pauli_forms_are_accepted(self):
        with pytest.raises(ValidationError, match="phased Pauli, got ndarray"):
            groups.bilinear_form(np.eye(4))

    def test_dense_forms_are_unitary(self):
        # a phased Pauli's inverse is its adjoint, which the two-copy oracle unwinds the form by
        for form in (groups.matchgate_form_1(2), groups.symplectic_form(2), groups.orthogonal_form(2)):
            Om = form.dense()
            assert np.allclose(Om.conj().T @ Om, np.eye(4))


class TestFormInvariance:
    def test_pauli_form_condition_matches_dense_algebra(self):
        # exp(i theta P) preserves Omega exactly when P^T Omega + Omega P = 0
        for n in (2, 3):
            word = groups.matchgate_form_1(n).representation
            Om = groups.matchgate_form_1(n).dense()
            for key in range(4**n):
                P = pauli.from_key(key, n)
                dense = pauli.to_dense(P)
                want = np.allclose(dense.T @ Om + Om @ dense, 0)
                assert groups.pauli_form_condition(P, word) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shipped_generator_sets_preserve_their_forms(self, n):
        pairs = [
            (groups.matchgate_form_1(n), groups.matchgate_standard_set(n)),
            (groups.matchgate_form_1(n), groups.matchgate_full_set(n)),
            (matchgate_form_2(n), groups.matchgate_standard_set(n)),
            (groups.orthogonal_form(n), groups.generator_set("orthogonal", n)),
            (groups.symplectic_form(n), groups.generator_set("symplectic", n)),
        ]
        for form, S in pairs:
            assert invariant_form_check(form, S)

    def test_violating_generator_detected(self):
        # a plain X generator does not preserve the identity form
        S = cgraph.GeneratorSet(2, (pauli.from_text("XI"),))
        assert not invariant_form_check(groups.orthogonal_form(2), S)

    def test_invariant_state_is_fixed_by_samples(self):
        for kind, n in [("matchgate", 2), ("matchgate", 3), ("orthogonal", 2), ("symplectic", 2)]:
            G = groups.group_spec(kind, n)
            psi = invariant_state(G.form, n)
            assert np.linalg.norm(psi) == pytest.approx(1.0)
            for i in range(5):
                U = groups.sample_haar(G, stream(i))
                moved = apply_two_copy(U, U, psi)
                assert np.max(np.abs(moved - psi)) < 1e-10


class TestGeneratorFactories:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 31])
    @pytest.mark.parametrize(
        "kind,which",
        [("matchgate", "standard"), ("matchgate", "full"), ("orthogonal", "standard"),
         ("symplectic", "standard"), ("unitary", "standard"), ("mixed_unitary", "standard")],
    )
    def test_generator_set_keeps_the_per_kind_order(self, kind, which, n):
        # gate-count draws index the generators by position, so the order is part of the output
        got = groups.generator_set(kind, n, which)
        assert got.n == n
        assert got.generators == generator_set_reference(kind, n, which).generators

    def test_generator_set_refusals(self):
        with pytest.raises(ValidationError, match="matchgate group only"):
            groups.generator_set("unitary", 2, "full")
        with pytest.raises(ValidationError, match="no commutator-graph generator set"):
            groups.generator_set("clifford", 2)
        with pytest.raises(BudgetError, match=f"n <= {cgraph.KEY_QUBIT_CAP}"):
            groups.generator_set("orthogonal", cgraph.KEY_QUBIT_CAP + 1)

    def test_orthogonal_generators_have_odd_y_count(self):
        S = groups.generator_set("orthogonal", 3)
        assert all(pauli.y_count(g) % 2 == 1 for g in S.generators)
        assert len(S.generators) > 0

    def test_symplectic_generators_satisfy_form_condition(self):
        n = 3
        word = groups.symplectic_form(n).representation
        S = groups.generator_set("symplectic", n)
        assert all(groups.pauli_form_condition(g, word) for g in S.generators)

    def test_unitary_set_is_all_chain_local(self):
        S = groups.generator_set("unitary", 3)
        # 1-local on 3 qubits plus 2-local on 2 adjacent pairs
        assert len(S.generators) == 3 * 3 + 2 * 9

    def test_generators_act_locally_on_the_chain(self):
        for S in (groups.generator_set("orthogonal", 4), groups.generator_set("symplectic", 4)):
            for g in S.generators:
                sup = pauli.support(g)
                assert len(sup) <= 2
                if len(sup) == 2:
                    assert sup[1] - sup[0] == 1


class TestGroupSpec:
    def test_defaults_are_wired(self):
        G = groups.group_spec("matchgate", 3)
        assert [f.name for f in dataclasses.fields(G)] == ["kind", "n", "form"]
        assert (G.kind, G.n, pauli.to_text(G.form.representation)) == ("matchgate", 3, "XYX")
        assert G.dense_dimension == 8
        assert groups.group_spec("unitary", 3).form is None
        assert "custom_pauli_compatible" not in groups.GROUP_KINDS

    @pytest.mark.parametrize("kind", ["matchgate", "orthogonal", "symplectic", "unitary", "mixed_unitary"])
    def test_group_spec_builds_no_generator(self, monkeypatch, kind):
        # only the form's Pauli is built: no generator set, however many qubits
        def refuse(*args):
            raise AssertionError("a generator set was built")

        for name in ("matchgate_standard_set", "matchgate_full_set", "_chain_local_paulis", "generator_set"):
            monkeypatch.setattr(groups, name, refuse)
        built = []
        monkeypatch.setattr(pauli.PauliString, "__post_init__", lambda P: built.append(P))
        G = groups.group_spec(kind, cgraph.KEY_QUBIT_CAP)
        assert G.n == cgraph.KEY_QUBIT_CAP
        assert len(built) == (G.form is not None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            groups.group_spec("antiunitary", 2)

    def test_clifford_cap(self):
        with pytest.raises(BudgetError):
            groups.group_spec("clifford", 3)

    @pytest.mark.parametrize("kind", ["matchgate", "orthogonal", "symplectic", "unitary"])
    def test_qubit_range_checked_before_building(self, kind):
        # a generator set at n = 10^6 would take hours; refused at once
        with pytest.raises(BudgetError, match=f"n <= {cgraph.KEY_QUBIT_CAP}"):
            groups.group_spec(kind, 10**6)
        with pytest.raises(ValidationError):
            groups.group_spec(kind, 0)
        assert groups.group_spec(kind, cgraph.KEY_QUBIT_CAP).n == cgraph.KEY_QUBIT_CAP
        with pytest.raises(BudgetError):
            groups.matchgate_full_set(10**6)


class TestHaarSamplers:
    def test_unitary_is_unitary(self):
        U = groups.haar_unitary_stack(8, [stream()])[0]
        assert np.max(np.abs(U.conj().T @ U - np.eye(8))) < 1e-12

    def test_unitary_first_entry_distribution(self):
        # |U_00|^2 of a Haar unitary column is Beta(1, d-1):
        # P(|U_00|^2 <= t) = 1 - (1-t)^(d-1).  Hand-rolled KS check.
        d, M = 4, 2000
        vals = np.sort(
            [abs(groups.haar_unitary_stack(d, [stream(i)])[0][0, 0]) ** 2 for i in range(M)]
        )
        cdf = 1 - (1 - vals) ** (d - 1)
        emp_hi = np.arange(1, M + 1) / M
        emp_lo = np.arange(0, M) / M
        D = max(np.max(np.abs(cdf - emp_hi)), np.max(np.abs(cdf - emp_lo)))
        assert D < 2.5 / math.sqrt(M)

    def test_orthogonal_is_real_orthogonal(self):
        U = groups.haar_orthogonal_stack(8, [stream()])[0]
        assert np.max(np.abs(U.imag)) == 0
        assert np.max(np.abs(U.T @ U - np.eye(8))) < 1e-12

    def test_orthogonal_hits_both_determinant_signs(self):
        dets = {round(float(np.linalg.det(groups.haar_orthogonal_stack(4, [stream(i)])[0].real))) for i in range(40)}
        assert dets == {-1, 1}

    def test_special_orthogonal_determinant(self):
        for i in range(10):
            R = groups.haar_special_orthogonal(6, [stream(i)])[0]
            assert np.linalg.det(R) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symplectic_preserves_form(self, n):
        G = groups.group_spec("symplectic", n) if n >= 1 else None
        Om = groups.symplectic_form(n).dense()
        for i in range(8):
            U = groups.haar_symplectic(n, [stream(i)])[0]
            assert np.max(np.abs(U.conj().T @ U - np.eye(1 << n))) < 1e-10
            assert np.max(np.abs(U.T @ Om @ U - Om)) < 1e-8

    def test_givens_reconstruction(self):
        # factors compose right to left: R = G(t_k) ... G(t_1)
        R = groups.haar_special_orthogonal(6, [stream(3)])[0]
        rebuilt = np.eye(6)
        for a, b, theta in groups.givens_decompose(R):
            G = np.eye(6)
            G[a, a] = G[b, b] = math.cos(theta)
            G[b, a] = -math.sin(theta)
            G[a, b] = math.sin(theta)
            rebuilt = G @ rebuilt
        assert np.max(np.abs(rebuilt - R)) < 1e-9

    def test_givens_rejects_reflections(self):
        R = np.diag([1.0, -1.0])
        with pytest.raises(ValidationError):
            groups.givens_decompose(R)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matchgate_adjoint_action_is_special_orthogonal(self, n):
        for i in range(6):
            U = groups.haar_matchgate(n, stream(i))
            O, resid = adjoint_majorana_matrix(U, n)
            assert resid < 1e-9
            assert np.max(np.abs(O.T @ O - np.eye(2 * n))) < 1e-9
            assert np.linalg.det(O) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matchgate_adjoint_reproduces_the_drawn_rotation(self, n):
        # the sampler is the lift of a Haar SO(2n) draw, not merely some
        # group element: the adjoint action must equal that draw exactly
        for i in range(4):
            R = groups.haar_special_orthogonal(2 * n, [stream(i)])[0]
            U = groups.haar_matchgate(n, stream(i))
            O, _ = adjoint_majorana_matrix(U, n)
            assert np.max(np.abs(O - R)) < 1e-9

    def test_matchgate_preserves_both_forms(self):
        n = 3
        U = groups.haar_matchgate(n, stream(4))
        for form in (groups.matchgate_form_1(n), matchgate_form_2(n)):
            Om = form.dense()
            assert np.max(np.abs(U.T @ Om @ U - Om)) < 1e-8

    def test_clifford_sizes(self):
        assert len(groups.enumerate_clifford(1)) == 24
        assert len(groups.enumerate_clifford(2)) == 11520

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", [None, 7])
    def test_clifford_enumeration_matches_reference(self, monkeypatch, n, block):
        # same matrices, byte for byte, in the same order: samplers index by position; with blocks
        # of 7, every level of more than 7 elements is multiplied in several products
        if block is None:
            got = groups.enumerate_clifford(n)
        else:
            monkeypatch.setattr(groups, "CLOSURE_BLOCK", block)
            got = groups.enumerate_clifford.__wrapped__(n)
        want = np.stack(enumerate_clifford_reference(n))
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", [None, 7])
    def test_clifford_enumeration_matches_the_whole_level_closure(self, monkeypatch, n, block):
        # element by element, the table is what the closure holding each whole level finds
        if block is not None:
            monkeypatch.setattr(groups, "CLOSURE_BLOCK", block)
        got = groups.enumerate_clifford.__wrapped__(n)
        want = enumerate_clifford_by_levels(n)
        assert len(got) == len(want) == groups.CLIFFORD_ORDERS[n]
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), f"element {i}"

    @pytest.mark.parametrize("n,order", [(1, 23), (1, 25), (2, 11519), (2, 11521)])
    def test_clifford_closure_of_the_wrong_order_is_an_invariant_error(self, monkeypatch, n, order):
        monkeypatch.setitem(groups.CLIFFORD_ORDERS, n, order)
        with pytest.raises(InvariantError, match=f"{order}"):
            groups.enumerate_clifford.__wrapped__(n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_clifford_keys_tell_projective_classes_apart(self, n):
        # one key per element; a phase times an element keeps its key
        table = groups.enumerate_clifford(n)
        keys = groups._clifford_keys(table)
        assert keys.dtype == np.uint64
        assert np.unique(keys).size == len(table)
        for phase in (1j, -1, np.exp(0.3j), np.exp(1j * math.pi / 4)):
            assert np.array_equal(groups._clifford_keys(table * phase), keys)

    def test_clifford_samplers_index_like_the_per_stream_reference(self):
        # the stacked Clifford branches take the same rows as one reference draw per stream
        # and gate, and leave each stream where those draws leave it
        for n in (1, 2):
            G = groups.group_spec("clifford", n)
            a = [fresh_stream(5, i) for i in range(6)]
            b = [fresh_stream(5, i) for i in range(6)]
            got = groups.sample_haar_stack(G, a)
            ref = clifford_table_reference(n)
            want = np.stack([ref[int(rng.integers(len(ref)))] for rng in b])
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable
            assert [rng.random() for rng in a] == [rng.random() for rng in b]
        for cls in (((0, 1),), ((0, 1), (2, 3)), ((1, 2), (3, 4), (5, 6))):
            a = [fresh_stream(6, i) for i in range(4)]
            b = [fresh_stream(6, i) for i in range(4)]
            got = groups._layer_gates("clifford", cls, 7, a)
            want = np.array([[_local_gate_reference("clifford", pair, 7, rng) for pair in cls] for rng in b])
            assert got.shape == (4, len(cls), 4, 4)
            assert got.tobytes() == want.tobytes()
            assert [rng.random() for rng in a] == [rng.random() for rng in b]

    def test_clifford_elements_are_projectively_distinct(self):
        mats = groups.enumerate_clifford(1)
        for i, A in enumerate(mats):
            for B in mats[i + 1:]:
                overlap = abs(np.trace(A.conj().T @ B)) / 2
                assert overlap < 1 - 1e-8

    def test_clifford_conjugation_sends_paulis_to_paulis(self):
        mats = groups.enumerate_clifford(1)
        X = pauli.to_dense(pauli.from_text("X"))
        for U in mats[:10]:
            image = U @ X @ U.conj().T
            coeffs = pauli_coefficients(image)
            mass = sorted(abs(c) for c in coeffs.values())
            assert mass[-1] == pytest.approx(1.0)
            assert mass[-2] == pytest.approx(0.0, abs=1e-12)

    def test_sample_haar_dispatch_membership(self):
        for kind, n in [
            ("matchgate", 3),
            ("orthogonal", 2),
            ("symplectic", 2),
            ("unitary", 2),
            ("clifford", 1),
        ]:
            G = groups.group_spec(kind, n)
            U = groups.sample_haar(G, stream(7))
            assert verify_group_membership(U, G, tol=1e-8)


class TestSampleHaarStack:
    @pytest.mark.parametrize(
        "kind,n",
        [(kind, n) for kind in ("unitary", "mixed_unitary", "orthogonal", "symplectic") for n in range(1, 6)]
        + [("matchgate", n) for n in range(1, 5)]
        + [("clifford", 1), ("clifford", 2)],
    )
    def test_rows_are_the_single_draws(self, kind, n):
        # sample_haar is the stack of one: every row of a 5-stream stack is its stream's single draw
        G = groups.group_spec(kind, n)
        streams = [dgrng.sample_stream(31, i) for i in range(5)]
        stack = groups.sample_haar_stack(G, streams)
        assert stack.shape == (5, 1 << n, 1 << n)
        for i in range(5):
            single = dgrng.sample_stream(31, i)
            assert stack[i].tobytes() == groups.sample_haar(G, single).tobytes()
            # both consumed the same draws from the stream
            assert streams[i].random() == single.random()

    def test_unitary_stack_of_any_dimension(self):
        stack = groups.haar_unitary_stack(3, [stream(i) for i in range(4)])
        for i in range(4):
            assert stack[i].tobytes() == groups.haar_unitary_stack(3, [stream(i)])[0].tobytes()

    def test_self_check_covers_every_draw(self, monkeypatch):
        real = groups.haar_symplectic

        def one_drifted(n, streams):
            U = real(n, streams)
            U[-1] *= 1j
            return U

        monkeypatch.setattr(groups, "haar_symplectic", one_drifted)
        G = groups.group_spec("symplectic", 2)
        with pytest.raises(InvariantError, match="symplectic sampler drifted"):
            groups.sample_haar_stack(G, [stream(i) for i in range(3)])

    def test_dense_cap(self):
        G = groups.group_spec("orthogonal", pauli.DENSE_QUBIT_CAP + 1)
        with pytest.raises(BudgetError):
            groups.sample_haar_stack(G, [stream()])


class TestSymplecticSampler:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_block_gram_schmidt_matches_modified_gram_schmidt(self, n):
        d = 1 << n
        for i in range(6):
            a, b = stream(i), stream(i)
            got = symplectic_canonical(d, a)
            want = haar_symplectic_mgs(d, b)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert a.random() == b.random()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_columns_orthonormal_and_form_preserved(self, n):
        d = 1 << n
        J = groups._canonical_symplectic_j(d)
        for i in range(6):
            U = symplectic_canonical(d, stream(i))
            assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= 1e-12
            assert np.max(np.abs(U.T @ J @ U - J)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_form_qubit_swap_is_the_permutation_product(self, n):
        P = swap_qubit_permutation(0, groups.symplectic_form_qubit(n), n)
        for i in range(4):
            canonical = symplectic_canonical(1 << n, stream(i))
            assert np.array_equal(groups.haar_symplectic(n, [stream(i)])[0], P @ canonical @ P)


class TestCachedKernels:
    def test_cached_arrays_are_read_only(self):
        cached = [
            groups.symplectic_form(3).dense(),
            groups.symplectic_form(3).field_dense(),
            groups.orthogonal_form(2).dense(),
            groups._canonical_symplectic_j(8),
            groups._qubit_swap_index(0, 1, 3),
            groups._identity(4),
            groups._majorana_bilinear_dense(3, 1, 4),
        ]
        for M in cached:
            with pytest.raises(ValueError):
                M[0] = 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cached_lifts_equal_uncached_lifts(self, monkeypatch, n):
        cached = [groups.haar_matchgate(n, stream(i)) for i in range(3)]
        monkeypatch.setattr(groups, "LIFT_CACHE_QUBITS", 0)
        for i, U in enumerate(cached):
            assert np.array_equal(U, groups.haar_matchgate(n, stream(i)))


class TestAdjacency:
    def test_chain_layout(self):
        adj = groups.chain_adjacency(4)
        assert set(adj.edges) == {(0, 1), (1, 2), (2, 3)}
        flat = [e for cls in adj.layer_classes for e in cls]
        assert sorted(flat) == sorted(adj.edges)

    def test_chain_classes_are_disjoint_within_layer(self):
        adj = groups.chain_adjacency(6)
        for cls in adj.layer_classes:
            touched = [q for e in cls for q in e]
            assert len(touched) == len(set(touched))

    def test_grid_parse(self):
        adj = groups.parse_adjacency("grid 2x3", 6)
        assert len(adj.edges) == 7  # 3 horizontal rows? 2*2 horizontal + 3 vertical

    def test_parse_chain_and_passthrough(self):
        adj = groups.parse_adjacency("chain", 5)
        assert groups.parse_adjacency(adj, 5) is adj

    def test_parse_edge_list(self):
        adj = groups.parse_adjacency(((0, 1), (1, 2)), 3)
        assert set(adj.edges) == {(0, 1), (1, 2)}

    def test_lightcone_growth_on_chain(self):
        # the first layer applies the even pairs (0, 1), (2, 3), (4, 5), the second the odd ones
        adj = groups.chain_adjacency(6)
        assert groups.lightcone((2,), 0, adj) == (2,)
        assert groups.lightcone((2,), 1, adj) == (2, 3)
        assert groups.lightcone((2,), 2, adj) == (1, 2, 3, 4)
        full = set(groups.lightcone((2,), 10, adj))
        assert full == set(range(6))

    def test_lightcone_follows_the_layer_schedule(self):
        # X on qubit 1 of four: (0, 1) joins qubit 0, then (1, 2) qubit 2; (2, 3) acts only in layer 3
        adj = groups.chain_adjacency(4)
        assert groups.lightcone((1,), 2, adj) == (0, 1, 2)
        assert groups.lightcone((1,), 3, adj) == (0, 1, 2, 3)

    def test_a_cone_that_stops_growing_ends_the_loop(self):
        grid = groups.parse_adjacency("grid 2x3", 6)
        assert groups.lightcone((0,), 10**15, grid) == tuple(range(6))
        # edges (0, 1) and (2, 3) only: qubit 4 is never reached
        split = groups.parse_adjacency(((0, 1), (2, 3)), 5)
        assert groups.lightcone((1,), 10**15, split) == (0, 1)
        assert groups.lightcone((4,), 10**15, split) == (4,)

    @pytest.mark.parametrize("adjacency,n", [("chain", 4), ("chain", 5), ("grid 2x2", 4), ("grid 2x3", 6)])
    def test_lightcone_is_the_support_of_the_conjugated_perturbation(self, adjacency, n):
        # Haar-random local unitaries spread Z_q over the whole cone, and never beyond it
        G = groups.group_spec("unitary", n)
        adj = groups.parse_adjacency(adjacency, n)

        def support(A):
            letters = [kron_chain("I" * p + c + "I" * (n - 1 - p)) for p in range(n) for c in "XZ"]
            moved = [np.max(np.abs(A @ P - P @ A)) > 1e-10 for P in letters]
            return tuple(p for p in range(n) if moved[2 * p] or moved[2 * p + 1])

        for q in range(n):
            V = kron_chain("I" * q + "Z" + "I" * (n - 1 - q))
            for L in range(6):
                U = sample_shallow(G, L, adj, stream(10 * q + L))
                assert support(U @ V @ U.conj().T) == groups.lightcone((q,), L, adj), (q, L)


def _shallow_stack(G, L: int, streams) -> np.ndarray:
    """The library's stacked brickwork draw: Majorana rotations for matchgates, unitaries otherwise."""
    if G.kind == "matchgate":
        return groups.sample_shallow_rotation_stack(G, L, "chain", streams)
    return sample_shallow_stack(G, L, "chain", streams)


class TestShallowCircuits:
    def test_depth_zero_is_identity(self):
        U = sample_shallow(groups.group_spec("orthogonal", 3), 0, "chain", stream())
        assert np.array_equal(U, np.eye(8))
        R = groups.sample_shallow_rotation_stack(groups.group_spec("matchgate", 3), 0, "chain", [stream()])[0]
        assert np.array_equal(R, np.eye(6))

    @pytest.mark.parametrize(
        "kind,n", [("matchgate", 4), ("orthogonal", 3), ("symplectic", 3), ("unitary", 3)]
    )
    def test_shallow_samples_stay_in_group(self, kind, n):
        G = groups.group_spec(kind, n)
        for i in range(4):
            (sample,) = _shallow_stack(G, 2, [stream(i)])
            if kind == "matchgate":  # a matchgate circuit is sampled as its rotation in SO(2n)
                assert np.max(np.abs(sample.T @ sample - np.eye(2 * n))) < 1e-12
                assert np.linalg.det(sample) == pytest.approx(1.0)
            else:
                assert verify_group_membership(sample, G, tol=1e-8)

    def test_matchgate_brickwork_is_sampled_as_rotations(self):
        # the library draws no dense matchgate gate; the oracle refuses a dense matchgate circuit
        with pytest.raises(ValidationError, match="no 2-local gate factory for kind 'matchgate'"):
            groups._layer_gates("matchgate", ((0, 1),), 3, [stream()])
        G = groups.group_spec("matchgate", 3)
        with pytest.raises(ValidationError, match="sample_shallow_rotation"):
            sample_shallow_stack(G, 1, "chain", [stream()])

    def test_shallow_clifford_membership(self):
        G = groups.group_spec("clifford", 2)
        U = sample_shallow(G, 2, "chain", stream(2))
        assert verify_group_membership(U, G, tol=1e-8)

    @pytest.mark.parametrize("kind", ["orthogonal", "symplectic", "unitary", "mixed_unitary"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_per_gate_reference_bit_for_bit(self, kind, n):
        # on the chain the symplectic form qubit 1 is the second qubit of
        # (0, 1), the first of (1, 2) and outside (2, 3) and (3, 4)
        G = groups.group_spec(kind, n)
        for L in range(5):
            for i in range(3):
                a, b = stream(i), stream(i)
                got = sample_shallow(G, L, "chain", a)
                assert np.array_equal(got, sample_shallow_reference(G, L, "chain", b)), (L, i)
                assert a.random() == b.random()  # same stream position afterwards

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            experiments.brickwork(-1)
        with pytest.raises(ValidationError):
            groups.lightcone((0,), -1, groups.chain_adjacency(2))
        with pytest.raises(ValidationError):
            groups.sample_shallow_rotation_stack(groups.group_spec("matchgate", 2), -1, "chain", [stream()])


class TestSampleShallowStack:
    """The stacked brickwork draws against the per-gate reference, row by row: the
    library's Majorana rotations, and the oracle's dense circuits of the library's layer draws."""

    @pytest.mark.parametrize("kind", ["orthogonal", "symplectic", "unitary", "mixed_unitary", "matchgate", "clifford"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_match_the_per_gate_reference(self, kind, n):
        # Clifford brickwork needs only 2-qubit gates; the group spec is capped at n = 2
        # a matchgate stack holds Majorana rotations, checked against the adjoint action of the reference
        G = groups.GroupSpec("clifford", n) if kind == "clifford" else groups.group_spec(kind, n)
        for L in range(5):
            a = [stream(i) for i in range(3)]
            b = [stream(i) for i in range(3)]
            got = _shallow_stack(G, L, a)
            assert got.shape[0] == 3
            for i in range(3):
                want = sample_shallow_reference(G, L, "chain", b[i])
                if kind == "matchgate":
                    O, _ = adjoint_majorana_matrix(want, n)
                    assert np.max(np.abs(got[i] - O)) < 1e-12, (L, i)
                else:
                    assert np.array_equal(got[i], want), (L, i)
                assert a[i].random() == b[i].random()  # same stream position afterwards

    @pytest.mark.parametrize("kind", ["orthogonal", "symplectic", "matchgate"])
    def test_single_draw_is_the_stack_of_one(self, kind):
        G = groups.group_spec(kind, 4)
        stack = _shallow_stack(G, 3, [stream(i) for i in range(5)])
        for i in range(5):
            if kind == "matchgate":
                alone = _shallow_stack(G, 3, [stream(i)])[0]
            else:
                alone = sample_shallow(G, 3, "chain", stream(i))
            assert stack[i].tobytes() == alone.tobytes()

    def test_form_self_check_covers_every_row(self, monkeypatch):
        # one drifted gate in the middle of a stack stops the cone evaluator's block
        real = groups._orthogonal_from_ginibre

        def drifted(Z):
            Q = real(Z)
            if Q.ndim == 4 and len(Q) > 1:
                Q[1, 0] *= 1.01
            return Q

        monkeypatch.setattr(groups, "_orthogonal_from_ginibre", drifted)
        config = experiments.depth_config("orthogonal", 3, 3, 0, depth=1)
        adj = groups.parse_adjacency("chain", 3)
        shallow = experiments._depth_dense(config, adj, groups.lightcone((0,), 1, adj)).shallow
        with pytest.raises(InvariantError, match="shallow orthogonal gate drifted off the form"):
            shallow([stream(i) for i in range(3)])
        shallow([stream(0)])


def _dense_exponential(letters: str, theta: float) -> np.ndarray:
    P = kron_chain(letters)
    return math.cos(theta) * np.eye(P.shape[0]) + 1j * math.sin(theta) * P


class TestMajoranaRotations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_local_generator_planes_on_every_chain_pair(self, n):
        planes = groups._local_matchgate_planes()
        for i in range(n - 1):
            for g, word in enumerate(groups._LOCAL_MATCHGATE_GENS):
                theta = 0.37 + 0.5 * g + 0.11 * i
                U = _dense_exponential("I" * i + word + "I" * (n - i - 2), theta)
                O, resid = adjoint_majorana_matrix(U, n)
                assert resid < 1e-12
                R = np.eye(2 * n)
                R[2 * i:2 * i + 4, 2 * i:2 * i + 4] = groups.rotate_by_exponentials(planes, np.array([[g]]), np.array([[theta]]), 4)[0]
                assert np.max(np.abs(R - O)) < 1e-12, (n, i, word)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_full_set_bilinear(self, n):
        for j, P in enumerate(groups.matchgate_full_set(n).generators):
            theta = 0.29 + 0.23 * j
            O, _ = adjoint_majorana_matrix(_dense_exponential(pauli.to_text(P), theta), n)
            R = groups.rotate_by_exponentials([groups.bilinear_plane(P)], np.array([[0]]), np.array([[theta]]), 2 * n)[0]
            assert np.max(np.abs(R - O)) < 1e-12, pauli.to_text(P)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_full_set_in_closed_form(self, n):
        S = groups.matchgate_full_set(n)
        words = tuple(
            pauli.hermitian_representative(pauli.majorana_product((a, b), n))
            for a in range(1, 2 * n + 1)
            for b in range(a + 1, 2 * n + 1)
        )
        assert S.generators == words
        assert [groups.bilinear_plane(P) for P in words] == [bilinear_plane_reference(P) for P in words]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_planes_read_from_the_letters_on_every_pauli(self, n):
        # every word and phase: the closed form agrees with the Majorana product, or both refuse
        for x in range(1 << n):
            for z in range(1 << n):
                P = pauli.PauliString(n, x, z, (x + 3 * z) % 4)
                try:
                    want = bilinear_plane_reference(P)
                except ValidationError:
                    with pytest.raises(ValidationError, match="not a Majorana bilinear"):
                        groups.bilinear_plane(P)
                else:
                    assert groups.bilinear_plane(P) == want

    def test_planes_of_random_words_at_twelve_qubits(self):
        rng = np.random.default_rng(5)
        S = groups.matchgate_full_set(12).generators
        # bilinears times a random Z or X on one qubit, so most are not bilinears
        for g in rng.integers(len(S), size=300).tolist():
            P = S[g]
            q = int(rng.integers(12))
            Q = pauli.PauliString(12, P.x_bits ^ (int(rng.integers(2)) << q), P.z_bits ^ (1 << q))
            for word in (P, Q):
                try:
                    want = bilinear_plane_reference(word)
                except ValidationError:
                    with pytest.raises(ValidationError):
                        groups.bilinear_plane(word)
                else:
                    assert groups.bilinear_plane(word) == want

    def test_factors_compose_in_operator_order(self):
        n = 3
        S = groups.matchgate_full_set(n).generators
        planes = [groups.bilinear_plane(P) for P in S]
        factors = [(4, 0.3), (11, 1.7), (0, 2.9)]
        U = np.eye(1 << n, dtype=np.complex128)
        for g, theta in factors:
            U = U @ _dense_exponential(pauli.to_text(S[g]), theta)
        O, _ = adjoint_majorana_matrix(U, n)
        g, theta = zip(*factors)
        R = groups.rotate_by_exponentials(planes, np.array([g]), np.array([theta]), 2 * n)[0]
        assert np.max(np.abs(R - O)) < 1e-12

    def test_a_stack_updated_in_place_must_be_contiguous(self):
        R = np.tile(np.eye(4), (2, 1, 1)).transpose(0, 2, 1)
        with pytest.raises(ValidationError, match="C-contiguous"):
            groups.rotate_by_exponentials(groups._local_matchgate_planes(), np.zeros((2, 1), dtype=np.int64), np.ones((2, 1)), 4, R)

    def test_non_bilinear_rejected(self):
        with pytest.raises(ValidationError):
            groups.bilinear_plane(pauli.from_text("XI"))

    @pytest.mark.parametrize("n", [2, 4])
    def test_samplers_match_the_dense_samplers_on_one_stream(self, n):
        G = groups.group_spec("matchgate", n)
        for i in range(3):
            U = sample_shallow_reference(G, 2, "chain", stream(i))
            O, _ = adjoint_majorana_matrix(U, n)
            R = groups.sample_shallow_rotation_stack(G, 2, "chain", [stream(i)])[0]
            assert np.max(np.abs(R - O)) < 1e-12
            O, _ = adjoint_majorana_matrix(groups.sample_haar(G, stream(i)), n)
            assert np.max(np.abs(groups.sample_haar_rotation_stack(G, [stream(i)])[0] - O)) < 1e-12

    def test_rotation_samplers_reject_other_inputs(self):
        with pytest.raises(ValidationError):
            groups.sample_shallow_rotation_stack(groups.group_spec("matchgate", 4), 1, "grid 2x2", [stream()])[0]
        with pytest.raises(ValidationError):
            groups.sample_haar_rotation_stack(groups.group_spec("orthogonal", 2), [stream()])[0]

    def test_rotation_check_raises_invariant_error(self):
        groups.check_rotation(groups.haar_special_orthogonal(6, [stream()])[0], "test")
        with pytest.raises(InvariantError):
            groups.check_rotation(1.01 * np.eye(4), "test")


class TestStackedRotationSamplers:
    """The stacked rotation samplers against their per-sample references, by bytes."""

    @staticmethod
    def _streams(count, offset=0):
        return [stream(offset + i) for i in range(count)]

    def test_angle_draw_is_the_uniform_draw(self):
        # 2 pi u from random() is uniform(0, 2 pi) bit for bit, between integer draws too
        for i in range(20):
            a, b = stream(i), stream(i)
            for _ in range(50):
                assert int(a.integers(6)) == int(b.integers(6))
                assert 2.0 * math.pi * a.random() == float(b.uniform(0.0, 2.0 * math.pi))
            assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        g, theta = groups.draw_factors(120, 40, [stream(3)])
        assert list(zip(g[0].tolist(), theta[0].tolist())) == draw_factors_reference(120, 40, stream(3))

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_haar_rows_match_the_per_sample_draw(self, n, count):
        G = groups.group_spec("matchgate", n)
        stacked = self._streams(count)
        R = groups.sample_haar_rotation_stack(G, stacked)
        for i, s in enumerate(stacked):
            alone = stream(i)
            assert R[i].tobytes() == haar_special_orthogonal_reference(2 * n, alone).tobytes()
            assert repr(s.bit_generator.state) == repr(alone.bit_generator.state)
        assert groups.sample_haar_rotation_stack(G, [stream(0)])[0].tobytes() == R[0].tobytes()

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_shallow_rows_match_the_per_gate_draw(self, n, depth):
        G = groups.group_spec("matchgate", n)
        stacked = self._streams(65)
        R = groups.sample_shallow_rotation_stack(G, depth, "chain", stacked)
        for i, s in enumerate(stacked):
            alone = stream(i)
            assert R[i].tobytes() == sample_shallow_rotation_reference(G, depth, "chain", alone).tobytes()
            assert repr(s.bit_generator.state) == repr(alone.bit_generator.state)
        assert groups.sample_shallow_rotation_stack(G, depth, "chain", [stream(0)])[0].tobytes() == R[0].tobytes()

    def test_deep_circuits_draw_their_gates_in_several_calls(self):
        # 70 gates at n = 3 take two draws of at most SHALLOW_GATES_PER_DRAW gates
        G = groups.group_spec("matchgate", 3)
        assert groups.SHALLOW_GATES_PER_DRAW < 70
        stacked = self._streams(5)
        R = groups.sample_shallow_rotation_stack(G, 70, "chain", stacked)
        for i, s in enumerate(stacked):
            alone = stream(i)
            assert R[i].tobytes() == sample_shallow_rotation_reference(G, 70, "chain", alone).tobytes()
            assert repr(s.bit_generator.state) == repr(alone.bit_generator.state)

    @pytest.mark.parametrize("per_draw", [1, 3])
    @pytest.mark.parametrize("n,depth", [(5, 3), (6, 4), (8, 3)])
    def test_windows_that_split_a_layer(self, monkeypatch, n, depth, per_draw):
        # windows of one or three gates split the two- to four-gate layers across draws
        monkeypatch.setattr(groups, "SHALLOW_GATES_PER_DRAW", per_draw)
        G = groups.group_spec("matchgate", n)
        stacked = self._streams(65)
        R = groups.sample_shallow_rotation_stack(G, depth, "chain", stacked)
        for i, s in enumerate(stacked):
            alone = stream(i)
            assert R[i].tobytes() == sample_shallow_rotation_reference(G, depth, "chain", alone).tobytes()
            assert repr(s.bit_generator.state) == repr(alone.bit_generator.state)

    @pytest.mark.parametrize(
        "adjacency",
        [
            [(0, 1), (4, 5), (1, 2), (5, 6)],
            [(2, 3), (0, 1), (5, 6), (3, 4), (1, 2)],
            # one class whose gates share qubits: each is applied after the one before it
            groups.Adjacency(7, ((0, 1), (1, 2), (2, 3), (5, 6)), (((0, 1), (1, 2), (5, 6)), ((2, 3),))),
        ],
    )
    def test_custom_edges_match_the_per_gate_draw(self, adjacency):
        G = groups.group_spec("matchgate", 7)
        stacked = self._streams(65)
        R = groups.sample_shallow_rotation_stack(G, 5, adjacency, stacked)
        for i, s in enumerate(stacked):
            alone = stream(i)
            assert R[i].tobytes() == sample_shallow_rotation_reference(G, 5, adjacency, alone).tobytes()
            assert repr(s.bit_generator.state) == repr(alone.bit_generator.state)

    def test_runs_hold_consecutive_gates_on_disjoint_qubits(self):
        assert groups._disjoint_runs([0, 2, 4, 1, 3, 0]) == [(0, 3), (3, 5), (5, 6)]
        assert groups._disjoint_runs([0, 1, 2]) == [(0, 1), (1, 2), (2, 3)]
        assert groups._disjoint_runs([5, 0, 2, 3]) == [(0, 3), (3, 4)]

    @pytest.mark.parametrize("N", range(4))
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_gate_sequences_match_the_list_rotation(self, n, N):
        from designgap import experiments

        planes = [groups.bilinear_plane(g) for g in groups.matchgate_full_set(n).generators]
        R = experiments._gate_sequence_rotation(planes, n, N, self._streams(65))
        for i in range(65):
            assert R[i].tobytes() == gate_sequence_rotation_reference(planes, n, N, stream(i)).tobytes()
        factors = [draw_factors_reference(len(planes), N, stream(i)) for i in range(3)]
        g = np.array([[k for k, _ in f] for f in factors], dtype=np.int64).reshape(3, N)
        theta = np.array([[t for _, t in f] for f in factors], dtype=np.float64).reshape(3, N)
        stack = groups.rotate_by_exponentials(planes, g, theta, 2 * n)
        for i in range(3):
            assert stack[i].tobytes() == rotate_by_exponentials_reference(planes, factors[i], 2 * n).tobytes()

    def test_one_drifting_matrix_of_a_stack_is_an_invariant_error(self):
        R = groups.sample_haar_rotation_stack(groups.group_spec("matchgate", 3), self._streams(64))
        groups.check_rotation(R, "test")
        R[37] *= 1.0 + 1e-6
        with pytest.raises(InvariantError, match="test rotation is not orthogonal"):
            groups.check_rotation(R, "test")


class TestFactorDraws:
    """draw_factors decodes raw Philox words; each row must be the per-factor loop, bit for bit."""

    def test_numpy_integers_take_32_bit_halves_and_random_takes_whole_words(self):
        # the consumption model that draw_factors decodes: a numpy that changes it fails here
        k = 6
        for index in range(50):
            w = fresh_stream(9, index).bit_generator.random_raw(4).tolist()
            lo, hi = w[0] & 0xFFFFFFFF, w[0] >> 32
            assert (lo * k) % 2**32 >= k and (hi * k) % 2**32 >= k  # Lemire takes the first half
            rng = fresh_stream(9, index)
            assert int(rng.integers(k)) == (lo * k) >> 32
            state = rng.bit_generator.state
            assert (state["has_uint32"], state["uinteger"]) == (1, hi)
            assert rng.random() == (w[1] >> 11) * 2.0**-53
            assert rng.bit_generator.state["has_uint32"] == 1  # random() leaves the buffered half
            assert int(rng.integers(k)) == (hi * k) >> 32
            assert rng.bit_generator.state["has_uint32"] == 0
            assert rng.random() == (w[2] >> 11) * 2.0**-53
            assert rng.random() == (w[3] >> 11) * 2.0**-53

    @pytest.mark.parametrize("buffered_half", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 12, 13, 24, 25])
    @pytest.mark.parametrize("choices", [1, 2, 6, 28, 120, 2**27, 3 * 2**30, 2**32 - 1, 2**32, 2**33])
    def test_rows_and_states_match_the_per_factor_loop(self, choices, count, buffered_half):
        # with buffered_half, every other stream enters holding a 32-bit half;
        # at 2^27 some of the streams and at 3 * 2^30 all of them meet a half
        # that Lemire's method might reject, and are rolled back
        def streams():
            out = [fresh_stream(31, i) for i in range(40)]
            for rng in out[1::2] if buffered_half else ():
                rng.integers(6)
            return out

        stacked, alone = streams(), streams()
        g, theta = groups.draw_factors(choices, count, stacked)
        assert g.shape == theta.shape == (40, count)
        assert g.dtype == np.int64 and theta.dtype == np.float64
        for i, rng in enumerate(alone):
            assert list(zip(g[i].tolist(), theta[i].tolist())) == draw_factors_reference(choices, count, rng)
            assert repr(stacked[i].bit_generator.state) == repr(rng.bit_generator.state)

    def test_no_streams(self):
        g, theta = groups.draw_factors(6, 24, [])
        assert g.shape == theta.shape == (0, 24)


class TestMembership:
    def test_random_unitary_is_not_matchgate(self):
        G = groups.group_spec("matchgate", 3)
        U = groups.haar_unitary_stack(8, [stream(9)])[0]
        assert membership_failure(U, G, tol=1e-8) is not None

    def test_non_unitary_detected(self):
        G = groups.group_spec("unitary", 2)
        assert "unitary" in membership_failure(np.eye(4) * 2.0, G)

    def test_complex_matrix_is_not_orthogonal(self):
        G = groups.group_spec("orthogonal", 2)
        U = groups.haar_unitary_stack(4, [stream(1)])[0]
        msg = membership_failure(U, G, tol=1e-8)
        assert msg is not None

    def test_mixed_unitary_conjugate_pair_accepted(self):
        G = groups.group_spec("mixed_unitary", 2)
        U = groups.haar_unitary_stack(4, [stream(3)])[0]
        W = np.kron(U, U.conj())
        assert verify_group_membership(W, G, tol=1e-8)

    def test_mixed_unitary_wrong_partner_rejected(self):
        G = groups.group_spec("mixed_unitary", 2)
        U = groups.haar_unitary_stack(4, [stream(3)])[0]
        V = groups.haar_unitary_stack(4, [stream(4)])[0]
        assert membership_failure(np.kron(U, V.conj()), G, tol=1e-8) is not None

    def test_form_violation_reported(self):
        G = groups.group_spec("symplectic", 2)
        U = groups.haar_orthogonal_stack(4, [stream(5)])[0]
        msg = membership_failure(U, G, tol=1e-8)
        assert msg is not None and "form" in msg
