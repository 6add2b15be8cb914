"""Dense helpers and the two-copy oracle checked against direct Kronecker constructions."""

import numpy as np
import pytest

from designgap import densesim, pauli
from designgap.errors import BudgetError, ValidationError

from conftest import (
    apply_two_copy,
    bell_projector_on_complement,
    bell_state,
    complement_bell_overlap,
    embed_reference,
    kron_chain,
    pauli_coefficients,
    permute_state,
    povm_probability,
)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_op(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestPermutations:
    def test_identity_order(self):
        sigma = densesim.basis_permutation((0, 1, 2), 3)
        assert np.array_equal(sigma, np.arange(8))

    def test_two_qubit_swap(self, rng):
        # swapping both qubits of a product state swaps the factors
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        psi = np.kron(a, b)
        out = permute_state(psi, (1, 0), 2)
        assert np.allclose(out, np.kron(b, a))

    def test_permutation_preserves_norm(self, rng):
        psi = random_state(rng, 16)
        out = permute_state(psi, (2, 0, 3, 1), 4)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_bad_order_rejected(self):
        with pytest.raises(ValidationError):
            densesim.basis_permutation((0, 0), 2)


class TestEmbed:
    def test_single_qubit_positions(self):
        Z = np.diag([1.0, -1.0]).astype(np.complex128)
        for q, word in [(0, "ZII"), (1, "IZI"), (2, "IIZ")]:
            assert np.allclose(densesim.embed(Z, (q,), 3), kron_chain(word))

    def test_adjacent_pair(self, rng):
        op = random_op(rng, 4)
        got = densesim.embed(op, (1, 2), 3)
        want = np.kron(np.eye(2), op)
        assert np.allclose(got, want)

    def test_reversed_pair_is_conjugated_by_swap(self, rng):
        op = random_op(rng, 4)
        S = densesim.embed(
            np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
            (0, 1),
            2,
        )
        assert np.allclose(densesim.embed(op, (1, 0), 2), S @ op @ S)

    def test_wrong_target_count(self, rng):
        with pytest.raises(ValidationError):
            densesim.embed(random_op(rng, 4), (0,), 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_kron_reference_bit_for_bit(self, rng, n):
        # every single qubit and every ordered pair, so reversed pairs too
        targets = [(q,) for q in range(n)]
        targets += [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in targets:
            op = random_op(rng, 1 << len(qubits))
            got = densesim.embed(op, qubits, n)
            assert got.dtype == np.complex128
            assert np.array_equal(got, embed_reference(op, qubits, n)), qubits

    def test_result_is_a_fresh_writable_matrix(self, rng):
        op = random_op(rng, 4)
        first = densesim.embed(op, (0, 2), 3)
        first[0, 0] = 99.0
        assert np.array_equal(densesim.embed(op, (0, 2), 3), embed_reference(op, (0, 2), 3))

    def test_cached_index_maps_are_read_only(self):
        sigma = densesim.basis_permutation((2, 0), 3)
        idx = densesim._embed_scatter((2, 0), 3)
        for cached in (sigma, idx):
            with pytest.raises(ValueError):
                cached[0] = 1


class TestPartialTrace:
    def test_product_operator_factorizes(self, rng):
        A = random_op(rng, 2)
        B = random_op(rng, 4)
        full = np.kron(A, B)
        got = densesim.partial_trace(full, (0,), 3)
        assert np.allclose(got, A * np.trace(B))
        got = densesim.partial_trace(full, (1, 2), 3)
        assert np.allclose(got, B * np.trace(A))

    def test_keep_order_matters(self, rng):
        A = random_op(rng, 2)
        B = random_op(rng, 2)
        full = np.kron(A, B)
        swapped = densesim.partial_trace(full, (1, 0), 2)
        assert np.allclose(swapped, np.kron(B, A))

    def test_trace_preserved(self, rng):
        M = random_op(rng, 16)
        for keep in [(0,), (3,), (0, 2), (1, 3)]:
            assert np.trace(densesim.partial_trace(M, keep, 4)) == pytest.approx(np.trace(M))


class TestBellState:
    def test_normalization(self):
        psi = bell_state(2)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_transpose_trick(self, rng):
        # (A x 1)|Phi> = (1 x A^T)|Phi>
        A = random_op(rng, 4)
        phi = bell_state(2)
        eye = np.eye(4)
        left = apply_two_copy(A, eye, phi)
        right = apply_two_copy(eye, A.T, phi)
        assert np.allclose(left, right)

    def test_operator_overlap_is_normalized_trace(self, rng):
        # <Phi|A x B|Phi> = Tr[A B^T]/d
        A, B = random_op(rng, 4), random_op(rng, 4)
        phi = bell_state(2)
        got = np.vdot(phi, apply_two_copy(A, B, phi))
        assert got == pytest.approx(np.trace(A @ B.T) / 4)


class TestApplyTwoCopy:
    def test_matches_kronecker(self, rng):
        A, B = random_op(rng, 4), random_op(rng, 4)
        psi = random_state(rng, 16)
        got = apply_two_copy(A, B, psi)
        assert np.allclose(got, np.kron(A, B) @ psi)


class TestRightProduct:
    """A -> A @ M: a gather for phased permutations, whose entries are the matmul's bytes."""

    @pytest.mark.parametrize("word", ["I", "Z", "XY", "YZX", "IYI"])
    @pytest.mark.parametrize("phase", [1, 1j, -1, -1j])
    def test_phased_paulis_gather_to_the_matmul(self, rng, word, phase):
        n = len(word)
        M = phase * kron_chain(word)
        A = np.stack([random_op(rng, 1 << n) for _ in range(3)])
        for X in (A, A.real.copy(), np.swapaxes(A, -1, -2)):
            # equal values are equal bytes, but for the sign of an exact zero
            assert np.array_equal(densesim.right_product(M)(X), X @ M)

    def test_real_phases_keep_a_real_operand_real(self, rng):
        M = kron_chain("XZ") / 2.0  # complex dtype, real entries
        A = rng.normal(size=(2, 4, 4))
        got = densesim.right_product(M)(A)
        assert got.dtype == np.float64
        assert got.tobytes() == (A @ M.real).tobytes()

    def test_the_identity_returns_its_operand(self, rng):
        A = random_op(rng, 8)
        assert densesim.right_product(np.eye(8, dtype=np.complex128))(A) is A

    def test_any_other_matrix_is_multiplied(self, rng):
        M = random_op(rng, 4)
        M[:, 0] = 0.0  # a column with no nonzero, and others with four
        A = random_op(rng, 4)
        assert densesim.right_product(M)(A).tobytes() == (A @ M).tobytes()


class TestStackAxes:
    """Every stacked kernel gives each matrix or state of a stack its single result, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_apply_two_copy_and_overlap(self, rng, n):
        d, B = 1 << n, 5
        A = np.stack([random_op(rng, d) for _ in range(B)])
        C = np.stack([random_op(rng, d) for _ in range(B)])
        psi = np.stack([random_state(rng, d * d) for _ in range(B)])
        fixed = random_op(rng, d)
        stacked = apply_two_copy(A, C, psi)
        shared = apply_two_copy(A, C, psi[0])  # one state under a stack of operators
        mixed = apply_two_copy(fixed, C, psi)  # one operator over a stack
        for b in range(B):
            assert stacked[b].tobytes() == apply_two_copy(A[b], C[b], psi[b]).tobytes()
            assert shared[b].tobytes() == apply_two_copy(A[b], C[b], psi[0]).tobytes()
            assert mixed[b].tobytes() == apply_two_copy(fixed, C[b], psi[b]).tobytes()
        for region in [(0,), tuple(range(n - 1)), (n - 1,)]:
            T = complement_bell_overlap(stacked, region, n)
            for b in range(B):
                one = complement_bell_overlap(stacked[b], region, n)
                assert T[b].tobytes() == one.tobytes()
                assert np.sum(np.abs(T) ** 2, axis=(-2, -1))[b] == np.sum(np.abs(one) ** 2)

    @pytest.mark.parametrize("keep", [(0, 1, 2), (0, 2, 3), (3, 1, 0)])
    def test_partial_trace(self, rng, keep):
        # each reduction of a stack, and its squared norm, are those of its matrix alone
        A = np.stack([random_op(rng, 16) for _ in range(64)])
        M = densesim.partial_trace(A, keep, 4)
        norms = np.sum(np.abs(M) ** 2, axis=(-2, -1))
        for b in range(64):
            one = densesim.partial_trace(A[b], keep, 4)
            assert M[b].tobytes() == one.tobytes()
            assert norms[b] == np.sum(np.abs(one) ** 2)

    def test_embed_and_permute(self, rng):
        ops = np.stack([random_op(rng, 4) for _ in range(3)]).reshape(3, 1, 4, 4)
        psi = np.stack([random_state(rng, 16) for _ in range(3)])
        for qubits in [(0, 1), (2, 0), (1, 3)]:
            got = densesim.embed(ops, qubits, 4)
            assert got.shape == (3, 1, 16, 16)
            for b in range(3):
                assert np.array_equal(got[b, 0], embed_reference(ops[b, 0], qubits, 4))
            moved = permute_state(psi, qubits, 4)
            for b in range(3):
                assert np.array_equal(moved[b], permute_state(psi[b], qubits, 4))


class TestSwapRegion:
    def test_full_region_is_global_swap(self, rng):
        S = densesim.swap_region((0, 1), 2)
        a, b = random_state(rng, 4), random_state(rng, 4)
        assert np.allclose(S @ np.kron(a, b), np.kron(b, a))

    def test_partial_region_on_product_states(self, rng):
        # swapping qubit 0 alone exchanges the leading factors only
        S = densesim.swap_region((0,), 2)
        a1, a2, b1, b2 = (random_state(rng, 2) for _ in range(4))
        state = np.kron(np.kron(a1, a2), np.kron(b1, b2))
        want = np.kron(np.kron(b1, a2), np.kron(a1, b2))
        assert np.allclose(S @ state, want)

    def test_involution_and_trace(self):
        for region in [(0,), (1,), (0, 1)]:
            S = densesim.swap_region(region, 2)
            assert np.allclose(S @ S, np.eye(16))
            dL = 1 << len(region)
            dC = 4 // dL
            # Tr[swap_L] = d_L d_C^2 (identity on complements contributes fully)
            assert np.trace(S) == pytest.approx(dL * dC * dC)

    def test_swap_trace_identity(self, rng):
        # Tr[(A x A) swap_L] = Tr[(Tr_C A)^2] for the traced complement
        A = random_op(rng, 8)
        region = (0, 2)
        S = densesim.swap_region(region, 3)
        M = densesim.partial_trace(A, region, 3)
        got = np.trace(np.kron(A, A) @ S)
        assert got == pytest.approx(np.trace(M @ M))

    def test_cap(self):
        with pytest.raises(BudgetError):
            densesim.swap_region((0,), 6)


class TestComplementBellProjector:
    def test_projector_properties(self):
        Pi = bell_projector_on_complement((0,), 2)
        assert np.allclose(Pi, Pi.conj().T)
        assert np.allclose(Pi @ Pi, Pi)

    def test_overlap_route_matches_projector_route(self, rng):
        n = 3
        for region in [(0,), (0, 1), (1, 2), (0, 2)]:
            Pi = bell_projector_on_complement(region, n)
            for _ in range(3):
                psi = random_state(rng, 1 << (2 * n))
                T = complement_bell_overlap(psi, region, n)
                born = float(np.real(np.vdot(psi, Pi @ psi)))
                assert np.linalg.norm(T) ** 2 == pytest.approx(born)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_depth_two_circuit_measures_the_complement_bell_pairs(self, rng, n):
        # the single-shot measurement is constant depth: a CNOT from each complement qubit q of copy 1
        # to its twin n + q, then an H on q, takes the Bell pair of (q, n + q) to |00>, so reading 00 on
        # every pair is the complement Bell projector, at any n
        H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        CNOT = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
        for mask in range((1 << n) - 1):
            region = tuple(q for q in range(n) if mask >> q & 1)
            comp = [q for q in range(n) if q not in region]
            layers = [[(CNOT, (q, n + q)) for q in comp], [(H, (q,)) for q in comp]]
            circuit = np.eye(1 << (2 * n), dtype=np.complex128)
            for layer in layers:
                touched = [q for _, qubits in layer for q in qubits]
                assert len(touched) == len(set(touched))  # one layer of disjoint gates
                for gate, qubits in layer:
                    circuit = densesim.embed(gate, qubits, 2 * n) @ circuit
            reads_00 = np.ones(1 << (2 * n), dtype=bool)
            for q in comp:
                for wire in (q, n + q):
                    reads_00 &= (np.arange(1 << (2 * n)) >> (2 * n - 1 - wire) & 1) == 0
            Pi = bell_projector_on_complement(region, n)
            for _ in range(4):
                psi = random_state(rng, 1 << (2 * n))
                shot = float(np.sum(np.abs((circuit @ psi)[reads_00]) ** 2))
                assert shot == pytest.approx(np.linalg.norm(complement_bell_overlap(psi, region, n)) ** 2, abs=1e-12)
                assert shot == pytest.approx(povm_probability(psi, Pi), abs=1e-12)

    def test_bell_state_has_unit_probability(self):
        # the two-copy Bell state contains the complement Bell pair exactly
        n = 2
        psi = bell_state(n)
        for region in [(0,), (1,)]:
            T = complement_bell_overlap(psi, region, n)
            assert np.linalg.norm(T) ** 2 == pytest.approx(1.0)

    def test_orthogonal_state_has_zero_probability(self):
        # |01> x |10> has no complement Bell component on qubit 1
        psi = np.zeros(16, dtype=np.complex128)
        psi[0b0110] = 1.0
        T = complement_bell_overlap(psi, (0,), 2)
        assert np.linalg.norm(T) ** 2 == pytest.approx(0.0)


class TestPauliExpansion:
    def test_round_trip(self, rng):
        A = random_op(rng, 4)
        coeffs = pauli_coefficients(A)
        rebuilt = sum(c * pauli.to_dense(P) for P, c in coeffs.items())
        assert np.allclose(rebuilt, A)

    def test_parseval(self, rng):
        A = random_op(rng, 4)
        coeffs = pauli_coefficients(A)
        mass = sum(abs(c) ** 2 for c in coeffs.values())
        assert mass * 4 == pytest.approx(np.linalg.norm(A) ** 2)


class TestPovmProbability:
    def test_requires_hermitian(self, rng):
        psi = random_state(rng, 4)
        with pytest.raises(ValidationError):
            povm_probability(psi, random_op(rng, 4))

    def test_projector_probability(self, rng):
        psi = random_state(rng, 4)
        Pi = np.zeros((4, 4), dtype=np.complex128)
        Pi[0, 0] = 1.0
        assert povm_probability(psi, Pi) == pytest.approx(abs(psi[0]) ** 2)

    def test_tiny_negative_clamped(self):
        psi = np.array([1.0, 0.0], dtype=np.complex128)
        Pi = np.diag([-1e-13, 1.0]).astype(np.complex128)
        assert povm_probability(psi, Pi) == 0.0
