"""Bit-packed Pauli algebra against an independent Kronecker-chain oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designgap import pauli
from designgap.errors import ValidationError

from conftest import dense_oracle, kron_chain, majorana_decomposition_reference


def all_paulis(n, phases=(0,)):
    for x in range(1 << n):
        for z in range(1 << n):
            for k in phases:
                yield pauli.PauliString(n, x, z, k)


@st.composite
def pauli_strings(draw, max_qubits=5, n=None):
    if n is None:
        n = draw(st.integers(1, max_qubits))
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    k = draw(st.integers(0, 3))
    return pauli.PauliString(n, x, z, k)


class TestTextRepresentation:
    def test_letters(self):
        assert pauli.to_text(pauli.from_text("IXYZ")) == "IXYZ"

    def test_phase_tokens(self):
        assert pauli.to_text(pauli.from_text("-iXZ")) == "-iXZ"
        assert pauli.from_text("+iY").phase_exp == 1
        assert pauli.from_text("-Z").phase_exp == 2

    def test_identity(self):
        P = pauli.identity(3)
        assert pauli.to_text(P) == "III"
        assert np.allclose(dense_oracle(P), np.eye(8))

    def test_bad_letter_rejected(self):
        with pytest.raises(ValidationError):
            pauli.from_text("XQZ")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pauli.from_text("-i")

    @given(pauli_strings())
    def test_round_trip(self, P):
        assert pauli.from_text(pauli.to_text(P)) == P


class TestDenseAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_to_dense_matches_kron_chain(self, n):
        for P in all_paulis(n, phases=(0, 1, 2, 3)):
            assert np.array_equal(pauli.to_dense(P), dense_oracle(P))

    def test_qubit_zero_is_most_significant(self):
        ZI = pauli.to_dense(pauli.from_text("ZI"))
        assert np.allclose(ZI, np.diag([1, 1, -1, -1]))
        IZ = pauli.to_dense(pauli.from_text("IZ"))
        assert np.allclose(IZ, np.diag([1, -1, 1, -1]))

    def test_signed_permutation_reassembles(self, rng):
        # convention: dense[perm[c], c] = amp[c]
        for P in all_paulis(3):
            perm, amp = pauli.signed_permutation(P)
            dense = np.zeros((8, 8), dtype=np.complex128)
            dense[perm, np.arange(8)] = amp
            assert np.array_equal(dense, dense_oracle(P))

    def test_trace_with_matches_dense(self, rng):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for P in all_paulis(3, phases=(0, 1)):
            want = np.trace(dense_oracle(P) @ A)
            assert pauli.trace_with(P, A) == pytest.approx(want)

    def test_dense_cap(self):
        with pytest.raises(Exception):
            pauli.to_dense(pauli.identity(13))


class TestMultiplication:
    def test_x_times_z_is_minus_i_y(self):
        # the one sign convention everything else hangs on
        R = pauli.multiply(pauli.from_text("X"), pauli.from_text("Z"))
        assert (R.x_bits, R.z_bits, R.phase_exp) == (1, 1, 3)
        assert pauli.to_text(R) == "-iY"

    def test_exhaustive_small_n_against_oracle(self):
        for n in (1, 2):
            for P in all_paulis(n, phases=(0, 3)):
                for Q in all_paulis(n, phases=(0, 1)):
                    R = pauli.multiply(P, Q)
                    assert np.allclose(dense_oracle(R), dense_oracle(P) @ dense_oracle(Q))

    @given(pauli_strings(max_qubits=4), st.data())
    @settings(max_examples=60)
    def test_random_products_match_oracle(self, P, data):
        Q = data.draw(pauli_strings(n=P.n))
        R = pauli.multiply(P, Q)
        assert np.allclose(dense_oracle(R), dense_oracle(P) @ dense_oracle(Q))

    @given(st.data())
    @settings(max_examples=40)
    def test_associativity(self, data):
        n = data.draw(st.integers(1, 6))
        strat = pauli_strings(n=n)
        P, Q, R = data.draw(strat), data.draw(strat), data.draw(strat)
        assert pauli.multiply(pauli.multiply(P, Q), R) == pauli.multiply(P, pauli.multiply(Q, R))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValidationError):
            pauli.multiply(pauli.identity(2), pauli.identity(3))

    @given(pauli_strings())
    def test_square_is_scalar(self, P):
        R = pauli.multiply(P, P)
        assert (R.x_bits, R.z_bits) == (0, 0)
        # Hermitian letters square to +1, so only the accumulated phase remains
        assert R.phase_exp == (2 * P.phase_exp) % 4


class TestCommutationAndTranspose:
    def test_commutes_matches_oracle(self):
        for P in all_paulis(2):
            for Q in all_paulis(2):
                dp, dq = dense_oracle(P), dense_oracle(Q)
                want = np.allclose(dp @ dq, dq @ dp)
                assert pauli.commutes(P, Q) == want

    @given(st.data())
    @settings(max_examples=40)
    def test_commutes_symmetric(self, data):
        n = data.draw(st.integers(1, 6))
        strat = pauli_strings(n=n)
        P, Q = data.draw(strat), data.draw(strat)
        assert pauli.commutes(P, Q) == pauli.commutes(Q, P)

    def test_transpose_sign_matches_oracle(self):
        for P in all_paulis(2, phases=(0, 1, 2, 3)):
            dense = dense_oracle(P)
            assert np.allclose(dense.T, pauli.transpose_sign(P) * dense)

    def test_transpose_sign_counts_y(self):
        assert pauli.transpose_sign(pauli.from_text("XYZ")) == -1
        assert pauli.transpose_sign(pauli.from_text("YY")) == 1


class TestProjectiveHelpers:
    def test_support_and_weight(self):
        P = pauli.from_text("IXIZ")
        assert pauli.support(P) == (1, 3)
        assert pauli.weight(P) == 2

    def test_y_count(self):
        assert pauli.y_count(pauli.from_text("XYYZ")) == 2

    def test_hermitian_representative(self):
        P = pauli.from_text("-iXZ")
        H = pauli.hermitian_representative(P)
        assert H.phase_exp == 0 and pauli.same_projective(P, H)
        dense = dense_oracle(H)
        assert np.allclose(dense, dense.conj().T)

    @given(pauli_strings())
    def test_key_round_trip(self, P):
        assert pauli.from_key(pauli.to_key(P), P.n) == pauli.hermitian_representative(P)


class TestMajoranas:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_clifford_algebra_relations(self, n):
        cs = [dense_oracle(pauli.majorana(i, n)) for i in range(1, 2 * n + 1)]
        d = 1 << n
        for a, ca in enumerate(cs):
            assert np.allclose(ca, ca.conj().T)
            for b, cb in enumerate(cs):
                anti = ca @ cb + cb @ ca
                want = 2 * np.eye(d) if a == b else np.zeros((d, d))
                assert np.allclose(anti, want)

    def test_jordan_wigner_ladder(self):
        assert pauli.to_text(pauli.majorana(1, 3)) == "XII"
        assert pauli.to_text(pauli.majorana(2, 3)) == "YII"
        assert pauli.to_text(pauli.majorana(5, 3)) == "ZZX"
        assert pauli.to_text(pauli.majorana(6, 3)) == "ZZY"

    def test_index_bounds(self):
        with pytest.raises(ValidationError):
            pauli.majorana(0, 2)
        with pytest.raises(ValidationError):
            pauli.majorana(5, 2)

    def test_product_matches_sequential_multiplication(self):
        n = 3
        P = pauli.majorana_product((1, 3, 6), n)
        want = dense_oracle(pauli.majorana(1, n))
        want = want @ dense_oracle(pauli.majorana(3, n))
        want = want @ dense_oracle(pauli.majorana(6, n))
        assert np.allclose(dense_oracle(P), want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_pauli_is_a_monomial(self, n):
        seen = set()
        for P in all_paulis(n):
            idx = pauli.majorana_decomposition(P)
            assert list(idx) == sorted(idx)
            assert pauli.same_projective(pauli.majorana_product(idx, n), P)
            seen.add(idx)
        # the monomial map is a bijection onto subsets of {1..2n}
        assert len(seen) == 1 << (2 * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_closed_form_is_the_linear_solve_on_every_pauli(self, n):
        for key in range(4**n):
            P = pauli.from_key(key, n)
            assert pauli.majorana_decomposition(P) == majorana_decomposition_reference(P)

    @pytest.mark.parametrize("n", [31, 64, 200])
    def test_closed_form_is_the_linear_solve_at_large_n(self, n):
        draw = random.Random(n)
        for _ in range(200):
            P = pauli.PauliString(n, draw.getrandbits(n), draw.getrandbits(n), draw.randrange(4))
            assert pauli.majorana_decomposition(P) == majorana_decomposition_reference(P)

    def test_majorana_bits_run_on_key_arrays(self):
        # the same code on int64 word arrays gives each word's Python-int answer, and leaves the input alone
        n = 5
        keys = np.arange(4**n, dtype=np.int64)
        x, z = keys >> n, keys & ((1 << n) - 1)
        x_before = x.copy()
        a, b = pauli.majorana_bits(x, z, n)
        assert np.array_equal(x, x_before)
        assert [(int(u), int(v)) for u, v in zip(a, b)] == [
            pauli.majorana_bits(int(u), int(v), n) for u, v in zip(x, z)
        ]

    def test_monomial_counts(self):
        # X on 0-based qubit q needs the 2q+1 lowest Majoranas
        assert pauli.majorana_count(pauli.from_text("IIXI")) == 5
        # each Z is a quadratic c_{2j-1} c_{2j}
        assert pauli.majorana_count(pauli.from_text("ZZI")) == 4
        assert pauli.majorana_count(pauli.identity(4)) == 0

    def test_parity_matches_commutation_with_all_z(self):
        # even monomials commute with the parity word Z...Z, odd ones anticommute
        n = 3
        parity = pauli.from_text("ZZZ")
        for P in all_paulis(n):
            even = pauli.majorana_count(P) % 2 == 0
            assert pauli.commutes(P, parity) == even
