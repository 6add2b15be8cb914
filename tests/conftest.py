"""Shared oracles for the test suite.

The dense oracle builds Pauli matrices by explicit Kronecker chains with its
own phase bookkeeping, independent of the bit-packed implementation, so the
two can check each other.  The complement Bell projector and the Born
probability against a materialized POVM element are the dense references that
``densesim.complement_bell_overlap`` is checked against.
"""

import numpy as np
import pytest

I2 = np.eye(2, dtype=np.complex128)
X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)

LETTER_MATRICES = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_chain(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli word, leftmost letter on the most significant bit."""
    out = np.array([[1.0 + 0.0j]])
    for ch in letters:
        out = np.kron(out, LETTER_MATRICES[ch])
    return out


def dense_oracle(P) -> np.ndarray:
    """Dense matrix of a phased PauliString built with kron chains only."""
    from designgap import pauli

    return (1j ** P.phase_exp) * kron_chain(pauli.to_text(pauli.PauliString(P.n, P.x_bits, P.z_bits)))


def bell_projector_on_complement(region: tuple[int, ...], n: int) -> np.ndarray:
    """Identity on both region factors, Bell projector on the complements."""
    from designgap import densesim
    from designgap.errors import ValidationError

    densesim._require_qubits(n, densesim.TWO_COPY_OPERATOR_CAP, "dense two-copy projector")
    d = 1 << n
    lm = 0
    for q in set(region):
        if not 0 <= q < n:
            raise ValidationError(f"region qubit {q} outside 0..{n - 1}")
        lm |= 1 << (n - 1 - q)
    cm = (d - 1) ^ lm
    d_comp = 1 << (n - len(set(region)))
    idx = np.arange(d * d, dtype=np.int64)
    a, b = idx >> n, idx & (d - 1)
    aligned = (a & cm) == (b & cm)
    aL, bL = a & lm, b & lm
    match = (aL[:, None] == aL[None, :]) & (bL[:, None] == bL[None, :])
    weightmat = (aligned[:, None] & aligned[None, :]) & match
    return weightmat.astype(np.complex128) / d_comp


def povm_probability(psi: np.ndarray, Pi: np.ndarray) -> float:
    """Born probability <psi|Pi|psi>, clamped to [0, 1]."""
    from designgap.errors import ValidationError

    if not np.allclose(Pi, Pi.conj().T, atol=1e-9):
        raise ValidationError("POVM element is not Hermitian")
    value = float(np.real(np.vdot(psi, Pi @ psi)))
    return min(1.0, max(0.0, value))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
