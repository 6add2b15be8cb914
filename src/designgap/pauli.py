"""Bit-packed n-qubit Pauli operators and the Majorana monomial dictionary.

A Pauli operator is stored as ``i**phase_exp * W`` where ``W`` is the
Hermitian tensor product of single-qubit letters I, X, Y, Z encoded by two
n-bit words: qubit ``j`` carries an X factor when bit ``j`` of ``x_bits`` is
set, a Z factor when bit ``j`` of ``z_bits`` is set, and a Y factor when both
are set.  ``phase_exp = 0`` is the canonical Hermitian representative; the
words alone (ignoring phase) identify the projective Pauli used as a graph
vertex elsewhere.

Dense materialization places qubit 0 as the leftmost tensor factor, i.e. the
most significant bit of the computational basis index.  Every Pauli is a
signed permutation in that basis, so dense matrices, traces against arbitrary
operators, and Pauli-basis coefficients cost O(2^n) each, with no Kronecker
products.

Majorana operators follow the Jordan-Wigner convention

    c_1 = XII...I,  c_2 = YII...I,  c_3 = ZXI...I,  c_4 = ZYI...I,  ...

with 1-based indices 1..2n.  Their images under the encoding form a basis of
F_2^{2n}, so every Pauli decomposes uniquely (up to phase) as a product of
distinct Majoranas; the decomposition inverts Jordan-Wigner in closed form,
a suffix XOR of the X word (``majorana_bits``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError

DENSE_QUBIT_CAP = 12

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_TOKENS = {0: "", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_PHASES = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i**phase_exp`` times Hermitian letters."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.x_bits <= mask or not 0 <= self.z_bits <= mask:
            raise ValidationError(f"bit words out of range for n={self.n}")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    def __str__(self):
        return to_text(self)


def identity(n: int) -> PauliString:
    """The n-qubit identity with trivial phase."""
    return PauliString(n, 0, 0, 0)


def from_text(text: str) -> PauliString:
    """Parse ``[+|-|+i|-i]?[IXYZ]+`` into a PauliString; round-trips to_text."""
    body = text.strip()
    token = ""
    for candidate in ("+i", "-i", "+", "-", "i"):
        if body.startswith(candidate):
            token, body = candidate, body[len(candidate):]
            break
    if not body:
        raise ValidationError(f"no Pauli letters in {text!r}")
    x_bits = z_bits = 0
    for j, letter in enumerate(body):
        if letter not in _LETTER_BITS:
            raise ValidationError(f"bad Pauli letter {letter!r} in {text!r}")
        x, z = _LETTER_BITS[letter]
        x_bits |= x << j
        z_bits |= z << j
    return PauliString(len(body), x_bits, z_bits, _TOKEN_PHASES[token])


def to_text(P: PauliString) -> str:
    """Render with the phase token convention used by from_text."""
    letters = "".join(
        _LETTERS[(P.x_bits >> j) & 1, (P.z_bits >> j) & 1] for j in range(P.n)
    )
    return _PHASE_TOKENS[P.phase_exp] + letters


def y_count(P: PauliString) -> int:
    """Number of Y letters, popcount(x AND z)."""
    return (P.x_bits & P.z_bits).bit_count()


def hermitian_representative(P: PauliString) -> PauliString:
    """The same projective Pauli with canonical phase 0."""
    return PauliString(P.n, P.x_bits, P.z_bits, 0)


def same_projective(P: PauliString, Q: PauliString) -> bool:
    """Equality of the underlying phaseless Pauli words."""
    return P.n == Q.n and P.x_bits == Q.x_bits and P.z_bits == Q.z_bits


def to_key(P: PauliString) -> int:
    """Phaseless 2n-bit vertex encoding (x word high, z word low)."""
    return (P.x_bits << P.n) | P.z_bits


def from_key(key: int, n: int) -> PauliString:
    """Inverse of to_key, returning the canonical-phase representative."""
    mask = (1 << n) - 1
    return PauliString(n, key >> n, key & mask, 0)


def _check_same_size(P: PauliString, Q: PauliString):
    if P.n != Q.n:
        raise ValidationError(f"size mismatch: {P.n} vs {Q.n} qubits")


def multiply(P: PauliString, Q: PauliString) -> PauliString:
    """Matrix product PQ with the phase tracked mod 4."""
    _check_same_size(P, Q)
    x = P.x_bits ^ Q.x_bits
    z = P.z_bits ^ Q.z_bits
    # In X^x Z^z normal form, W = i^{#Y} X^x Z^z; commuting Z^{z_P} past
    # X^{x_Q} costs (-1)^{|z_P AND x_Q|}.
    k = (
        P.phase_exp
        + Q.phase_exp
        + y_count(P)
        + y_count(Q)
        - (x & z).bit_count()
        + 2 * (P.z_bits & Q.x_bits).bit_count()
    )
    return PauliString(P.n, x, z, k % 4)


def commutes(P: PauliString, Q: PauliString) -> bool:
    """True iff the symplectic product x_P.z_Q + z_P.x_Q vanishes mod 2."""
    _check_same_size(P, Q)
    s = (P.x_bits & Q.z_bits).bit_count() + (P.z_bits & Q.x_bits).bit_count()
    return s % 2 == 0


def transpose_sign(P: PauliString) -> int:
    """The sign s with P^T = s P, equal to (-1)**#Y for any stored phase."""
    return -1 if y_count(P) % 2 else 1


def support(P: PauliString) -> tuple[int, ...]:
    """0-based qubits carrying a non-identity letter, ascending."""
    bits = P.x_bits | P.z_bits
    return tuple(j for j in range(P.n) if (bits >> j) & 1)


def weight(P: PauliString) -> int:
    """Number of non-identity letters."""
    return (P.x_bits | P.z_bits).bit_count()


def _basis_mask(bits: int, n: int) -> int:
    """Map a qubit-indexed word to basis-index bit positions (qubit 0 = MSB)."""
    out = 0
    for j in range(n):
        if (bits >> j) & 1:
            out |= 1 << (n - 1 - j)
    return out


@functools.lru_cache(maxsize=None)
def _popcount_table(d: int) -> np.ndarray:
    return np.array([c.bit_count() for c in range(d)], dtype=np.int64)


def signed_permutation(P: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (perm, amp) with dense(P)[perm[c], c] = amp[c].

    W acts as X^x Z^z up to the phase i^{#Y}: column c maps to row c XOR x
    with sign (-1)^{z.c}, all in basis-bit positions.
    """
    d = 1 << P.n
    rx = _basis_mask(P.x_bits, P.n)
    rz = _basis_mask(P.z_bits, P.n)
    cols = np.arange(d, dtype=np.int64)
    signs = 1 - 2 * (_popcount_table(d)[cols & rz] & 1)
    amp = _PHASES[(P.phase_exp + y_count(P)) % 4] * signs.astype(np.complex128)
    return cols ^ rx, amp


def to_dense(P: PauliString, max_qubits: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense 2^n x 2^n matrix; unitary, Hermitian for canonical phase."""
    if P.n > max_qubits:
        raise BudgetError(f"dense Pauli for n={P.n} exceeds cap {max_qubits}")
    d = 1 << P.n
    perm, amp = signed_permutation(P)
    M = np.zeros((d, d), dtype=np.complex128)
    M[perm, np.arange(d)] = amp
    return M


def trace_with(P: PauliString, A: np.ndarray) -> complex:
    """Tr[dense(P) @ A] in O(2^n) via the signed-permutation structure."""
    d = 1 << P.n
    if A.shape != (d, d):
        raise ValidationError(f"operator shape {A.shape} does not match n={P.n}")
    perm, amp = signed_permutation(P)
    return complex(np.sum(amp * A[np.arange(d), perm]))


def majorana(i: int, n: int) -> PauliString:
    """The 1-based i-th Majorana operator on n qubits (Jordan-Wigner)."""
    if not 1 <= i <= 2 * n:
        raise ValidationError(f"Majorana index {i} out of range 1..{2 * n}")
    site = (i + 1) // 2  # 1-based qubit carrying the X or Y letter
    x_bits = 1 << (site - 1)
    z_bits = (1 << (site - 1)) - 1  # Z string on earlier qubits
    if i % 2 == 0:
        z_bits |= 1 << (site - 1)
    return PauliString(n, x_bits, z_bits, 0)


def majorana_product(indices, n: int) -> PauliString:
    """The ordered product of Majoranas c_{i1} c_{i2} ... on n qubits."""
    out = identity(n)
    for i in indices:
        out = multiply(out, majorana(i, n))
    return out


def majorana_bits(x, z, n: int):
    """The words (a, b) of the Majorana monomial proportional to the Pauli
    with words (x, z): bit q of a marks c_{2q+1} and bit q of b c_{2q+2}.

    Jordan-Wigner inverted in closed form: the monomial has X on qubit q
    iff a_q + b_q is odd, and Z-strings from every later qubit, so
    b_q = z_q + sum_{j > q} x_j (mod 2).  x and z are Python ints or int64
    arrays of words.
    """
    y, s = x, 1  # y_q becomes the suffix XOR of x from q on
    while s < n:
        y = y ^ (y >> s)
        s <<= 1
    b = z ^ (y >> 1)
    return x ^ b, b


def majorana_decomposition(P: PauliString) -> tuple[int, ...]:
    """Sorted 1-based indices a_1 < ... < a_k with P proportional to c_{a_1}...c_{a_k}."""
    a, b = majorana_bits(P.x_bits, P.z_bits, P.n)
    indices = tuple(2 * q + 1 + odd for q in range(P.n) for odd, w in enumerate((a, b)) if w >> q & 1)
    if not same_projective(majorana_product(indices, P.n), P):
        raise ValidationError(f"inconsistent Pauli {P!r} has no Majorana monomial")
    return indices


def majorana_count(P: PauliString) -> int:
    """Length of the Majorana decomposition of P."""
    return len(majorana_decomposition(P))
