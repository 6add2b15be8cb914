"""Dense linear algebra for two-copy simulation at small qubit counts.

Operators and states are plain numpy arrays, real (float64) or complex
(complex128), and every function keeps its operands' field: a real operator
stays real, so a real orthogonal circuit runs in real arithmetic.  A dense
operator on m qubits is a 2^m x 2^m matrix, a state a length-2^m vector.
Qubit 0 is the leftmost tensor factor (most significant basis bit).
Two-copy systems put copy 1 on qubits 0..n-1 and copy 2 on qubits n..2n-1;
region bookkeeping is done by basis-index permutations, never by physically
reordering amplitudes twice, and the identity order moves nothing.

The index maps are cached: ``basis_permutation`` is memoized per (order, n)
and returned read-only, and ``embed`` places an operator's entries into the
n-qubit matrix through scatter indices cached per (qubits, n), with no
Kronecker product and no gather.  The placed entries are the operator's own,
so the result equals the Kronecker-product-then-permute construction.  A
product with a phased permutation (a phased Pauli, a Bell state reshaped to
a matrix) is no d^3 product: ``right_product`` turns such a factor into one
column gather and one in-place scale, whose every entry is the matmul's one
nonzero term, rounded as the matmul rounds it.

``embed``, ``permute_state``, ``apply_two_copy``, ``complement_bell_overlap``
and ``partial_trace`` take operators and states with leading stack axes, so
one body serves a single sample and a stacked chunk of samples.  Each matrix
of a stack goes through the same index maps and the same per-matrix products
as it would alone, so a stacked result is the single result bit for bit.

Budgets: state vectors up to 2^16 amplitudes, dense two-copy operators only up
to n = 5 per copy.  Above that, callers must use the partial-inner-product
shortcuts (``complement_bell_overlap``) instead of materialized projectors.
"""

from __future__ import annotations

import functools

import numpy as np

from . import pauli
from .errors import BudgetError, ValidationError

STATE_QUBIT_CAP = 16  # total qubits in any state vector
TWO_COPY_OPERATOR_CAP = 5  # per-copy qubits for materialized two-copy operators
PAULI_EXPANSION_CAP = 6


def _require_qubits(m: int, cap: int, what: str):
    if m > cap:
        raise BudgetError(f"{what} needs {m} qubits, cap is {cap}")


def _qubit_count(dim: int) -> int:
    m = dim.bit_length() - 1
    if 1 << m != dim:
        raise ValidationError(f"dimension {dim} is not a power of two")
    return m


@functools.lru_cache(maxsize=None)
def basis_permutation(order: tuple[int, ...], n: int) -> np.ndarray:
    """Index map sigma with sigma[c] = index of c when qubits are reordered.

    ``order`` lists the qubits that become positions 0, 1, ... (leftmost
    first); omitted qubits follow in ascending order.  Permuting a state is
    ``psi_new[sigma[c]] = psi[c]``.  The map is cached and read-only.
    """
    rest = tuple(q for q in range(n) if q not in order)
    full = order + rest
    if sorted(full) != list(range(n)):
        raise ValidationError(f"bad qubit order {order} for n={n}")
    cols = np.arange(1 << n, dtype=np.int64)
    sigma = np.zeros(1 << n, dtype=np.int64)
    for pos, q in enumerate(full):
        sigma |= ((cols >> (n - 1 - q)) & 1) << (n - 1 - pos)
    sigma.setflags(write=False)
    return sigma


def permute_state(psi: np.ndarray, order: tuple[int, ...], n: int) -> np.ndarray:
    """State in the basis where ``order`` lists the leading qubits.

    psi may carry leading stack axes; each state is permuted on its own.
    """
    sigma = basis_permutation(order, n)
    out = np.empty_like(psi)
    out[..., sigma] = psi
    return out


@functools.lru_cache(maxsize=None)
def _embed_scatter(qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Flat indices idx[a, b, r] of op[a, b] in the n-qubit matrix, one per rest state r.

    Entry (i, j) of the embedding is op[a, b] when i and j carry a and b on
    the listed qubits and agree on the rest; every other entry is zero.
    """
    sigma = basis_permutation(qubits, n)
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(sigma.size)
    dk, dr = 1 << len(qubits), 1 << (n - len(qubits))
    rows = inv.reshape(dk, dr)  # rows[a, r]: the index with a on the qubits, r elsewhere
    idx = rows[:, None, :] * (1 << n) + rows[None, :, :]
    idx.setflags(write=False)
    return idx


def embed(op: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Extend an operator acting on the listed qubits (in order) to n qubits.

    op may carry leading stack axes; each matrix is placed on its own.
    """
    k = _qubit_count(op.shape[-1])
    if k != len(qubits):
        raise ValidationError(f"operator acts on {k} qubits, got {len(qubits)} targets")
    _require_qubits(n, pauli.DENSE_QUBIT_CAP, "dense embedding")
    idx = _embed_scatter(tuple(qubits), n)
    lead = op.shape[:-2]
    out = np.zeros((*lead, 1 << (2 * n)), dtype=op.dtype)
    out[..., idx] = op[..., None]
    return out.reshape(*lead, 1 << n, 1 << n)


def right_product(M: np.ndarray):
    """The map A -> A @ M for a fixed d x d matrix M, for A with leading stack axes.

    When every column j of M has one nonzero, M[src[j], j] = phase[j] (a
    phased permutation), column j of A @ M is phase[j] times column src[j]
    of A: one gather, scaled in place, in place of a d^3 product.  Each
    entry is then the matmul's only nonzero term, so it rounds as the
    matmul does; only the sign of an exact zero can differ.  Real phases
    keep a real A real.  The identity returns A itself, and any other M is
    multiplied.
    """
    nonzero = M != 0
    if not np.all(np.count_nonzero(nonzero, axis=0) == 1):
        return lambda A: A @ M
    src = np.argmax(nonzero, axis=0)
    phase = M[src, np.arange(M.shape[1])]
    if np.iscomplexobj(phase) and not np.any(phase.imag):
        phase = phase.real
    if np.array_equal(src, np.arange(src.size)) and np.all(phase == 1):
        return lambda A: A

    def gathered(A: np.ndarray) -> np.ndarray:
        # an index, not np.take, which would first copy a transposed A
        out = A[..., src].astype(np.result_type(A, phase), copy=False)
        out *= phase
        return out

    return gathered


def partial_trace(A: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """Trace out all qubits not in ``keep`` (result ordered as ``keep``).

    A may carry leading stack axes; each matrix is reduced on its own.
    """
    sigma = basis_permutation(tuple(keep), n)
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(sigma.size)
    dK = 1 << len(keep)
    dR = (1 << n) // dK
    B = A[..., inv[:, None], inv].reshape(*A.shape[:-2], dK, dR, dK, dR)
    return np.einsum("...arbr->...ab", B)


def bell_state(m: int) -> np.ndarray:
    """Maximally entangled state of two m-qubit registers."""
    _require_qubits(2 * m, STATE_QUBIT_CAP, "Bell state")
    d = 1 << m
    return (np.eye(d, dtype=np.complex128) / np.sqrt(d)).reshape(-1)


def apply_two_copy(A: np.ndarray, B: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(A tensor B) applied to a two-copy state, via one reshape.

    A, B and psi may carry leading stack axes, which broadcast.
    """
    d = A.shape[-1]
    out = A @ psi.reshape(*psi.shape[:-1], d, d) @ np.swapaxes(B, -1, -2)
    return out.reshape(*out.shape[:-2], d * d)


def swap_region(region: tuple[int, ...], n: int) -> np.ndarray:
    """Involution on H^{x2} exchanging the region factors of the two copies."""
    _require_qubits(n, TWO_COPY_OPERATOR_CAP, "dense two-copy swap")
    d = 1 << n
    rm = 0
    for q in set(region):
        if not 0 <= q < n:
            raise ValidationError(f"region qubit {q} outside 0..{n - 1}")
        rm |= 1 << (n - 1 - q)
    idx = np.arange(d * d, dtype=np.int64)
    a, b = idx >> n, idx & (d - 1)
    new = (((a & ~rm) | (b & rm)) << n) | ((b & ~rm) | (a & rm))
    M = np.zeros((d * d, d * d), dtype=np.complex128)
    M[new, idx] = 1.0
    return M


def complement_bell_overlap(
    psi: np.ndarray, region: tuple[int, ...], n: int
) -> np.ndarray:
    """Partial inner product of a two-copy state with the complement Bell pair.

    Returns the matrix T (indexed by the two region factors) such that the
    Born probability of the projector that is the identity on both region
    factors and the Bell projector on the two complements is ||T||_F^2.  This
    avoids materializing the projector and works up to the state-vector cap.
    psi may carry leading stack axes, giving one T per state.
    """
    _require_qubits(2 * n, STATE_QUBIT_CAP, "two-copy state")
    reg = tuple(sorted(set(region)))
    comp = tuple(q for q in range(n) if q not in reg)
    order = reg + comp + tuple(n + q for q in reg) + tuple(n + q for q in comp)
    # a prefix region (0..m-1) orders the qubits as they are
    chi = psi if order == tuple(range(2 * n)) else permute_state(psi, order, 2 * n)
    dL, dC = 1 << len(reg), 1 << len(comp)
    T = np.einsum("...axbx->...ab", chi.reshape(*psi.shape[:-1], dL, dC, dL, dC))
    return T / np.sqrt(dC)
