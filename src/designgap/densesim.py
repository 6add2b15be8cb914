"""Dense linear algebra for small qubit counts.

Operators are plain numpy arrays, real (float64) or complex (complex128),
and every function keeps its operands' field: a real operator stays real,
so a real orthogonal circuit runs in real arithmetic.  A dense operator on
m qubits is a 2^m x 2^m matrix.  Qubit 0 is the leftmost tensor factor
(most significant basis bit).  Region bookkeeping is done by basis-index
permutations, and the identity order moves nothing.  The one two-copy
operator here, ``swap_region``, puts copy 1 on qubits 0..n-1 and copy 2 on
qubits n..2n-1.

The index maps are cached: ``basis_permutation`` is memoized per (order, n)
and returned read-only, and ``embed`` places an operator's entries into the
n-qubit matrix through scatter indices cached per (qubits, n), with no
Kronecker product and no gather.  The placed entries are the operator's own,
so the result equals the Kronecker-product-then-permute construction.  A
product with a phased permutation (a phased Pauli) is no d^3 product:
``right_product`` turns such a factor into one column gather and one
in-place scale, whose every entry is the matmul's one nonzero term, rounded
as the matmul rounds it.

``embed`` and ``partial_trace`` take operators with leading stack axes, so
one body serves a single sample and a stacked chunk of samples.  Each matrix
of a stack goes through the same index maps and the same per-matrix products
as it would alone, so a stacked result is the single result bit for bit.

Budgets: dense two-copy operators only up to n = 5 per copy.  The
experiments never build one: the Born probability of the complement Bell
measurement is read from the partial trace of U V U^dag (``experiments``).
"""

from __future__ import annotations

import functools

import numpy as np

from . import pauli
from .errors import BudgetError, ValidationError

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
    lead, dK = A.shape[:-2], 1 << len(keep)
    dR = (1 << n) // dK
    if tuple(keep) != tuple(range(len(keep))):  # a prefix keeps the order as it is
        sigma = basis_permutation(tuple(keep), n)
        inv = np.empty_like(sigma)
        inv[sigma] = np.arange(sigma.size)
        # one flat np.take keeps each matrix's entries together, so a stacked
        # matrix is reduced in the memory order of a single one
        A = np.take(A.reshape(*lead, -1), (inv[:, None] << n | inv).reshape(-1), axis=-1)
    return np.einsum("...arbr->...ab", A.reshape(*lead, dK, dR, dK, dR))


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
