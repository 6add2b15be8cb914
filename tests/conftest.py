"""Shared oracles for the test suite.

The dense oracle builds Pauli matrices by explicit Kronecker chains with its
own phase bookkeeping, independent of the bit-packed implementation, so the
two can check each other.  The complement Bell projector and the Born
probability against a materialized POVM element are the dense references that
``densesim.complement_bell_overlap`` is checked against.

The sampler references are the straightforward forms of the library's cached
and batched kernels: ``embed`` as a Kronecker product with the identity
followed by a permutation gather, ``sample_shallow_reference`` as a loop in
which every gate draws its own Gaussians and takes its own QR and every
layer and the circuit start from an identity (a matchgate gate, which the
library samples only as a Majorana rotation, its own product of
Kronecker-built exponentials), and the symplectic Haar draw as modified
Gram-Schmidt, one vector at a time.  The dense brickwork sampler that the
library's cone evaluator replaced lives here as that evaluator's oracle:
``sample_shallow_stack`` builds each stream's d x d circuit from the
library's layer draws, ``sample_shallow`` is its stack of one, and
``two_copy_shallow_p`` evaluates the retained probability of its draws on
the dense two-copy state.  ``brickwork_rows_reference`` is the per-sample form of
the chunk-stacked dense brickwork runner: one stream, one draw and one
single-state evolution at a time, with every two-copy factor a matrix
product.  The references compute in the library's field, so they can be
compared by bytes: orthogonal gates, circuits and two-copy states are real,
and the identities are real, so that each product takes the field of the
matrices it multiplies.  The dense gate-count
reference multiplies each sample's N gate exponentials as 2^n x 2^n
matrices and sums the squared Pauli coefficients of U P U^dag over the
N-ball (``pauli_spread_mass``).  The dense matchgate references are the
oracles that the Majorana-rotation evaluation is checked against.

The Majorana-rotation references are the per-sample forms of the stacked
rotation samplers and evaluators: factors drawn with ``rng.uniform``, each
generator's plane read from the phase of its Majorana product
(``bilinear_plane_reference``), the exponentials applied to rows kept as
Python lists, one SO(2n) draw and, per
stream, one det or eigvalsh for the closed forms or one det per monomial of
T, found by enumerating the k-subsets of the Majoranas or by a deque BFS;
``rotation_rows_reference`` runs the depth and gate-count experiments on
them, one sample at a time, and ``per_sample_rows`` finalizes each sample
on its own stream with ``shallow_row_reference`` and ``finalize_reference``,
which take one sample through the runner's block checks and clamp and its
per-sample shot.

The commutator-graph references are the per-vertex forms of the numpy
closures: ``neighbors`` of one Pauli, a deque BFS over Python-int keys, and
the Clifford closure that multiplies and keys one matrix at a time (its
table, stacked, is what the reference Clifford gates index).  The
whole-level Clifford closure, which multiplies and keys all of a level's
candidates before it keeps the fresh ones, is the oracle of the library's
block-by-block closure into one preallocated table.

Every per-sample reference draws from ``fresh_stream``, a generator built
straight from ``np.random.Philox``, so the library's runs, which re-key
recycled generators, are checked against new ones.

The moment references are the per-sample forms of the chunk-stacked
estimators in ``moments``: one stream, one ``sample_haar`` draw and one
evaluation at a time, with sums taken in the documented 64-sample chunk
order.  ``accumulate_rows`` sums the rows of a chunk-valued function over
the library's chunk loop, block by block; ``accumulate_moments`` is its
per-sample form, and the twirl's reference squares each draw by
``np.kron``.  The regional-swap trace also has a dense
reference that squares (U V U^dag) by Kronecker product and traces it
against the (d^2, d^2) observable.  The commutant basis built from commutator-graph
components, with its Gram report and its Monte Carlo overlaps, the second
matchgate form, the group-membership predicate and the gate-count envelope
threshold scan live here because only the tests use them, as do the two-copy
invariant state (1 x Omega)|Phi> of a form, the membership conditions of
each group, the full Pauli expansion of a dense operator and the adjoint
Majorana matrix of a unitary.  So do the form check of a generator set
(``invariant_form_check``), the per-kind generator sets as they were built
before ``groups.generator_set`` (``generator_set_reference``), and the
Majorana decomposition by Gaussian elimination over F_2
(``majorana_decomposition_reference``), the oracle of the library's
closed-form Jordan-Wigner inversion; the Majorana-rotation references read
their monomials through it.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass

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


def embed_reference(op: np.ndarray, qubits, n: int) -> np.ndarray:
    """op on the listed qubits: kron(op, 1), then both indices permuted."""
    from designgap import densesim

    sigma = densesim.basis_permutation(tuple(qubits), n)
    big = np.kron(op, np.eye(1 << (n - len(qubits))))
    return big[np.ix_(sigma, sigma)]


def swap_qubit_permutation(a: int, b: int, n: int) -> np.ndarray:
    """Dense permutation matrix exchanging two qubits."""
    d = 1 << n
    idx = np.arange(d, dtype=np.int64)
    pa, pb = n - 1 - a, n - 1 - b
    bit_a = (idx >> pa) & 1
    bit_b = (idx >> pb) & 1
    swapped = idx ^ ((bit_a ^ bit_b) << pa) ^ ((bit_a ^ bit_b) << pb)
    M = np.zeros((d, d), dtype=np.complex128)
    M[swapped, idx] = 1.0
    return M


def symplectic_canonical(d: int, rng) -> np.ndarray:
    """The library's block Gram-Schmidt draw in the canonical form J, unswapped."""
    from designgap import groups

    return groups._symplectic_columns(rng.normal(size=(1, d // 2, 2, d)))[0]


def haar_symplectic_mgs(d: int, rng) -> np.ndarray:
    """Canonical-form symplectic Haar draw by modified Gram-Schmidt.

    Each column is orthogonalized one pool vector at a time, twice, against
    the previous columns and their images under T(v) = J conj(v); the second
    block of columns is -T of the first.
    """
    from designgap import groups

    J = groups._canonical_symplectic_j(d)
    us, pool = [], []
    for _ in range(d // 2):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        for _ in range(2):
            for w in pool:
                v = v - w * np.vdot(w, v)
        u = v / np.linalg.norm(v)
        us.append(u)
        pool.append(u)
        pool.append(J @ u.conj())
    return np.column_stack(us + [-(J @ u.conj()) for u in us])


def _local_gate_reference(kind: str, pair, n: int, rng) -> np.ndarray:
    from designgap import groups

    if kind == "matchgate":
        U = np.eye(4, dtype=np.complex128)
        for _ in range(groups.MATCHGATE_LOCAL_FACTORS):
            g = int(rng.integers(len(groups._LOCAL_MATCHGATE_GENS)))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            P = kron_chain(groups._LOCAL_MATCHGATE_GENS[g])
            U = U @ (math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * P)
        return U
    if kind == "clifford":
        table = clifford_table_reference(2)
        return np.array(table[int(rng.integers(len(table)))])
    fq = groups.symplectic_form_qubit(n)
    if kind == "symplectic" and fq in pair:
        local = symplectic_canonical(4, rng)
        if pair.index(fq) != 0:
            P = swap_qubit_permutation(0, 1, 2)
            local = P @ local @ P
        return local
    if kind in ("orthogonal", "symplectic"):
        Q, R = np.linalg.qr(rng.normal(size=(4, 4)))
        return Q * np.sign(np.diagonal(R))
    if kind in ("unitary", "mixed_unitary"):
        Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Q, R = np.linalg.qr(Z)
        diag = np.diagonal(R)
        return Q * (diag / np.abs(diag))
    raise ValueError(f"no reference gate for kind {kind!r}")


def sample_shallow_reference(G, L: int, adjacency, rng) -> np.ndarray:
    """Brickwork unitary with one draw and one QR per gate, kron-embedded.

    A symplectic layer with a gate on the form qubit is complex, as the
    library's is: its real orthogonal gates are cast before they are placed.
    """
    from designgap import groups

    adj = groups.parse_adjacency(adjacency, G.n)
    d = 1 << G.n
    fq = groups.symplectic_form_qubit(G.n)
    U = np.eye(d)
    for layer_index in range(L):
        cls = adj.layer_classes[layer_index % len(adj.layer_classes)] if adj.layer_classes else ()
        complex_layer = G.kind == "symplectic" and any(fq in pair for pair in cls)
        layer_u = np.eye(d)
        for pair in cls:
            gate = _local_gate_reference(G.kind, pair, G.n, rng)
            if complex_layer:
                gate = gate.astype(np.complex128)
            layer_u = embed_reference(gate, pair, G.n) @ layer_u
        U = layer_u @ U
    return U


def sample_shallow_stack(G, L: int, adjacency, streams) -> np.ndarray:
    """One dense depth-L brickwork unitary per stream, stacked to (len(streams), d, d).

    The library's dense brickwork sampler before the cone evaluator replaced
    it, kept as that evaluator's oracle.  Each layer's gates are drawn with
    ``groups._layer_gates``, the stream order of the cone evaluator; each
    layer starts from the embedding of its first gate and multiplies the
    others onto it in pair order, the running product starts from the first
    layer, and the form self-check runs once over the stack.  Row i is the
    stack of one of ``streams[i]`` bit for bit.
    """
    from designgap import densesim, groups
    from designgap.errors import ValidationError

    if G.kind == "matchgate":
        raise ValidationError(
            "matchgate brickwork circuits are sampled as Majorana rotations: use sample_shallow_rotation_stack"
        )
    if L < 0:
        raise ValidationError(f"negative depth {L}")
    adj = groups.parse_adjacency(adjacency, G.n)
    U = None
    for layer_index in range(L if adj.layer_classes else 0):
        cls = adj.layer_classes[layer_index % len(adj.layer_classes)]
        gates = groups._layer_gates(G.kind, cls, G.n, streams)
        layer_u = densesim.embed(gates[:, 0], cls[0], G.n)
        for i in range(1, len(cls)):
            layer_u = densesim.embed(gates[:, i], cls[i], G.n) @ layer_u
        U = layer_u if U is None else layer_u @ U
    if U is None:  # no gate: the identity
        U = np.tile(np.eye(G.dense_dimension, dtype=groups.dense_field(G.kind)), (len(streams), 1, 1))
    if G.form is not None and L > 0:
        groups._check_form(G, U, f"shallow {G.kind} circuit")
    return U


def sample_shallow(G, L: int, adjacency, rng) -> np.ndarray:
    """A dense depth-L brickwork unitary: the stack of one of ``sample_shallow_stack``."""
    return sample_shallow_stack(G, L, adjacency, [rng])[0]


def two_copy_shallow_p(config, streams, conjugate: bool = False) -> np.ndarray:
    """The shallow side's retained probabilities on the dense two-copy state
    of ``sample_shallow_stack`` draws, one per stream: the route that the
    cone evaluator replaced, with the form unwound by a d x d product."""
    from designgap import densesim, groups, pauli

    G, n = config.group, config.n
    U = sample_shallow_stack(G, config.ensemble.depth, config.ensemble.adjacency, streams).astype(np.complex128)
    eye = np.eye(1 << n)
    Vd = pauli.to_dense(pauli.hermitian_representative(config.perturbation))
    if conjugate:
        psi = densesim.apply_two_copy(U, U.conj(), densesim.apply_two_copy(Vd, eye, densesim.bell_state(n)))
    else:
        psi0 = densesim.apply_two_copy(Vd, G.form.dense(), densesim.bell_state(n))
        psi = densesim.apply_two_copy(eye, G.form.inverse_dense(), densesim.apply_two_copy(U, U, psi0))
    T = densesim.complement_bell_overlap(psi, config.region, n)
    return np.sum(np.abs(T) ** 2, axis=(-2, -1))


def matchgate_form_2(n: int):
    """The complementary alternating form YXYX..., also preserved by matchgates."""
    from designgap import groups, pauli

    return groups.bilinear_form(pauli.from_text("YX" * (n // 2) + "Y" * (n % 2)))


def invariant_form_check(form, S) -> bool:
    """Every generator P of S satisfies P^T Omega + Omega P = 0 for the Pauli form Omega."""
    from designgap import groups, pauli
    from designgap.errors import ValidationError

    if form.n != S.n:
        raise ValidationError(f"form on {form.n} qubits, generators on {S.n}")
    word = pauli.hermitian_representative(form.representation)
    return all(groups.pauli_form_condition(g, word) for g in S.generators)


def generator_set_reference(kind: str, n: int, which: str = "standard"):
    """The shipped generator sets as the per-kind builders listed them: the
    matchgate Z_i then X_i X_{i+1}, or all n(2n-1) bilinears c_a c_b by (a, b);
    the other kinds' 1-local chain Paulis (letter Z, X, Y, then site) and
    2-local ones (first letter, second letter, then site), filtered to odd Y
    count (orthogonal) or to the symplectic form condition."""
    from designgap import cgraph, groups, pauli

    letters = ((0, 1), (1, 0), (1, 1))  # Z, X, Y as (x, z)
    if kind == "matchgate":
        if which == "full":
            gens = [pauli.hermitian_representative(pauli.multiply(pauli.majorana(a, n), pauli.majorana(b, n)))
                    for a in range(1, 2 * n + 1) for b in range(a + 1, 2 * n + 1)]
        else:
            gens = [pauli.PauliString(n, 0, 1 << i) for i in range(n)]
            gens += [pauli.PauliString(n, 3 << i, 0) for i in range(n - 1)]
        return cgraph.GeneratorSet(n, tuple(gens))
    gens = [pauli.PauliString(n, x << i, z << i) for x, z in letters for i in range(n)]
    gens += [
        pauli.PauliString(n, (xa << i) | (xb << (i + 1)), (za << i) | (zb << (i + 1)))
        for xa, za in letters for xb, zb in letters for i in range(n - 1)
    ]
    if kind == "orthogonal":
        gens = [g for g in gens if pauli.y_count(g) % 2 == 1]
    elif kind == "symplectic":
        word = pauli.hermitian_representative(groups.symplectic_form(n).representation)
        gens = [g for g in gens if groups.pauli_form_condition(g, word)]
    return cgraph.GeneratorSet(n, tuple(gens))


@functools.lru_cache(maxsize=None)
def _majorana_solver(n: int) -> tuple:
    """Rows of the inverse, over F_2, of the Majorana bit-vector matrix.

    Column a (0-based) of the forward matrix is the 2n-bit word
    x_bits | (z_bits << n) of c_{a+1}; the columns form an F_2 basis, so the
    inverse exists.  Membership bit a of a Pauli with word v is
    parity(rows[a] AND v).
    """
    from designgap import pauli

    m = 2 * n
    cols = [c.x_bits | (c.z_bits << n) for c in (pauli.majorana(a, n) for a in range(1, m + 1))]
    # rows[i] holds bit j = entry (i, j) of the forward matrix, augmented with
    # the identity in the high m bits
    rows = [sum(((cols[j] >> i) & 1) << j for j in range(m)) | (1 << (m + i)) for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if (rows[r] >> col) & 1)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and (rows[r] >> col) & 1:
                rows[r] ^= rows[col]
    return tuple(row >> m for row in rows)


def majorana_decomposition_reference(P) -> tuple:
    """Sorted 1-based Majorana indices of P's monomial by an F_2 linear solve,
    checked against the forward product."""
    from designgap import pauli

    rows = _majorana_solver(P.n)
    v = P.x_bits | (P.z_bits << P.n)
    indices = tuple(a + 1 for a in range(2 * P.n) if (rows[a] & v).bit_count() % 2)
    assert pauli.same_projective(pauli.majorana_product(indices, P.n), P)
    return indices


def invariant_state(form, n: int) -> np.ndarray:
    """The unit-norm two-copy state (1 x Omega)|Phi>."""
    from designgap import densesim
    from designgap.errors import ValidationError

    if form.n != n:
        raise ValidationError(f"form on {form.n} qubits, requested n={n}")
    psi = densesim.apply_two_copy(
        np.eye(1 << n, dtype=np.complex128), form.dense(), densesim.bell_state(n)
    )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        psi = psi / norm
    return psi


def pauli_coefficients(A: np.ndarray) -> dict:
    """Coefficients a_T = Tr[T A]/d over all canonical Paulis T."""
    from designgap import densesim, pauli

    n = densesim._qubit_count(A.shape[0])
    densesim._require_qubits(n, densesim.PAULI_EXPANSION_CAP, "full Pauli expansion")
    d = 1 << n
    out = {}
    for key in range(4**n):
        T = pauli.from_key(key, n)
        out[T] = pauli.trace_with(T, A) / d
    return out


def adjoint_majorana_matrix(U: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """The matrix O with U c_a U^dag = sum_b O[b, a] c_b, plus residual."""
    from designgap import pauli

    d = 1 << n
    cs = [pauli.to_dense(pauli.majorana(a, n)) for a in range(1, 2 * n + 1)]
    O = np.zeros((2 * n, 2 * n))
    resid = 0.0
    for a in range(2 * n):
        image = U @ cs[a] @ U.conj().T
        coeffs = np.array([np.trace(c @ image) / d for c in cs])
        O[:, a] = coeffs.real
        recon = sum(coeffs.real[b] * cs[b] for b in range(2 * n))
        resid = max(resid, float(np.max(np.abs(image - recon))))
    return O, resid


def membership_failure(U: np.ndarray, G, tol: float = 1e-10) -> str | None:
    """The first failed membership condition of U in G, or None if all pass."""
    from designgap import densesim, pauli
    from designgap.errors import BudgetError

    d = G.dense_dimension
    if G.kind == "mixed_unitary" and U.shape[0] == d * d:
        # Kronecker rearrangement: A x B raveled this way is vec(A) vec(B)^T.
        W = U.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        u, s, vh = np.linalg.svd(W)
        if s.size > 1 and s[1] > max(tol, 1e-8) * max(1.0, s[0]):
            return f"not a Kronecker product: second singular value {s[1]:.2e}"
        A = (np.sqrt(d) * u[:, 0]).reshape(d, d)
        B = (s[0] / np.sqrt(d) * vh[0]).reshape(d, d)
        if np.max(np.abs(A @ A.conj().T - np.eye(d))) > 1e-8:
            return "first Kronecker factor is not unitary"
        inner = np.trace(A.T @ B)
        phase = inner / abs(inner) if abs(inner) > tol else 1.0
        if np.max(np.abs(B - phase * A.conj())) > 1e-8:
            return "second factor is not the conjugate of the first"
        return None
    if U.shape != (d, d):
        return f"dimension {U.shape} does not match d={d}"
    unit = float(np.max(np.abs(U.conj().T @ U - np.eye(d))))
    if unit > tol:
        return f"not unitary: residual {unit:.2e}"
    if G.kind == "orthogonal" and float(np.max(np.abs(U.imag))) > tol:
        return f"not real: imaginary residual {float(np.max(np.abs(U.imag))):.2e}"
    if G.form is not None:
        Om = G.form.dense()
        resid = float(np.max(np.abs(U.T @ Om @ U - Om)))
        if resid > tol:
            return f"form not preserved: residual {resid:.2e}"
    if G.kind == "matchgate":
        O, resid = adjoint_majorana_matrix(U, G.n)
        if resid > max(tol, 1e-8):
            return f"adjoint action leaves the Majorana span: residual {resid:.2e}"
        ortho = float(np.max(np.abs(O.T @ O - np.eye(2 * G.n))))
        if ortho > max(tol, 1e-8):
            return f"adjoint action is not orthogonal: residual {ortho:.2e}"
    if G.kind == "clifford":
        if G.n > densesim.PAULI_EXPANSION_CAP:
            raise BudgetError("clifford membership check needs a full Pauli expansion")
        for q in range(G.n):
            for P in (pauli.PauliString(G.n, 1 << q, 0), pauli.PauliString(G.n, 0, 1 << q)):
                image = U @ pauli.to_dense(P) @ U.conj().T
                coeffs = np.array(list(pauli_coefficients(image).values()))
                mass = np.abs(coeffs) ** 2
                if abs(np.max(mass) - 1.0) > max(tol, 1e-9):
                    return f"conjugated {pauli.to_text(P)} is not a single Pauli"
    return None


def verify_group_membership(U: np.ndarray, G, tol: float = 1e-10) -> bool:
    """True when all documented membership conditions hold at tolerance."""
    return membership_failure(U, G, tol) is None


def envelope_threshold(c, up_to: int) -> int:
    """Smallest multiple of c from which the exact gate-count in-ball fraction
    stays at or below ``bounds.gatecount_envelope`` up to the cap."""
    from designgap import bounds
    from designgap.errors import ValidationError

    if c <= 2 or int(c) != c:
        raise ValidationError(f"threshold scan needs an integer c > 2, got {c}")
    c = int(c)
    holds_from = None
    for n in range(c, up_to + 1, c):
        exact, _ = bounds.matchgate_gatecount_ratio(n, c)
        if float(exact) <= bounds.gatecount_envelope(n, c):
            if holds_from is None:
                holds_from = n
        else:
            holds_from = None
    if holds_from is None:
        raise ValidationError(f"envelope never dominates the exact ratio up to n={up_to}")
    return holds_from


def finalize_reference(p: float, stream, shot_mode: bool) -> float:
    """One sample's retained probability clamped to [0, 1] or, in shot mode,
    one shot drawn from its own stream; a non-finite p is an InvariantError."""
    from designgap.errors import InvariantError

    if not math.isfinite(p):
        raise InvariantError(f"a sample retained probability {p!r}")
    clamped = min(1.0, max(0.0, p))
    if shot_mode:
        return float(stream.random() < clamped)
    return clamped


def shallow_row_reference(p: float, stream, confined: bool, shot_mode: bool) -> np.ndarray:
    """One shallow sample as (finalized p, deviation from exact retention),
    the deviation checked against ``SHALLOW_FAILURE_TOL`` when confined."""
    from designgap import experiments
    from designgap.errors import InvariantError

    dev = abs(p - 1.0) if confined else 0.0
    if dev > experiments.SHALLOW_FAILURE_TOL:
        raise InvariantError(f"confined shallow sample retained probability {p!r}")
    return np.array([finalize_reference(p, stream, shot_mode), dev])


def per_sample_rows(config, shallow_p, haar_p, confined: bool):
    """The runner's rows one sample at a time: (shallow rows, Haar values).

    Each probability is evaluated on a fresh stream and finalized on that
    stream as the runner does: shallow samples on streams [0, M), Haar
    samples on [M, 2M).
    """
    M = config.samples
    shallow, haar = [], []
    for i in range(M):
        stream = fresh_stream(config.seed, i)
        shallow.append(shallow_row_reference(shallow_p(stream), stream, confined, config.shot_mode))
        stream = fresh_stream(config.seed, M + i)
        haar.append(finalize_reference(haar_p(stream), stream, config.shot_mode))
    return np.array(shallow), np.array(haar)


def _confined(config) -> bool:
    from designgap import groups, pauli

    adj = groups.parse_adjacency(config.ensemble.adjacency, config.n)
    cone = groups.lightcone(pauli.support(config.perturbation), config.ensemble.depth, adj)
    return set(cone) <= set(config.region)


def _in_field(A: np.ndarray) -> np.ndarray:
    """A as a real array when its entries are real, as the library keeps real factors."""
    return A.real.copy() if np.iscomplexobj(A) and not np.any(A.imag) else A


def brickwork_probability_reference(config, conjugate: bool = False):
    """Per-stream (shallow, Haar) retained probabilities of a brickwork run on
    the dense two-copy state: one ``sample_shallow_reference`` or
    ``sample_haar`` draw and one single-state evolution per stream."""
    from designgap import densesim, groups, pauli

    G, n = config.group, config.n
    adj = groups.parse_adjacency(config.ensemble.adjacency, n)
    L = config.ensemble.depth
    eye = np.eye(1 << n)
    Vd = pauli.to_dense(pauli.hermitian_representative(config.perturbation))
    if conjugate:
        psi0 = densesim.apply_two_copy(Vd, eye, densesim.bell_state(n))

        def evolve(U):
            return densesim.apply_two_copy(U, U.conj(), psi0)

    else:
        psi0 = _in_field(densesim.apply_two_copy(Vd, G.form.dense(), densesim.bell_state(n)))
        inverse = _in_field(G.form.inverse_dense())

        def evolve(U):
            return densesim.apply_two_copy(eye, inverse, densesim.apply_two_copy(U, U, psi0))

    def born(U):
        T = densesim.complement_bell_overlap(evolve(U), config.region, n)
        return float(np.sum(np.abs(T) ** 2).real)

    def shallow(stream):
        return born(sample_shallow_reference(G, L, adj, stream))

    def haar(stream):
        return born(groups.sample_haar(G, stream))

    return shallow, haar


def brickwork_rows_reference(config, conjugate: bool = False):
    """Per-sample rows of the dense brickwork runner: (shallow rows, Haar values)."""
    shallow, haar = brickwork_probability_reference(config, conjugate)
    return per_sample_rows(config, shallow, haar, _confined(config))


def pauli_spread_mass(U: np.ndarray, P, vertex_set) -> float:
    """Squared coefficient mass of U P U^dag on the given canonical vertices.

    Equals the Born probability of the projector onto span{(T x 1)|Phi>} for
    T in the set, since those states are orthonormal for distinct Paulis.
    """
    from designgap import pauli

    n = P.n
    d = 1 << n
    A = U @ pauli.to_dense(pauli.hermitian_representative(P)) @ U.conj().T
    total = 0.0
    for v in vertex_set:
        T = pauli.from_key(v, n) if isinstance(v, int) else pauli.hermitian_representative(v)
        total += abs(pauli.trace_with(T, A) / d) ** 2
    return total


def gate_sequence_unitary_reference(words, n: int, factors) -> np.ndarray:
    """The dense unitary of one (generator index, angle) list, each gate multiplied on the left."""
    d = 1 << n
    U = np.eye(d, dtype=np.complex128)
    for g, theta in factors:
        U = (math.cos(theta) * np.eye(d) + 1j * math.sin(theta) * dense_oracle(words[g])) @ U
    return U


def gatecount_probability_reference(config):
    """Per-stream (shallow, Haar) N-ball masses of a gate-count run on dense
    unitaries: the N-ball by a deque BFS, an N-gate product or a dense Haar
    matchgate per stream, and ``pauli_spread_mass`` over the ball."""
    from designgap import groups, pauli

    G, n, N = config.group, config.n, config.ensemble.gates
    S = config.ensemble.allowed
    P = pauli.hermitian_representative(config.perturbation)
    ball = sorted(bfs_reference(pauli.to_key(P), S, max_dist=N))
    words = [pauli.hermitian_representative(g) for g in S.generators]

    def shallow(stream):
        factors = draw_factors_reference(len(words), N, stream)
        return pauli_spread_mass(gate_sequence_unitary_reference(words, n, factors), P, ball)

    def haar(stream):
        return pauli_spread_mass(groups.sample_haar(G, stream), P, ball)

    return shallow, haar


def gatecount_dense_rows_reference(config):
    """Per-sample rows of a gate-count run on dense unitaries: (shallow rows, Haar values)."""
    shallow, haar = gatecount_probability_reference(config)
    return per_sample_rows(config, shallow, haar, True)


def bilinear_plane_reference(P) -> tuple[int, int, int]:
    """``groups.bilinear_plane`` through the Majorana decomposition and the
    phase of the ordered product c_{a+1} c_{b+1} = i^k W."""
    from designgap import pauli
    from designgap.errors import ValidationError

    K = majorana_decomposition_reference(P)
    if len(K) != 2:
        raise ValidationError(f"{pauli.to_text(P)} is not a Majorana bilinear")
    k = pauli.majorana_product(K, P.n).phase_exp
    return K[0] - 1, K[1] - 1, 1 if k == 3 else -1


def draw_factors_reference(choices: int, count: int, rng) -> list:
    """count draws of (generator index, angle), the angle by ``rng.uniform``."""
    return [(int(rng.integers(choices)), float(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(count)]


def rotate_by_exponentials_reference(planes, factors, m: int) -> np.ndarray:
    """The m x m Majorana rotation of one factor list, rows updated as Python lists."""
    rows = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    # the product's rotation is G_1 G_2 ... G_k; left-multiply from the right end
    for g, theta in reversed(factors):
        a, b, sigma = planes[g]
        c, s = math.cos(2.0 * theta), sigma * math.sin(2.0 * theta)
        ra, rb = rows[a], rows[b]
        rows[a] = [c * x - s * y for x, y in zip(ra, rb)]
        rows[b] = [s * x + c * y for x, y in zip(ra, rb)]
    return np.array(rows)


def haar_special_orthogonal_reference(d: int, rng) -> np.ndarray:
    """One Haar SO(d) draw: one QR, one det, the last column negated on negative det."""
    from designgap import groups

    Q = groups.haar_orthogonal_stack(d, [rng])[0].real
    if np.linalg.det(Q) < 0:
        Q = Q.copy()
        Q[:, -1] = -Q[:, -1]
    return Q


def sample_shallow_rotation_reference(G, L: int, adjacency, rng) -> np.ndarray:
    """The Majorana rotation of one brickwork circuit, one local gate at a time."""
    from designgap import groups

    adj = groups.parse_adjacency(adjacency, G.n)
    planes = groups._local_matchgate_planes()
    R = np.eye(2 * G.n)
    for layer_index in range(L):
        cls = adj.layer_classes[layer_index % len(adj.layer_classes)] if adj.layer_classes else ()
        for i, _ in cls:
            factors = draw_factors_reference(len(planes), groups.MATCHGATE_LOCAL_FACTORS, rng)
            block = slice(2 * i, 2 * i + 4)
            R[block] = rotate_by_exponentials_reference(planes, factors, 4) @ R[block]
    return R


def gate_sequence_rotation_reference(planes, n: int, N: int, rng) -> np.ndarray:
    """The Majorana rotation of one N-gate sequence, each gate multiplied on the left."""
    factors = draw_factors_reference(len(planes), N, rng)
    return rotate_by_exponentials_reference(planes, factors[::-1], 2 * n)


def region_monomials(n: int, k: int, region) -> list:
    """The 0-based index sets of the weight-k Majorana monomials whose Pauli
    support lies inside the region, ascending by Pauli key."""
    import itertools

    from designgap import pauli

    inside = [
        S for S in itertools.combinations(range(2 * n), k)
        if set(pauli.support(pauli.majorana_product([a + 1 for a in S], n))) <= set(region)
    ]
    return sorted(inside, key=lambda S: pauli.to_key(pauli.majorana_product([a + 1 for a in S], n)))


def ball_monomials(P, S, N: int) -> list:
    """The 0-based index sets of the monomials of P's N-ball under S, by a
    deque BFS, ascending by Pauli key."""
    from designgap import pauli

    keys = sorted(bfs_reference(pauli.to_key(P), S, max_dist=N))
    return [tuple(a - 1 for a in majorana_decomposition_reference(pauli.from_key(key, P.n))) for key in keys]


def minor_mass_reference(R: np.ndarray, T, K) -> float:
    """sum over S in T of det(R[S, K])^2, one det per monomial, added left to right."""
    total = 0.0
    for S in T:
        d = float(np.linalg.det(R[np.ix_(list(S), list(K))]))
        total = total + d * d
    return total


def rotation_rows_reference(config):
    """Per-sample rows of the rotation evaluation: (shallow rows, Haar values).

    The depth experiment keeps det(R[in, K]^T R[in, K]) on a prefix region
    and the minor mass over the region's monomials on any other; the
    gate-count experiment keeps the t^0..t^N part of
    prod_i (lambda_i + t (1 - lambda_i)) on a ball of the Johnson size and
    the minor mass over the ball on any other; one stream, one rotation and
    one evaluation at a time, finalized as the runner does.
    """
    from designgap import bounds, groups, pauli

    G, n = config.group, config.n
    K = [a - 1 for a in majorana_decomposition_reference(config.perturbation)]
    if config.ensemble.kind == "brickwork":
        L = config.ensemble.depth
        adj = groups.parse_adjacency(config.ensemble.adjacency, n)
        confined = _confined(config)

        def shallow(stream):
            return sample_shallow_rotation_reference(G, L, adj, stream)

        if config.region == tuple(range(len(config.region))):
            inside = 2 * len(config.region)

            def value(R):
                B = R[:inside, K]
                return float(np.linalg.det(B.T @ B))

        else:
            T = region_monomials(n, len(K), config.region)

            def value(R):
                return minor_mass_reference(R, T, K)

    else:
        N, confined = config.ensemble.gates, True
        S = config.ensemble.allowed
        planes = [groups.bilinear_plane(g) for g in S.generators]
        T = ball_monomials(pauli.hermitian_representative(config.perturbation), S, N)

        def shallow(stream):
            return gate_sequence_rotation_reference(planes, n, N, stream)

        if len(T) == bounds.johnson_ball_size(n, N, len(K)):

            def value(R):
                A = R[np.ix_(K, K)]
                coeffs = [1.0] + [0.0] * N
                for lam in np.linalg.eigvalsh(A.T @ A).tolist():
                    coeffs = [lam * c + (1.0 - lam) * c_lower for c, c_lower in zip(coeffs, [0.0] + coeffs)]
                total = 0.0  # left to right: sum() compensates its float sums from Python 3.12 on
                for c in coeffs:
                    total = total + c
                return total

        else:

            def value(R):
                return minor_mass_reference(R, T, K)

    return per_sample_rows(
        config,
        lambda stream: value(shallow(stream)),
        lambda stream: value(haar_special_orthogonal_reference(2 * n, stream)),
        confined,
    )


def _anticommutes(vx: int, vz: int, gx: int, gz: int) -> bool:
    return ((vx & gz).bit_count() + (vz & gx).bit_count()) % 2 == 1


def neighbors(P, S):
    """Distinct projective products HP over anticommuting generators H."""
    from designgap import pauli
    from designgap.errors import ValidationError

    if P.n != S.n:
        raise ValidationError(f"size mismatch: {P.n} vs {S.n} qubits")
    v = pauli.to_key(P)
    keys = set()
    for g in S.generators:
        if _anticommutes(P.x_bits, P.z_bits, g.x_bits, g.z_bits):
            keys.add(v ^ pauli.to_key(g))
    return tuple(pauli.from_key(k, P.n) for k in sorted(keys))


def bfs_reference(start_key: int, S, max_dist=None, max_size=None) -> dict:
    """Distances from start_key by a deque BFS, one vertex at a time."""
    from designgap import cgraph, pauli
    from designgap.errors import BudgetError

    max_size = cgraph.COMPONENT_SIZE_CAP if max_size is None else max_size
    n = S.n
    words = [(pauli.to_key(g), g.x_bits, g.z_bits) for g in S.generators]
    mask = (1 << n) - 1
    dist = {start_key: 0}
    frontier = deque([start_key])
    while frontier:
        v = frontier.popleft()
        dv = dist[v]
        if max_dist is not None and dv >= max_dist:
            continue
        vx, vz = v >> n, v & mask
        for gkey, gx, gz in words:
            if _anticommutes(vx, vz, gx, gz):
                w = v ^ gkey
                if w not in dist:
                    if len(dist) >= max_size:
                        raise BudgetError(f"component exceeds {max_size} vertices")
                    dist[w] = dv + 1
                    frontier.append(w)
    return dist


def enumerate_clifford_reference(n: int) -> tuple:
    """All projective n-qubit Cliffords by a FIFO closure, one product at a time."""
    from designgap import densesim

    H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    S = np.diag([1.0, 1.0j]).astype(np.complex128)
    gens = []
    for q in range(n):
        gens.append(densesim.embed(H, (q,), n))
        gens.append(densesim.embed(S, (q,), n))
    if n == 2:
        gens.append(np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128))  # CZ

    def canonical_key(M):
        flat = M.reshape(-1)
        pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
        normalized = M / (pivot / abs(pivot))
        return (np.round(normalized, 8) + 0.0).tobytes()

    start = np.eye(1 << n, dtype=np.complex128)
    seen = {canonical_key(start)}
    order = [start]
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for g in gens:
            candidate = g @ current
            key = canonical_key(candidate)
            if key not in seen:
                seen.add(key)
                order.append(candidate)
                queue.append(candidate)
    return tuple(order)


def enumerate_clifford_by_levels(n: int) -> np.ndarray:
    """All projective n-qubit Cliffords by a closure that holds each whole
    level's candidates, keys them, and keeps the first of each new key.

    Each generator multiplies ``groups.CLOSURE_BLOCK`` elements of a level in
    one product, as the library does, so the products are the same bytes.
    """
    from designgap import densesim, groups

    H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    S = np.diag([1.0, 1.0j]).astype(np.complex128)
    gens = []
    for q in range(n):
        gens.append(densesim.embed(H, (q,), n))
        gens.append(densesim.embed(S, (q,), n))
    if n == 2:
        gens.append(np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128))  # CZ
    gens = np.stack(gens)

    D = 1 << n
    frontier = np.eye(D, dtype=np.complex128)[None]
    seen = groups._clifford_keys(frontier)
    levels = [frontier]
    while len(frontier):
        candidates = np.empty((len(frontier), len(gens), D, D), dtype=np.complex128)
        for lo in range(0, len(frontier), groups.CLOSURE_BLOCK):
            block = frontier[lo : lo + groups.CLOSURE_BLOCK]
            wide = block.transpose(1, 0, 2).reshape(D, len(block) * D)
            for g, gen in enumerate(gens):
                candidates[lo : lo + len(block), g] = (gen @ wide).reshape(D, len(block), D).transpose(1, 0, 2)
        candidates = candidates.reshape(-1, D, D)
        keys = groups._clifford_keys(candidates)
        order = np.argsort(keys, kind="stable")
        first = np.ones(order.size, dtype=bool)
        np.not_equal(keys[order[1:]], keys[order[:-1]], out=first[1:])
        first = order[first]
        at = np.minimum(np.searchsorted(seen, keys[first]), seen.size - 1)
        fresh = np.sort(first[seen[at] != keys[first]])
        seen = np.sort(np.concatenate([seen, keys[fresh]]))
        frontier = candidates[fresh]
        levels.append(frontier)
    return np.concatenate(levels)


@functools.lru_cache(maxsize=2)
def clifford_table_reference(n: int) -> np.ndarray:
    """The reference closure's elements stacked into one read-only (N, 2^n, 2^n) array."""
    table = np.stack(enumerate_clifford_reference(n))
    table.setflags(write=False)
    return table


def fresh_stream(seed: int, index: int) -> np.random.Generator:
    """Sample index's generator, built straight from Philox: the reference for
    ``rng.sample_stream``, which may re-key a recycled generator instead."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _stream_values(fn, M: int, seed: int) -> np.ndarray:
    return np.array([fn(fresh_stream(seed, i)) for i in range(M)], dtype=np.float64)


def _estimate(values: np.ndarray, seed: int):
    from designgap import moments, rng

    mean, err = rng.mean_and_stderr(values)
    return moments.MomentEstimate(mean, err, int(values.size), seed)


def accumulate_reference(fn, shape, M: int, seed: int):
    """Sum and sum of squared moduli of fn(stream_i): each chunk of
    rng.CHUNK_SIZE samples added one sample at a time, then the chunk sums in
    order."""
    from designgap import rng

    chunk = rng.CHUNK_SIZE
    total = np.zeros(shape, dtype=np.complex128)
    total_sq = np.zeros(shape, dtype=np.float64)
    for lo in range(0, M, chunk):
        s = np.zeros(shape, dtype=np.complex128)
        q = np.zeros(shape, dtype=np.float64)
        for i in range(lo, min(lo + chunk, M)):
            v = fn(fresh_stream(seed, i))
            s += v
            q += np.abs(v) ** 2
        total += s
        total_sq += q
    return total, total_sq


def _add_rows(acc: np.ndarray, rows: np.ndarray, fresh: bool) -> np.ndarray:
    """acc + rows[0] + rows[1] + ..., added in that order.

    On a fresh (all-zero) accumulator with rows of more than one entry this
    is one reduce over the leading axis: numpy adds the rows of a C-contiguous
    stack in order, starting from zero, as the sequential loop does.  A
    one-entry row would be summed pairwise, so it and any continued
    accumulator are added row by row.
    """
    if fresh and acc.size > 1:
        return np.add.reduce(np.ascontiguousarray(rows), axis=0)
    for row in rows:
        acc += row
    return acc


def accumulate_rows(fn_chunk, shape, samples: int, seed: int, row_bytes: int = 0):
    """Elementwise sum and sum of squared moduli of the rows of fn_chunk.

    fn_chunk maps a list of streams to a stack of shape (len(streams),
    *shape).  Returns (total, total_sq) where total is complex and total_sq
    real.  The chunks come from the library's chunk loop, in blocks of at
    most rng.STACK_BYTES of rows; each 64-sample chunk is summed on its own
    in sample order and the chunk sums are added in order, so the result
    bits do not depend on how a chunk is split into blocks.
    """
    from designgap import rng

    total = np.zeros(shape, dtype=np.complex128)
    total_sq = np.zeros(shape, dtype=np.float64)
    for blocks in rng._chunks(samples, seed, 0, row_bytes):
        s = np.zeros(shape, dtype=np.complex128)
        q = np.zeros(shape, dtype=np.float64)
        for b, block in enumerate(blocks):
            v = np.asarray(fn_chunk(block), dtype=np.complex128)
            s = _add_rows(s, v, b == 0)
            q = _add_rows(q, np.abs(v) ** 2, b == 0)
        total += s
        total_sq += q
    return total, total_sq


def accumulate_moments(fn, shape, M: int, seed: int):
    """Sum and sum of squared moduli of fn(stream_i) through accumulate_rows,
    with each block stacking at most rng.STACK_BYTES of values."""
    row_bytes = np.dtype(np.complex128).itemsize * int(np.prod(shape))
    return accumulate_rows(lambda streams: np.stack([fn(s) for s in streams]), shape, M, seed, row_bytes)


def second_moment_matrix_reference(G, V, M: int, seed: int):
    """Per-sample mean and stderr of (U V U^dag)^{x2} by np.kron."""
    from designgap import moments, rng

    d = 1 << G.n
    Vd = moments._as_dense_v(V, G.n)

    def one(stream):
        from designgap import groups

        U = groups.sample_haar(G, stream)
        A = U @ Vd @ U.conj().T
        return np.kron(A, A)

    total, total_sq = accumulate_reference(one, (d * d, d * d), M, seed)
    return rng.mean_and_stderr_from_sums(total, total_sq, M)


def swap_trace_reference(G, V, region, M: int, seed: int):
    """Per-sample E Tr[(U V U^dag)^{x2} swap_region] by partial traces."""
    from designgap import densesim, groups, moments

    Vd = moments._as_dense_v(V, G.n)
    region = tuple(sorted(region))

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ Vd @ U.conj().T
        Mred = densesim.partial_trace(A, region, G.n)
        return float(np.trace(Mred @ Mred).real)

    return _estimate(_stream_values(one, M, seed), seed)


def second_moment_trace_dense_reference(G, V, O, M: int, seed: int):
    """Per-sample E Tr[(U V U^dag)^{x2} O] for a dense (d^2, d^2) observable O,
    by the explicit Kronecker square."""
    from designgap import groups, moments

    Vd = moments._as_dense_v(V, G.n)
    Od = np.asarray(O, dtype=np.complex128)

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ Vd @ U.conj().T
        return float(np.trace(np.kron(A, A) @ Od).real)

    return _estimate(_stream_values(one, M, seed), seed)


def spread_uniformity_reference(G, S, P, M: int, seed: int):
    """Per-sample spread report over P's component under S: one draw, one
    conjugation and one ``pauli.trace_with`` per component vertex at a time."""
    from designgap import cgraph, groups, moments, pauli, rng

    d = 1 << G.n
    keys = tuple(cgraph.component(P, S).keys.tolist())
    vertices = [pauli.from_key(k, G.n) for k in keys]
    P_dense = pauli.to_dense(pauli.hermitian_representative(P))

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ P_dense @ U.conj().T
        masses = np.array([abs(pauli.trace_with(T, A) / d) ** 2 for T in vertices])
        return np.append(masses, 1.0 - masses.sum())

    rows = np.array([one(fresh_stream(seed, i)) for i in range(M)])
    masses = tuple(moments.MomentEstimate(*rng.mean_and_stderr(rows[:, c]), M, seed) for c in range(len(keys)))
    return moments.SpreadReport(keys, masses, float(np.max(np.abs(rows[:, -1]))), len(keys))


def frobenius_schur_reference(G, Pi, M: int, seed: int):
    """Per-sample E Tr[Pi U^2]."""
    from designgap import groups

    def one(stream):
        U = groups.sample_haar(G, stream)
        return float(np.trace(U @ U if Pi is None else Pi @ U @ U).real)

    return _estimate(_stream_values(one, M, seed), seed)


def mixed_unitary_fs_reference(d: int, M: int, seed: int):
    """Per-sample E |Tr U^2|^2 over Haar U(d)."""
    from designgap import groups

    def one(stream):
        U = groups.haar_unitary_stack(d, [stream])[0]
        return abs(np.trace(U @ U)) ** 2

    return _estimate(_stream_values(one, M, seed), seed)


def haar_commutant_reference(d: int, M: int, seed: int):
    """Per-sample E |Tr U|^4 over Haar U(d)."""
    from designgap import groups

    return _estimate(_stream_values(lambda s: abs(np.trace(groups.haar_unitary_stack(d, [s])[0])) ** 4, M, seed), seed)


@dataclass(frozen=True, eq=False)
class QuadraticSymmetry:
    """Label (j, kappa) for one commutant basis element Q built from a
    component: Q = 1/(d sqrt(|C|)) sum_{T in C} T x (L_j T)."""

    j: int
    linear: object  # pauli.PauliString
    kappa: int
    component: object  # cgraph.Component

    def dense(self) -> np.ndarray:
        from designgap import densesim, pauli
        from designgap.errors import BudgetError

        n = self.component.n
        if n > densesim.TWO_COPY_OPERATOR_CAP:
            raise BudgetError(f"dense commutant basis capped at n <= {densesim.TWO_COPY_OPERATOR_CAP}")
        d = 1 << n
        out = np.zeros((d * d, d * d), dtype=np.complex128)
        for key in self.component.keys.tolist():
            T = pauli.from_key(key, n)
            out += np.kron(pauli.to_dense(T), pauli.to_dense(pauli.multiply(self.linear, T)))
        return out / (d * np.sqrt(self.component.size))


def quadratic_symmetry_basis(S, linear_syms) -> list:
    """One basis label per (linear symmetry, commutator-graph component).

    kappa records the Majorana weight of the component representative; for
    generator sets that do not preserve that grading it is only a name.
    """
    from designgap import cgraph, pauli
    from designgap.errors import ValidationError

    syms = list(linear_syms)
    if not syms:
        raise ValidationError("need at least one linear symmetry")
    for i, L in enumerate(syms):
        for L2 in syms[i + 1 :]:
            if pauli.same_projective(L, L2):
                raise ValidationError("linear symmetries must be projectively distinct")
    out = []
    for comp in cgraph.census(S):
        kappa = pauli.majorana_count(comp.representative)
        for j, L in enumerate(syms):
            out.append(QuadraticSymmetry(j, L, kappa, comp))
    return out


def symmetry_gram_report(basis, tol: float = 1e-12) -> dict:
    """Hilbert-Schmidt Gram matrix of the basis with collision diagnostics."""
    mats = [q.dense() for q in basis]
    k = len(mats)
    gram = np.zeros((k, k), dtype=np.complex128)
    for a in range(k):
        for b in range(k):
            gram[a, b] = np.trace(mats[a].conj().T @ mats[b])
    deviation = float(np.max(np.abs(gram - np.eye(k))))
    collisions = [
        ((basis[a].j, basis[a].kappa), (basis[b].j, basis[b].kappa))
        for a in range(k)
        for b in range(a + 1, k)
        if abs(gram[a, b]) > tol
    ]
    return {"gram": gram, "max_deviation": deviation, "collisions": collisions}


def commutant_overlap_estimates(G, P, basis, M: int, seed: int):
    """MC overlaps <Q, E (U P U^dag)^{x2}> for each commutant basis element."""
    from designgap import groups, pauli, rng

    Pd = pauli.to_dense(pauli.hermitian_representative(P))
    mats = [q.dense().conj().T for q in basis]

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ Pd @ U.conj().T
        AA = np.kron(A, A)
        return np.array([np.trace(Qh @ AA) for Qh in mats])

    total, total_sq = accumulate_moments(one, (len(mats),), M, seed)
    return rng.mean_and_stderr_from_sums(total, total_sq, M)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
