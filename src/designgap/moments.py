"""Monte Carlo and closed-form second-moment quantities for group ensembles.

The central objects are twirled two-copy operators E_U (U V U^dag)^{x2} and
their traces against observables such as regional swaps.  For the orthogonal
and symplectic groups the twirl of a single-qubit Z has a three-term closed
form over {1, S, E_G} whose coefficients are exact rationals; Monte Carlo
estimates reconstruct it entrywise.  Frobenius-Schur indicators and commutant
dimensions distinguish real, complex, and quaternionic representation types.

All estimators reduce the two-copy trace to d x d matrix products, so one
sample costs a few dense multiplications at dimension 2^n.  Every sampling
estimator (the twirl, the regional-swap trace, the spread over a component,
the Frobenius-Schur indicators and the Haar commutant dimension) evaluates
one 64-sample chunk at a time: ``groups.sample_haar_stack`` draws the chunk
and stacked products evaluate it.  The per-sample estimators stack one row
per sample with ``rng.sample_rows``, so every value is byte-identical to a
one-sample-at-a-time loop (the per-sample references live in
``tests/conftest.py``), and no stacked intermediate exceeds
``rng.STACK_BYTES``.  The spread estimator conjugates its chunk as a stack
and takes each row's vertex traces on its own.  The twirl never builds a
Kronecker square: a chunk's sums of A x A and of |A|^2 x |A|^2 are two
Gram products of the flattened draws, added chunk by chunk with
``rng.sum_chunks``, so its last digits differ from the per-sample
``np.kron`` sums by rounding only; at n = 5 it holds two 1024 x 1024
running sums and one chunk's two Gram products.  The Clifford commutant takes
the traces of the whole enumerated group, one (N, d, d) array, in one
``np.trace``.  Every sampling estimator checks its cost against
``FS_COST_CAP`` before the first draw (``check_cost``), counting each
sample's products and its fixed cost ``SAMPLE_FIXED_COST``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import cgraph, densesim, groups, pauli, rng
from .errors import BudgetError, ValidationError

# largest estimated cost of a run of dense Haar draws (a Frobenius-Schur
# estimate, a dense brickwork or gate-count experiment), in complex
# multiply-adds (d^3 per d x d product): 20 s to 2 min on one core of a
# 2-core x86 machine
FS_COST_CAP = 1e11
# the fixed cost of one sample, in multiply-adds taking the same time: its
# stream, its finalize step and the Python dispatch of its evaluation.  A
# sample whose products are negligible (n = 1) takes about 9 us on that
# machine, which at the ~2e9 multiply-adds per second that put the cap near
# one minute is 2e4 multiply-adds
SAMPLE_FIXED_COST = 20_000


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    samples: int
    seed: int | None


def _estimate(values: np.ndarray, seed: int | None) -> MomentEstimate:
    mean, err = rng.mean_and_stderr(values)
    return MomentEstimate(mean, err, int(values.size), seed)


def _as_dense_v(V, n: int) -> np.ndarray:
    if isinstance(V, pauli.PauliString):
        if V.n != n:
            raise ValidationError(f"perturbation on {V.n} qubits, group on {n}")
        return pauli.to_dense(V)
    M = np.asarray(V, dtype=np.complex128)
    if M.shape != (1 << n, 1 << n):
        raise ValidationError(f"perturbation shape {M.shape} does not match n={n}")
    return M


# ---------------------------------------------------------------------------
# Weingarten-style closed form for the single-Z twirl


def weingarten_coefficients(kind: str, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (alpha, beta, gamma) for E_U (U Z U^dag)^{x2} over {1, S, E_G}.

    Upper signs orthogonal, lower symplectic:
    alpha = -2/((d+-2)(d-+1)), beta = d/(same), gamma = +-d/(same).
    The expansion uses E_G = d (1 x Omega)|Phi><Phi|(1 x Omega) with no
    adjoint on the second insertion, which is what makes the same gamma sign
    convention work for both kinds.
    """
    if kind == "orthogonal":
        if d < 2:
            raise ValidationError(f"need d >= 2, got {d}")
        denom = (d + 2) * (d - 1)
        return Fraction(-2, denom), Fraction(d, denom), Fraction(d, denom)
    if kind == "symplectic":
        if d < 4 or d % 2:
            raise ValidationError(f"need even d >= 4 for symplectic, got {d}")
        denom = (d - 2) * (d + 1)
        return Fraction(-2, denom), Fraction(d, denom), Fraction(-d, denom)
    raise ValidationError(f"no closed-form coefficients for kind {kind!r}")


def form_insertion_dense(form: groups.BilinearForm, n: int) -> np.ndarray:
    """Dense E_G = d (1 x Omega)|Phi><Phi|(1 x Omega), second factor unplain.

    For a symmetric form this is d |Psi><Psi|; for an antisymmetric one it is
    -d |Psi><Psi|, absorbing the transpose sign so that gamma keeps a single
    formula across kinds.
    """
    d = 1 << n
    Om = form.dense()
    # (1 x Omega)|Phi> = vec(Omega^T) / sqrt(d) and (1 x Omega^T)|Phi> = vec(Omega) / sqrt(d)
    w = Om.T.reshape(-1) / np.sqrt(d)
    u = Om.reshape(-1) / np.sqrt(d)
    return d * np.outer(w, u)


def second_moment_closed_form(kind: str, n: int) -> np.ndarray:
    """Dense twirl of Z on one qubit: alpha 1 + beta S + gamma E_G.

    Valid for V = Z acting on any single qubit other than the symplectic form
    qubit; the three coefficients do not depend on which qubit that is.
    """
    d = 1 << n
    _check_two_copy_operator(n, "two-copy closed form")
    alpha, beta, gamma = weingarten_coefficients(kind, d)
    form = groups.orthogonal_form(n) if kind == "orthogonal" else groups.symplectic_form(n)
    eye2 = np.eye(d * d, dtype=np.complex128)
    swap = densesim.swap_region(tuple(range(n)), n)
    return float(alpha) * eye2 + float(beta) * swap + float(gamma) * form_insertion_dense(form, n)


def check_cost(what: str, M: int, costs: dict[str, int], run_costs: dict[str, int] | None = None) -> None:
    """Raise BudgetError when M samples cost more than FS_COST_CAP multiply-adds.

    ``costs`` maps each part of one sample's work to its multiply-adds, to
    which every sample adds ``SAMPLE_FIXED_COST``; ``run_costs`` maps the
    parts not paid per sample to their multiply-adds over the run.  The
    message names the total and each part over the M samples.  The estimate
    is exact integer arithmetic, so no size or sample count overflows it.
    """
    totals = {name: M * k for name, k in costs.items()}
    totals["per-sample fixed cost"] = M * SAMPLE_FIXED_COST
    totals.update(run_costs or {})
    total = sum(totals.values())
    if total > FS_COST_CAP:
        parts = ", ".join(f"{name} {Decimal(k):.2e}" for name, k in totals.items())
        raise BudgetError(
            f"{what} with {M} samples costs about {Decimal(total):.2e} multiply-adds ({parts}), "
            f"cap is {FS_COST_CAP:.0e}"
        )


def _check_two_copy_operator(n: int, what: str) -> None:
    if n > densesim.TWO_COPY_OPERATOR_CAP:
        raise BudgetError(f"{what} builds (d^2, d^2) operators, capped at n <= {densesim.TWO_COPY_OPERATOR_CAP}")


def _conjugated(G: groups.GroupSpec, Vd: np.ndarray, streams) -> np.ndarray:
    """U V U^dag for one Haar draw U per stream, stacked."""
    U = groups.sample_haar_stack(G, streams)
    return U @ Vd @ U.conj().transpose(0, 2, 1)


def _matrix_row_bytes(d: int) -> int:
    return np.dtype(np.complex128).itemsize * d * d


def mc_second_moment_matrix(G: groups.GroupSpec, V, M: int, seed: int):
    """Entrywise Monte Carlo mean and stderr of (U V U^dag)^{x2}.

    With X the chunk's conjugated draws A flattened to (B, d^2) rows, the
    chunk's sum of A x A is the Gram product X^T X and its sum of
    |A|^2 x |A|^2 is Y^T Y with Y = |X|^2, both read through the index map
    (i d + j, k d + l) -> (i d + k, j d + l).  ``rng.sum_chunks`` adds the
    two Gram products chunk by chunk, in Gram layout, and the mean and
    stderr are permuted to Kronecker layout once, at the end.  Before the
    first draw the run is budgeted by cost: per sample the Haar draw, the
    two products of the conjugation and the d^4 of each Gram product, per
    chunk the d^4 entries of each running sum.
    """
    n = G.n
    d = 1 << n
    _check_two_copy_operator(n, "dense two-copy average")
    check_cost(
        f"dense two-copy average for {G.kind} n={n}",
        M,
        {
            "Haar draws": draw_products(G) * d**3,
            "conjugations": 2 * d**3,
            "Gram products of the draws and of their squared moduli": 2 * d**4,
        },
        {"chunk sums": -(-M // rng.CHUNK_SIZE) * 2 * d**4},
    )
    Vd = _as_dense_v(V, n)

    def grams(streams):
        X = _conjugated(G, Vd, streams).reshape(len(streams), d * d)
        Y = np.abs(X) ** 2
        return X.T @ X, Y.T @ Y

    mean, stderr = rng.mean_and_stderr_from_sums(*rng.sum_chunks(grams, M, seed), M)

    def kronecker_layout(gram):
        # gram[i d + j, k d + l] = sum A[i, j] A[k, l] = kron(A, A)[i d + k, j d + l]
        return gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    return kronecker_layout(mean), kronecker_layout(stderr)


# ---------------------------------------------------------------------------
# second-moment traces


def mc_second_moment_trace(G: groups.GroupSpec, V, region, M: int, seed: int) -> MomentEstimate:
    """Estimate E_U Tr[(U V U^dag)^{x2} swap_region] from M Haar samples.

    Each sample reduces to the square of the region-restricted partial trace,
    so only d x d matrices appear and a chunk of draws is evaluated as one
    stack.  Budgeted by cost before the first draw.
    """
    n = G.n
    Vd = _as_dense_v(V, n)
    d = 1 << n
    qubits = tuple(sorted(region))
    if not qubits or any(q < 0 or q >= n for q in qubits):
        raise ValidationError(f"bad region {region} for n={n}")
    d_K = 1 << len(set(qubits))
    check_cost(
        f"second-moment trace for {G.kind} n={n}",
        M,
        {"Haar draws": draw_products(G) * d**3, "conjugations": 2 * d**3, "partial traces and squares": d**2 + d_K**3},
    )

    def rows(streams):
        Mred = densesim.partial_trace(_conjugated(G, Vd, streams), qubits, n)
        return np.trace(Mred @ Mred, axis1=1, axis2=2).real

    return _estimate(rng.sample_rows(rows, M, seed, row_bytes=_matrix_row_bytes(d)), seed)


# ---------------------------------------------------------------------------
# spread of a conjugated Pauli across its component


@dataclass(frozen=True, eq=False)
class SpreadReport:
    """Per-vertex masses E|Tr[T U P U^dag]/d|^2 over the component of P."""

    vertex_keys: tuple[int, ...]
    masses: tuple[MomentEstimate, ...]
    off_component_max: float
    component_size: int

    def as_dict(self) -> dict[int, MomentEstimate]:
        return dict(zip(self.vertex_keys, self.masses))


def haar_spread_uniformity(
    G: groups.GroupSpec, S: cgraph.GeneratorSet, P: pauli.PauliString, M: int, seed: int
) -> SpreadReport:
    """Sampled mass table over P's component under the generator set S
    (``groups.generator_set``) plus the leaked mass.

    The last accumulated column is 1 minus the in-component total, which
    Parseval makes the exact off-component mass for unitary P.  A block of
    draws is conjugated as one stack, and each row's vertex traces are then
    taken as a single sample's would be.  Budgeted by
    cost before the first draw: each sample takes one trace per component
    vertex on a signed permutation built once per run, about 6 us whatever
    n is, two thirds of a sample's fixed cost.
    """
    n = G.n
    d = 1 << n
    if S.n != n:
        raise ValidationError(f"generator set on {S.n} qubits, group on {n}")
    keys = tuple(cgraph.component(P, S).keys.tolist())
    check_cost(
        f"spread estimate for {G.kind} n={n}",
        M,
        {
            "Haar draws": draw_products(G) * d**3,
            "conjugations": 2 * d**3,
            "Pauli traces": len(keys) * (d + 2 * SAMPLE_FIXED_COST // 3),
        },
    )
    # each vertex's signed permutation and the dense P are built once, not per sample
    perms = [pauli.signed_permutation(pauli.from_key(k, n)) for k in keys]
    P_dense = pauli.to_dense(pauli.hermitian_representative(P))
    basis = np.arange(d)

    def block_rows(streams):
        out = []
        for A in _conjugated(G, P_dense, streams):
            # pauli.trace_with(T, A) per vertex, on the prebuilt permutation
            masses = np.array([abs(complex(np.sum(amp * A[basis, perm])) / d) ** 2 for perm, amp in perms])
            out.append(np.append(masses, 1.0 - masses.sum()))
        return out

    rows = rng.sample_rows(block_rows, M, seed, row_bytes=_matrix_row_bytes(d))
    ests = []
    for c in range(len(keys)):
        mean, err = rng.mean_and_stderr(rows[:, c])
        ests.append(MomentEstimate(mean, err, M, seed))
    off = float(np.max(np.abs(rows[:, -1])))
    return SpreadReport(keys, tuple(ests), off, len(keys))


# ---------------------------------------------------------------------------
# representation-type indicators


def even_parity_projector(n: int) -> np.ndarray:
    """Projector onto computational basis states of even bit parity."""
    if n > pauli.DENSE_QUBIT_CAP:
        raise BudgetError(f"dense parity projector for n={n} exceeds cap {pauli.DENSE_QUBIT_CAP}")
    d = 1 << n
    bits = np.arange(d)
    parity = np.zeros(d, dtype=np.int64)
    m = bits.copy()
    while m.any():
        parity ^= m & 1
        m >>= 1
    return np.diag((parity == 0).astype(np.complex128))


def draw_products(G: groups.GroupSpec) -> int:
    """d x d products in one dense Haar draw: n(2n-1) Givens lifts for a matchgate, else one."""
    return G.n * (2 * G.n - 1) if G.kind == "matchgate" else 1


def check_draw_cost(G: groups.GroupSpec, M: int, what: str) -> None:
    """Raise BudgetError when M dense Haar draws from G cost more than FS_COST_CAP.

    A draw costs ``draw_products(G)`` d^3 complex multiply-adds, and
    ``check_cost`` adds each sample's fixed cost.
    """
    d = G.dense_dimension
    check_cost(f"{what} for {G.kind} n={G.n}", M, {"Haar draws": draw_products(G) * d**3})


def frobenius_schur(
    G: groups.GroupSpec,
    subspace_projector: np.ndarray | None = None,
    M: int = 2000,
    seed: int = 0,
) -> MomentEstimate:
    """Estimate E_U Tr[Pi U^2]: +1 real, -1 quaternionic, 0 complex type.

    Before the first draw ``check_draw_cost`` budgets the M Haar draws.
    """
    d = G.dense_dimension
    check_draw_cost(G, M, "Frobenius-Schur estimate")
    Pi = None if subspace_projector is None else np.asarray(subspace_projector)
    if Pi is not None and Pi.shape != (d, d):
        raise ValidationError(f"projector shape {Pi.shape} does not match d={d}")

    def rows(streams):
        U = groups.sample_haar_stack(G, streams)
        U2 = U @ U if Pi is None else Pi @ U @ U
        return np.trace(U2, axis1=1, axis2=2).real

    return _estimate(rng.sample_rows(rows, M, seed, row_bytes=_matrix_row_bytes(d)), seed)


def mixed_unitary_fs(d: int, M: int, seed: int) -> MomentEstimate:
    """Estimate E |Tr U^2|^2 over Haar unitaries; the exact value is 2.

    Budgeted by ``check_cost`` before the first draw.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    check_cost(f"mixed-unitary Frobenius-Schur estimate for U({d})", M, {"Haar draws": d**3})

    def rows(streams):
        U = groups.haar_unitary_stack(d, streams)
        # the modulus and power stay per-sample scalar operations
        return [abs(t) ** 2 for t in np.trace(U @ U, axis1=1, axis2=2)]

    return _estimate(rng.sample_rows(rows, M, seed, row_bytes=_matrix_row_bytes(d)), seed)


def mixed_unitary_commutant_dimension(
    source: str,
    d: int | None = None,
    n: int | None = None,
    M: int | None = None,
    seed: int | None = None,
) -> MomentEstimate:
    """Commutant dimension sum_lambda m_lambda^2 of U x conj(U), as E|Tr U|^4.

    Sources: "haar_unitary" (needs d, M, seed), "clifford_enumeration" and
    "pauli_enumeration" (need n; exact averages, zero stderr).  The statistic
    is insensitive to projective phases, so enumerating representatives is
    enough for the finite groups.
    """
    if source == "haar_unitary":
        if d is None or M is None or seed is None:
            raise ValidationError("haar_unitary source needs d, M, and seed")
        if d < 2:
            raise ValidationError(f"need d >= 2, got {d}")
        check_cost(f"Haar commutant estimate for U({d})", M, {"Haar draws": d**3})

        def rows(streams):
            traces = np.trace(groups.haar_unitary_stack(d, streams), axis1=1, axis2=2)
            return [abs(t) ** 4 for t in traces]

        return _estimate(rng.sample_rows(rows, M, seed, row_bytes=_matrix_row_bytes(d)), seed)
    if source == "clifford_enumeration":
        if n is None:
            raise ValidationError("clifford_enumeration source needs n")
        traces = np.trace(groups.enumerate_clifford(n), axis1=1, axis2=2).tolist()
        # Python's complex abs: np.abs on the array can differ in the last bit
        values = np.array([abs(t) ** 4 for t in traces])
        return MomentEstimate(float(values.mean()), 0.0, values.size, None)
    if source == "pauli_enumeration":
        if n is None:
            raise ValidationError("pauli_enumeration source needs n")
        if n > densesim.PAULI_EXPANSION_CAP:
            raise BudgetError(f"pauli enumeration capped at n <= {densesim.PAULI_EXPANSION_CAP}")
        dim = 1 << n
        values = []
        for key in range(4**n):
            P = pauli.from_key(key, n)
            values.append(abs(pauli.trace_with(P, np.eye(dim, dtype=np.complex128))) ** 4)
        values = np.array(values)
        return MomentEstimate(float(values.mean()), 0.0, values.size, None)
    raise ValidationError(f"unknown commutant source {source!r}")
